"""The repository benchmark: end-to-end and per-layer performance of the
DeFiNES cost-model pipeline on four workloads (see ``suite.py``).

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 20 --trace 0

Run it from the repository root.  Every pass is a fresh worker process
(``worker.py``) that sets up and runs the workload once, because users
pay the in-process memo fills on every ``repro`` call.  A run repeats
passes until ``--seconds`` have elapsed (at least ``MIN_PASSES``) and
reports medians over them.  ``sweep_warm``'s mapping cache file is
written once per source tree by a separate priming process.
``evals_per_s`` and ``setup_s`` are in unloaded-host seconds (see
``hostspeed.py``); the wall-clock figures are printed beside them.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes of the same seed and
prints the per-layer metrics of BENCHMARK.json instead, including
``trace.overhead`` (traced / untraced timed phase - 1).  It also
checks that the traced outputs are bit-identical to the untraced ones
and, on the serial workloads, that every exact count repeats between
the traced passes.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` evaluations, and ``metrics``.  An
evaluation fails when it raises, when its simulated outputs differ
from ``reference.json``, or when it has no reference: every sweep job
and every design of the pinned-seed DSE has one, so a new design means
the search itself changed.  Any failure makes ``correct`` false;
``error_rate`` is failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import suite

HERE = Path(__file__).resolve().parent
#: Metric names and units; layers.json adds what BENCHMARK.json cannot
#: hold (where each metric is measured, which workloads move it).
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())

#: Untraced passes per run, at least.  Two keep a four-workload driver
#: session (4 + 22 x 4 runs) well inside its hour on a slow host.
MIN_PASSES = 2
#: Set-up-only passes per untraced run, on top of each pass's set-up:
#: set-up is short, so its median needs more samples.
SETUP_PASSES = 3
#: Traced runs alternate traced and untraced passes, this many pairs at
#: least: the exact-count self-check compares two traced passes.
TRACED_PAIRS = 2
#: Every pass of a run must end by then (the contract allows 180 s).
RUN_DEADLINE_S = 170.0
PRIME_TIMEOUT_S = 600.0

E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
EXACT = [name for name, spec in LAYERS["per_layer"].items() if spec.get("exact")]


class BenchError(RuntimeError):
    """The run cannot produce a result (a pass crashed or timed out)."""


def source_digest(root: Path) -> str:
    """Digest of the Python sources under ``src/`` (keys the primed cache)."""
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


class Runner:
    """Spawns worker processes for one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench"
        self.run_dir = self.work / f"run-{os.getpid()}"
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = {
            **os.environ,
            "PYTHONPATH": src if not path else src + os.pathsep + path,
        }
        self.extra: list[str] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.spawned = 0

    def worker(self, *args: str) -> list[str]:
        return [sys.executable, str(HERE / "worker.py"), *args]

    def prime_warm_cache(self) -> None:
        """Point passes at sweep_warm's cache file, priming it first in
        a separate process when this source tree has none yet."""
        path = self.work / f"warm-{source_digest(self.root)}.json"
        if not path.exists():
            self.work.mkdir(exist_ok=True)
            scratch = self.work / f"prime-{os.getpid()}.json"
            subprocess.run(
                self.worker("--prime", str(scratch)),
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                timeout=PRIME_TIMEOUT_S,
                check=True,
            )
            os.replace(scratch, path)
            # MappingCache.save's inter-process lock file.
            scratch.with_name(scratch.name + ".lock").unlink(missing_ok=True)
        self.extra = ["--cache", str(path)]
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def spawn(self, mode: str) -> dict:
        """Run one worker pass and return its result."""
        self.spawned += 1
        workdir = self.run_dir / f"{self.spawned:03d}-{mode}"
        workdir.mkdir(parents=True)
        out = workdir / "result.json"
        command = self.worker(
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--workdir", str(workdir),
            "--out", str(out),
            "--spawned", repr(time.monotonic()),
            *self.extra,
        )
        proc = subprocess.Popen(
            command,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{mode} pass still running at the run deadline")
        except BaseException:
            # Interrupted (Ctrl-C, or SIGTERM through main): the pass and
            # its service shards must not outlive the run.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited with status {proc.returncode}")
        result = json.loads(out.read_text())
        if mode == "traced":
            traces = self.work / "traces"
            traces.mkdir(exist_ok=True)
            os.replace(workdir / "spans.json", traces / f"{self.workload}.json")
        shutil.rmtree(workdir)
        return result

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


# ----------------------------------------------------------------------
def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced pass (0 for a layer the workload
    does not reach)."""
    from tracer import LAYER_TIMES

    trace = result["trace"]
    total, own, counts = trace["total"], trace["self"], trace["counts"]
    metrics = {name: 0.0 for name in LAYER_UNITS}
    for span, (inclusive, self_time) in LAYER_TIMES.items():
        if inclusive:
            metrics[inclusive] = total.get(span, 0.0)
        if self_time:
            metrics[self_time] = own.get(span, 0.0)
    for name in (
        "explore.jobs", "core.stacks", "core.tile_types", "core.tiles",
        "core.layer_tiles", "mapping.orderings", "mapping.searches",
        "mapping.cache_hits", "mapping.cache_misses", "mapping.infeasible",
    ):
        metrics[name] = counts.get(name, 0)
    metrics["mapping.batch_fallbacks"] = trace["batch_fallbacks"]
    metrics["hardware.hierarchy_calls"] = trace["calls"].get("hardware.hierarchy", 0)

    service = trace.get("service")
    if service is not None:
        cache = service["stats"]["cache"]
        metrics["serve.exec_s"] = service["exec_s"]
        metrics["serve.queue_wait_s"] = service["queue_wait_s"]
        metrics["serve.shard_busy"] = service["exec_s"] / (
            suite.SERVICE_SHARDS * metrics["explore.run_s"]
        )
        metrics["serve.coalesced"] = service["stats"]["coalesced"]
        # A serial sweep searches each cached key once (no infeasible
        # searches on this job list), so extra misses are duplicates.
        metrics["serve.duplicate_searches"] = cache["misses"] - cache["size"]

    hits, misses = metrics["mapping.cache_hits"], metrics["mapping.cache_misses"]
    if hits + misses:
        metrics["mapping.hit_ratio"] = hits / (hits + misses)
    if misses:
        metrics["mapping.ms_per_miss"] = 1000.0 * metrics["mapping.search_s"] / misses
    if metrics["mapping.score_s"]:
        metrics["mapping.orderings_per_s"] = (
            metrics["mapping.orderings"] / metrics["mapping.score_s"]
        )
    dse = result.get("dse")
    if dse is not None:
        metrics["dse.designs_proposed"] = dse["proposed"]
        metrics["dse.designs_evaluated"] = dse["evaluated"]
        metrics["dse.dedup_ratio"] = dse["evaluated"] / dse["proposed"]
    metrics["trace.coverage"] = trace["root_s"] / result["timed_s"]
    return metrics


def measure(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {root} holds no src/repro; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.workload == "sweep_warm":
            runner.prime_warm_cache()
        untraced: list[dict] = []
        traced: list[dict] = []
        started = time.monotonic()
        set_ups = [] if args.trace else [
            runner.spawn("setup") for _ in range(SETUP_PASSES)
        ]
        while (
            len(untraced) < (TRACED_PAIRS if args.trace else MIN_PASSES)
            or time.monotonic() - started < args.seconds
        ):
            if args.trace:
                traced.append(runner.spawn("traced"))
            untraced.append(runner.spawn("untraced"))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    passes = untraced + traced
    for result in passes:
        if result["raised"]:
            print(result["raised"], file=sys.stderr)
    attempted = sum(r["evaluations"] for r in passes)
    mismatched = sum(r["failed"] for r in passes)
    unchecked = sum(r["unchecked"] for r in passes)
    # Every sweep job and every design of the pinned-seed DSE has a
    # reference, so an unchecked evaluation means the work changed.
    failed = mismatched + unchecked
    problems = []
    if unchecked:
        problems.append(f"{unchecked} evaluations have no reference output")
    if len({r["digest"] for r in passes}) != 1:
        problems.append("simulated outputs differ between passes of one seed")

    def per_pass(label, values):
        print(f"  {label} per pass: {', '.join(f'{v:.3f}' for v in values)}")

    rates = [r["evaluations"] / r["timed_host_s"] for r in untraced]
    setups = [r["setup_host_s"] for r in set_ups + untraced]
    e2e = {
        "evals_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in untraced),
        "frontier_hv": statistics.median(r["frontier_hv"] or 0.0 for r in untraced),
    }
    print(
        f"perfbench {args.workload} seed={args.seed}: {len(untraced)} untraced "
        f"+ {len(traced)} traced passes; times in unloaded-host seconds"
    )
    per_pass("evals_per_s", rates)
    per_pass("evals per wall second", [r["evaluations"] / r["timed_s"] for r in untraced])
    per_pass("setup_s", setups)
    per_pass("setup wall s", [r["setup_s"] for r in set_ups + untraced])
    for name, value in e2e.items():
        print(f"  {name:14s} {value:.6g} {E2E_UNITS[name]}")
    print(
        f"  {'error_rate':14s} {failed / attempted:.6g} ({mismatched} differ "
        f"from the reference, {unchecked} unchecked, of {attempted} evaluations)"
    )

    if args.trace:
        per_pass = [layer_metrics(r) for r in traced]
        metrics = {
            name: statistics.median(p[name] for p in per_pass)
            for name in LAYER_UNITS
        }
        # Traced and untraced passes alternate, so each pair shares the
        # host's speed at the time.
        metrics["trace.overhead"] = (
            statistics.median(
                t["timed_host_s"] / u["timed_host_s"]
                for t, u in zip(traced, untraced)
            )
            - 1.0
        )
        changed = [n for n in EXACT if len({p[n] for p in per_pass}) != 1]
        if args.workload in suite.SERIAL_WORKLOADS:
            if changed:
                problems.append(f"exact counts changed between passes: {changed}")
        elif changed:
            print(f"  timing-dependent counts (service fan-out): {changed}")
        for name, value in metrics.items():
            print(f"  {name:28s} {value:.6g} {LAYER_UNITS[name]}")
        units = LAYER_UNITS
    else:
        metrics, units = e2e, E2E_UNITS

    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
