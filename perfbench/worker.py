"""One benchmark pass in a fresh process.

The pass imports ``repro``, builds the zoo objects and the job list
(set-up), runs the workload once (the timed phase), then checks the
simulated outputs against ``reference.json`` and writes a JSON result
file for ``run.py``.  Set-up and timed phase are reported in wall
seconds and in unloaded-host seconds (see ``hostspeed.py``); set-up
starts at ``--spawned``, the parent's ``time.monotonic()`` reading
just before it started this process (default: when ``main`` starts).
``--mode traced`` records per-layer spans (see ``tracer.py``) with
``repro.obs`` metrics on; ``--mode setup`` stops after set-up.
``--prime FILE`` instead writes ``sweep_warm``'s mapping cache file.

    PYTHONPATH=src python3 perfbench/worker.py --workload sweep_cold \\
        --seed 0 --mode untraced --workdir DIR --out RESULT.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=("untraced", "traced", "setup"), default="untraced"
    )
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--cache", type=Path, help="sweep_warm's cache file")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--prime", type=Path, metavar="FILE")
    return parser.parse_args(argv)


def prime(path: Path) -> None:
    """Run sweep_warm's grid cold and save the mapping cache it fills."""
    import suite
    from repro.explore import Executor, MappingCache

    cache = MappingCache()
    jobs = suite.build_jobs("sweep_warm", 0)
    Executor(search_config=suite.search_config(), cache=cache).run(jobs)
    cache.save(path)


def _child_peak_rss_kb() -> int:
    """Summed peak RSS of this process's live child processes."""
    total = 0
    for children in Path("/proc/self/task").glob("*/children"):
        for pid in children.read_text().split():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
    return total


def main(argv=None) -> int:
    args = _parse(argv)
    if args.prime is not None:
        prime(args.prime)
        return 0
    spawned = time.monotonic() if args.spawned is None else args.spawned
    sampler = hostspeed.Sampler().start()

    # ---- set-up: imports, zoo objects, job list -----------------------
    import suite

    workload, traced = args.workload, args.mode == "traced"
    if workload == "dse_scenario":
        import repro.cli

        dse_argv = suite.dse_argv(args.workdir)
        jobs = None
    else:
        from repro.explore import Executor, MappingCache

        jobs = suite.build_jobs(workload, args.seed)
        config = suite.search_config()
    rec = None
    if traced:
        import tracer
        from repro import obs

        rec = tracer.Recorder()
        rec.shard_dir = args.workdir
        tracer.install(rec)
        obs.enable()
    ready = time.monotonic()
    if args.mode == "setup":
        sampler.stop()
        args.out.write_text(
            json.dumps(
                {
                    "setup_s": ready - spawned,
                    "setup_host_s": sampler.seconds(spawned, ready),
                }
            )
        )
        return 0

    # ---- timed phase ---------------------------------------------------
    raised = None
    results = None
    service_stats = None
    child_rss_kb = 0
    probe = None
    t0 = time.monotonic()
    try:
        if workload == "dse_scenario":
            if repro.cli.main(dse_argv) != 0:
                raise RuntimeError("repro dse exited nonzero")
        elif workload == "sweep_service":
            executor = Executor(
                jobs=suite.SERVICE_SHARDS,
                search_config=config,
                cache=MappingCache(),
                backend="service",
            )
            try:
                results = executor.run(jobs)
                p0 = time.monotonic()
                child_rss_kb = _child_peak_rss_kb()
                if traced:
                    service_stats = executor.service.stats()
                probe = (p0, time.monotonic())
            finally:
                executor.close()
        else:
            cache = (
                MappingCache(args.cache)
                if workload == "sweep_warm"
                else MappingCache()
            )
            executor = Executor(search_config=config, cache=cache)
            results = executor.run(jobs)
    except Exception:  # noqa: BLE001 - reported as failed evaluations
        raised = traceback.format_exc()
    t1 = time.monotonic()
    sampler.stop()
    # The service probe (shard RSS, stats) is not part of the timed phase.
    timed = [(t0, t1)] if probe is None else [(t0, probe[0]), (probe[1], t1)]

    # ---- outputs and checks (untimed) ----------------------------------
    reference = suite.load_reference()
    hv_points = suite.hv_reference_points(reference)
    per_eval = 1
    if raised is not None:
        outputs = {}
        evaluations = len(jobs) if jobs else 1
    elif workload == "dse_scenario":
        checkpoint = json.loads((args.workdir / "checkpoint.json").read_text())
        output = json.loads((args.workdir / "output.json").read_text())
        outputs = suite.dse_outputs(checkpoint)
        expected = reference["dse"]
        per_eval = len(suite.DSE_DNNS)
        evaluations = per_eval * len(outputs)
        groups = {
            "dse_scenario": [
                entry["values"]
                for entry in output["frontier"]["entries"]
                if not entry.get("violation")
            ]
        }
    else:
        outputs = {
            suite.job_key(job): suite.job_outputs(job, r.result)
            for job, r in zip(jobs, results)
        }
        expected = reference["jobs"]
        evaluations = len(outputs)
        groups = {}
        for key, out in outputs.items():
            groups.setdefault(key.split("|", 1)[0], []).append(out["objectives"])

    failed = unchecked = 0
    if raised is not None:
        failed = evaluations
    else:
        for key, out in outputs.items():
            ref = expected.get(key)
            if ref is None:
                unchecked += per_eval
            elif ref != out:
                failed += per_eval

    result = {
        "setup_s": ready - spawned,
        "setup_host_s": sampler.seconds(spawned, ready),
        "timed_s": sum(end - start for start, end in timed),
        "timed_host_s": sum(sampler.seconds(*span) for span in timed),
        "evaluations": evaluations,
        "failed": failed,
        "unchecked": unchecked,
        "raised": raised,
        "digest": suite.digest(outputs),
        "frontier_hv": (
            None if raised is not None else suite.frontier_hv(groups, hv_points)
        ),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + child_rss_kb,
    }
    if workload == "dse_scenario" and raised is None:
        proposed = sum(g["proposed"] for g in output["generations"])
        result["dse"] = {"proposed": proposed, "evaluated": len(outputs)}
    if rec is not None:
        result["trace"] = _trace_summary(rec, args.workdir, service_stats)
        rec.write(args.workdir / "spans.json")
    args.out.write_text(json.dumps(result))
    return 0


def _trace_summary(rec, workdir: Path, service_stats) -> dict:
    """The traced pass's span summary; on the service backend the
    shards' summaries are merged in and ``EvalService.stats()`` plus
    the parent's ``repro.obs`` histograms describe the fan-out."""
    import tracer

    summary = rec.summary()
    summary["batch_fallbacks"] = tracer.obs_counter("loma_batch_fallbacks_total")
    shards = [
        json.loads(path.read_text())
        for path in sorted(workdir.glob("shard-*.json"))
    ]
    for shard in shards:
        for field in ("total", "self", "calls", "counts"):
            for name, value in shard[field].items():
                summary[field][name] = summary[field].get(name, 0) + value
        summary["batch_fallbacks"] += shard["batch_fallbacks"]
    if service_stats is not None:
        summary["service"] = {
            "stats": service_stats,
            "exec_s": tracer.obs_histogram_total("service_exec_seconds"),
            "queue_wait_s": tracer.obs_histogram_total(
                "service_queue_wait_seconds"
            ),
        }
    return summary


if __name__ == "__main__":
    sys.exit(main())
