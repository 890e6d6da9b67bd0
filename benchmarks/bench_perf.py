"""The repository benchmark's numbers, committed: ``BENCH_perf.json``.

Runs ``perfbench/run.py`` from the repository root, unchanged, as the
benchmark contract runs it (``BENCHMARK.json``'s ``run_seconds`` per
run, seed 0):

* ``--trace 0`` on every workload, for the end-to-end medians
  (``evals_per_s``, ``setup_s``, ``peak_rss_mb``, ``frontier_hv``);
* ``--trace 1`` on the serial workloads ``sweep_cold``, ``sweep_warm``
  and ``dse_scenario``, for the per-layer values.  The counts
  ``perfbench/layers.json`` marks exact repeat run to run on these
  workloads and are kept apart from the times.

and writes them to ``BENCH_perf.json`` at the repository root with the
commit, whether ``src/`` had uncommitted changes, and ``nproc``.
Regenerate with::

    python -m benchmarks.bench_perf

It takes two to three minutes on a 2-CPU host.  Times are a trajectory,
not a gate: the same host drifts by up to a third between runs an hour
apart (``perfbench/layers.json``, ``host.noise``).  The exact counts are
a gate: under pytest, a 1 s traced run of each traced workload must
repeat the committed counts (15 to 40 s each on a 2-CPU host, plus
about 20 s the first time to prime ``sweep_warm``'s cache), and a
change that moves one regenerates the file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_perf.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())

WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
TRACED = ("sweep_cold", "sweep_warm", "dse_scenario")
SEED = 0
EXACT = {name for name, spec in LAYERS["per_layer"].items() if spec.get("exact")}


def perfbench(
    workload: str, trace: int, seconds: float = BENCHMARK["run_seconds"]
) -> dict:
    """One ``perfbench/run.py`` run; its last stdout line, parsed."""
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run() -> dict:
    workloads: dict[str, dict] = {}
    for workload in WORKLOADS:
        result = perfbench(workload, 0)
        workloads[workload] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": {k: v["value"] for k, v in result["metrics"].items()},
        }
    for workload in TRACED:
        result = perfbench(workload, 1)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        entry = workloads[workload]
        entry["correct"] = entry["correct"] and result["correct"]
        entry["per_layer"] = {k: v for k, v in values.items() if k not in EXACT}
        entry["exact"] = {k: v for k, v in values.items() if k in EXACT}
    return {
        "benchmark": "perfbench",
        "commit": git("rev-parse", "HEAD"),
        "src_dirty": bool(git("status", "--porcelain", "--", "src")),
        "nproc": os.cpu_count(),
        "seed": SEED,
        "run_seconds": BENCHMARK["run_seconds"],
        "workloads": workloads,
    }


def test_committed_numbers_shape():
    """BENCH_perf.json covers every workload, correct, with the exact
    counts of the traced ones."""
    data = json.loads(RESULT_PATH.read_text())
    assert set(data["workloads"]) == set(WORKLOADS)
    for name, entry in data["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        assert set(entry["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for name in TRACED:
        assert EXACT <= set(data["workloads"][name]["exact"])


@pytest.mark.parametrize("workload", TRACED)
def test_exact_counts_match_committed(workload):
    """The exact counts repeat run to run, so a short traced run must
    reproduce every committed one."""
    committed = json.loads(RESULT_PATH.read_text())["workloads"][workload]
    result = perfbench(workload, 1, seconds=1)
    assert result["correct"] and result["failed"] == 0
    counts = {k: v["value"] for k, v in result["metrics"].items() if k in EXACT}
    assert counts == committed["exact"]


if __name__ == "__main__":
    RESULT_PATH.write_text(json.dumps(run(), indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
