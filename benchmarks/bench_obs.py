"""Telemetry smoke benchmark: the observability acceptance gate.

One small DSE runs twice through the real CLI — once bare, once with
``--trace`` and ``--metrics`` — and the traced run must

* produce a parseable JSON-lines trace whose root spans cover >= 95% of
  the traced window,
* report non-zero LOMA-orderings and mapping-cache counters,
* write a **bit-identical frontier** to the telemetry-off run (the
  identity-neutral contract),
* stay within 10% (+ a small absolute slack for CI jitter) of the bare
  run's wall-clock — the zero-ish-overhead contract, and
* read back through ``repro runs show``, the one reader of a run's
  telemetry: its ledger record renders the root-span coverage line and
  the mapping-cache hit-rate line.

Run directly (``python -m pytest benchmarks/bench_obs.py -q``) or let
CI's ``obs-smoke`` job do it on every push.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # `python benchmarks/bench_obs.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main
from repro.obs import load_trace, parse_prometheus, trace_coverage, trace_spans

from .conftest import write_output

#: Overhead gate: traced <= bare * (1 + RELATIVE) + ABSOLUTE seconds.
#: The absolute slack damps scheduler jitter on a sub-10s CI run.
RELATIVE_OVERHEAD = 0.10
ABSOLUTE_SLACK = 0.25


def dse_args(out: Path, extra: "list[str]") -> "list[str]":
    return [
        "dse",
        "--workload", "fsrcnn",
        "--strategy", "genetic",
        "--population", "6",
        "--generations", "2",
        "--tilex", "4,16,60",
        "--tiley", "4,18",
        "--modes", "fully_cached,h_cached_v_recompute",
        "--budget", "100",
        "--lpf-limit", "5",
        "--seed", "7",
        "--output", str(out),
    ] + extra


def timed_run(args: "list[str]") -> float:
    t0 = time.perf_counter()
    assert main(args) == 0
    return time.perf_counter() - t0


def test_obs_smoke(tmp_path, capsys):
    bare_out = tmp_path / "bare.json"
    traced_out = tmp_path / "traced.json"
    trace = tmp_path / "run.jsonl"
    prom = tmp_path / "run.prom"

    # Both runs start cold: no --cache, fresh in-memory mapping cache.
    bare_seconds = timed_run(dse_args(bare_out, []))
    traced_seconds = timed_run(
        dse_args(traced_out, ["--trace", str(trace), "--metrics", str(prom)])
    )
    capsys.readouterr()  # keep the benchmark log quiet

    # 1. The trace parses and its spans account for the run.
    records = load_trace(trace)
    assert records[0]["type"] == "run"
    spans = trace_spans(records)
    names = {s["name"] for s in spans}
    assert {"repro.dse", "dse.run", "dse.generation", "executor.run"} <= names
    coverage = trace_coverage(records)
    assert coverage is not None and coverage >= 0.95, (
        f"root spans cover only {coverage:.1%} of the traced window"
    )

    # 2. The key counters moved.
    values = parse_prometheus(prom.read_text())
    assert values["loma_orderings_evaluated_total"] > 0
    cache_gets = sum(
        v
        for series, v in values.items()
        if series.startswith("mapping_cache_gets_total")
    )
    assert cache_gets > 0
    assert values['mapping_cache_gets_total{result="hit"}'] > 0

    # 3. Bit-identical frontier: telemetry never touches the math.
    bare = json.loads(bare_out.read_text())
    traced = json.loads(traced_out.read_text())
    assert traced["frontier"] == bare["frontier"]
    assert traced["generations"] == bare["generations"]

    # 4. Overhead stays inside the gate.
    ceiling = bare_seconds * (1.0 + RELATIVE_OVERHEAD) + ABSOLUTE_SLACK
    assert traced_seconds <= ceiling, (
        f"telemetry overhead too high: traced {traced_seconds:.2f}s vs "
        f"bare {bare_seconds:.2f}s (ceiling {ceiling:.2f}s)"
    )

    # 5. The traced run's ledger record (the latest) reads back through
    # `repro runs show`: its trace's coverage and its dump's hit rate.
    assert main(["runs", "show"]) == 0
    shown = capsys.readouterr().out
    assert f"trace {trace}:" in shown
    assert f"root spans cover {100.0 * coverage:.1f}%" in shown
    hits = int(values['mapping_cache_gets_total{result="hit"}'])
    assert f"mapping cache: {hits} hit(s) / " in shown
    assert "% hit rate)" in shown

    write_output(
        "bench_obs.txt",
        "\n".join(
            [
                f"bare_seconds    {bare_seconds:.3f}",
                f"traced_seconds  {traced_seconds:.3f}",
                f"overhead        {traced_seconds / bare_seconds - 1.0:+.1%}",
                f"spans           {len(spans)}",
                f"coverage        {coverage:.1%}",
                f"orderings       {int(values['loma_orderings_evaluated_total'])}",
                f"cache_gets      {int(cache_gets)}",
            ]
        ),
    )
