"""Rendering for the run-ledger reports (`repro runs list|show|diff`)."""

from __future__ import annotations

from repro.analysis.report import run_diff_report, run_report, runs_table


def record(run_id="r1", status="ok", **extra):
    base = {
        "id": run_id,
        "status": status,
        "argv": ["dse", "--seed", "7"],
        "started": 1700000000.0,
        "wall_seconds": 2.0,
        "pid": 42,
        "host": "box",
        "versions": {"python": "3.11.1", "numpy": "1.26.0"},
        "manifest": {
            "workload": "fsrcnn",
            "seed": 7,
            "cache": None,  # None-valued manifest entries are elided
            "accelerator_fingerprints": {"meta_proto_like_df": "abc123"},
        },
        "result": {
            "hypervolume": 0.9,
            "evaluations": 50,
            "epsilon": 0.1,
            "frontier_size": 4,
        },
        "convergence": [
            {"index": i, "evaluations": 10 * (i + 1), "frontier_size": i + 1,
             "hypervolume": 0.3 * (i + 1), "epsilon": 0.5 / (i + 1)}
            for i in range(3)
        ],
    }
    base.update(extra)
    return base


class TestRunsTable:
    def test_empty(self):
        assert runs_table([]) == "no runs recorded"

    def test_rows_and_truncation(self):
        records = [record(f"run-{i}") for i in range(6)]
        text = runs_table(records, limit=4)
        assert "run-5" in text and "run-2" in text
        assert "run-0" not in text
        assert "... 2 older run(s)" in text

    def test_stub_row_renders_dashes(self):
        text = runs_table([{"id": "junk", "status": "unreadable"}])
        assert "junk" in text and "unreadable" in text
        assert " - " in text


class TestRunReport:
    def test_full_record(self):
        text = run_report(record())
        assert text.startswith("run r1 [ok]")
        assert "argv:     repro dse --seed 7" in text
        assert "box (pid 42)" in text
        assert "python 3.11.1" in text
        assert "workload:" in text and "fsrcnn" in text
        assert "cache:" not in text  # None manifest values elided
        assert "accelerator:      meta_proto_like_df [abc123]" in text
        assert "key metrics:" in text
        assert "hypervolume" in text

    def test_convergence_tail(self):
        text = run_report(record(), tail=2)
        assert "convergence (3 generation(s), last 2 shown):" in text
        assert "\n     0 " not in text  # oldest generation dropped

    def test_crashed_record(self):
        text = run_report(
            record(status="crashed", error="ValueError: boom",
                   result=None, convergence=[])
        )
        assert "[crashed]" in text
        assert "error:    ValueError: boom" in text

    def test_minimal_record(self):
        assert run_report({}) == "run ? [?]\n  started:  -"


class TestRunDiffReport:
    def test_deltas(self):
        base = record("base")
        curr = record("curr", wall_seconds=1.0)
        text = run_diff_report(base, curr)
        assert "baseline: base [ok]" in text
        assert "current:  curr [ok]" in text
        assert "-50.0%" in text  # wall clock halved

    def test_missing_side_renders_dash(self):
        text = run_diff_report(record(), {"id": "bare", "status": "ok"})
        assert "delta" in text
        lines = [l for l in text.splitlines() if l.startswith("hypervolume")]
        assert lines and lines[0].rstrip().endswith("-")
