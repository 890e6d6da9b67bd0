"""Run ledger: durable per-run records, crash capture, read-back."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs import ledger


@pytest.fixture
def runs(tmp_path):
    return tmp_path / "runs"


def begin(runs, command="evaluate", **manifest):
    return ledger.begin_run(
        command, [command, "--seed", "7"], manifest or None, directory=runs
    )


class TestLifecycle:
    def test_begin_writes_running_record(self, runs):
        handle = begin(runs, workload="tiny")
        record = json.loads(handle.path.read_text())
        assert record["status"] == "running"
        assert record["command"] == "evaluate"
        assert record["argv"] == ["evaluate", "--seed", "7"]
        assert record["manifest"] == {"workload": "tiny"}
        assert record["pid"] == os.getpid()
        assert record["versions"]["python"]
        assert record["format"] == ledger.LEDGER_FORMAT_VERSION

    def test_finish_seals_record(self, runs):
        handle = begin(runs)
        handle.finish("ok", result={"energy_mj": 1.25})
        record = json.loads(handle.path.read_text())
        assert record["status"] == "ok"
        assert record["result"] == {"energy_mj": 1.25}
        assert record["wall_seconds"] >= 0
        assert record["finished"] >= record["started"]

    def test_finish_is_idempotent_first_wins(self, runs):
        """A crash handler's ``crashed`` cannot be flipped back to
        ``ok`` by an outer handler finishing again."""
        handle = begin(runs)
        handle.finish("crashed", error="ValueError: boom")
        handle.finish("ok")
        record = json.loads(handle.path.read_text())
        assert record["status"] == "crashed"
        assert record["error"] == "ValueError: boom"

    def test_finish_captures_metrics_when_telemetry_on(self, runs):
        obs.enable()
        obs.metrics().counter("loma_orderings_evaluated_total").inc(120)
        handle = begin(runs)
        handle.finish()
        record = json.loads(handle.path.read_text())
        names = [m["name"] for m in record["metrics"]["metrics"]]
        assert "loma_orderings_evaluated_total" in names

    def test_no_metrics_key_when_telemetry_off(self, runs):
        handle = begin(runs)
        handle.finish()
        assert "metrics" not in json.loads(handle.path.read_text())

    def test_active_run_tracks_lifecycle(self, runs):
        assert ledger.active_run() is None
        handle = begin(runs)
        assert ledger.active_run() is handle
        handle.finish()
        assert ledger.active_run() is None

    def test_convergence_points_flush_immediately(self, runs):
        """Streamed per generation: a SIGKILLed search still leaves the
        partial series on disk, status ``running``."""
        handle = begin(runs, command="dse")
        handle.add_convergence({"index": 0, "hypervolume": 0.5})
        handle.add_convergence({"index": 1, "hypervolume": 0.75})
        record = json.loads(handle.path.read_text())
        assert record["status"] == "running"
        assert [p["hypervolume"] for p in record["convergence"]] == [0.5, 0.75]

    def test_convergence_write_failure_does_not_raise(self, runs, monkeypatch):
        """A full disk mid-search loses a flush, not the run: the point
        stays in the record and finish() retries the write."""
        handle = begin(runs, command="dse")
        real_write = ledger.RunHandle._write
        monkeypatch.setattr(
            ledger.RunHandle,
            "_write",
            lambda self: (_ for _ in ()).throw(OSError("disk full")),
        )
        handle.add_convergence({"index": 0, "hypervolume": 0.5})
        monkeypatch.setattr(ledger.RunHandle, "_write", real_write)
        handle.finish()
        record = json.loads(handle.path.read_text())
        assert record["convergence"] == [{"index": 0, "hypervolume": 0.5}]

    def test_id_collisions_get_suffix(self, runs):
        a = begin(runs)
        b = begin(runs)
        c = begin(runs)
        assert len({a.record["id"], b.record["id"], c.record["id"]}) == 3


class TestEnvKnobs:
    def test_runs_dir_resolution_order(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ledger.RUNS_DIR_ENV, raising=False)
        assert ledger.runs_dir() == ledger.DEFAULT_RUNS_DIR
        monkeypatch.setenv(ledger.RUNS_DIR_ENV, str(tmp_path / "env"))
        assert ledger.runs_dir() == tmp_path / "env"
        assert ledger.runs_dir(tmp_path / "arg") == tmp_path / "arg"

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", " OFF "])
    def test_ledger_env_disables(self, monkeypatch, value):
        monkeypatch.setenv(ledger.LEDGER_ENV, value)
        assert not ledger.ledger_enabled()

    @pytest.mark.parametrize("value", [None, "", "1", "on", "yes"])
    def test_ledger_enabled_by_default(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv(ledger.LEDGER_ENV, raising=False)
        else:
            monkeypatch.setenv(ledger.LEDGER_ENV, value)
        assert ledger.ledger_enabled()


class TestReadBack:
    def test_list_runs_sorted_oldest_first(self, runs):
        for i in range(3):
            handle = begin(runs)
            handle.record["started"] = 1000.0 + i  # deterministic order
            handle.finish()
        records = ledger.list_runs(runs)
        assert [r["started"] for r in records] == [1000.0, 1001.0, 1002.0]
        assert all("_path" in r for r in records)

    def test_list_runs_empty_dir(self, tmp_path):
        assert ledger.list_runs(tmp_path / "nowhere") == []

    def test_unreadable_file_surfaces_as_stub(self, runs):
        begin(runs).finish()
        (runs / "junk.json").write_text("{not json")
        records = ledger.list_runs(runs)
        stubs = [r for r in records if r["status"] == "unreadable"]
        assert [r["id"] for r in stubs] == ["junk"]

    def test_load_run_latest_exact_prefix_and_path(self, runs):
        a = begin(runs)
        a.finish()
        b = begin(runs)
        b.record["started"] = a.record["started"] + 10
        b.finish()
        assert ledger.load_run("latest", runs)["id"] == b.record["id"]
        assert ledger.load_run(a.record["id"], runs)["id"] == a.record["id"]
        assert ledger.load_run(str(a.path), runs)["id"] == a.record["id"]

    def test_load_run_errors_are_clear(self, runs):
        with pytest.raises(ValueError, match="no runs recorded"):
            ledger.load_run("latest", runs)
        begin(runs).finish()
        begin(runs).finish()
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.load_run("2", runs)  # ids start with the year
        with pytest.raises(ValueError, match="no run matching"):
            ledger.load_run("zzz", runs)

    @pytest.mark.parametrize(
        "content, detail",
        [
            (b"{not json", "Expecting property name"),
            (b"\xff\xfe garbage", "can't decode"),
            (b"[1, 2]", "got list"),
            (b'"x"', "got str"),
            (b"null", "got NoneType"),
            (b"3", "got int"),
        ],
        ids=["not-json", "not-utf8", "list", "string", "null", "number"],
    )
    def test_load_run_names_a_file_that_is_not_a_record(
        self, runs, tmp_path, content, detail
    ):
        path = tmp_path / "bogus.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            ledger.load_run(str(path), runs)
        assert str(info.value).startswith(f"{path}: not a run record (")
        assert detail in str(info.value)

    def test_gc_keeps_newest(self, runs):
        handles = []
        for i in range(5):
            handle = begin(runs)
            handle.record["started"] = 1000.0 + i
            handle.finish()
            handles.append(handle)
        would = ledger.gc_runs(runs, keep=2, dry_run=True)
        assert len(would) == 3
        assert len(ledger.list_runs(runs)) == 5  # dry run removed nothing
        removed = ledger.gc_runs(runs, keep=2)
        assert removed == would
        left = [r["id"] for r in ledger.list_runs(runs)]
        assert left == [h.record["id"] for h in handles[-2:]]

    def test_gc_rejects_negative_keep(self, runs):
        with pytest.raises(ValueError, match=">= 0"):
            ledger.gc_runs(runs, keep=-1)


class TestDerivedMetrics:
    def _record_with_metrics(self):
        reg_dump = {
            "metrics": [
                {
                    "name": "loma_orderings_evaluated_total",
                    "kind": "counter",
                    "labels": [],
                    "data": 300,
                },
                {
                    "name": "mapping_cache_gets_total",
                    "kind": "counter",
                    "labels": [["result", "hit"]],
                    "data": 30,
                },
                {
                    "name": "mapping_cache_gets_total",
                    "kind": "counter",
                    "labels": [["result", "miss"]],
                    "data": 10,
                },
                {
                    "name": "service_exec_seconds",
                    "kind": "histogram",
                    "labels": [],
                    "data": {"buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1},
                },
            ]
        }
        return {"wall_seconds": 2.0, "metrics": reg_dump}

    def test_metric_total_sums_matching_series(self):
        record = self._record_with_metrics()
        assert ledger.metric_total(record, "mapping_cache_gets_total") == 40
        assert (
            ledger.metric_total(
                record, "mapping_cache_gets_total", result="hit"
            )
            == 30
        )
        assert ledger.metric_total(record, "absent") is None
        # Histograms have no scalar total.
        assert ledger.metric_total(record, "service_exec_seconds") is None

    def test_key_metrics_derivation(self):
        out = ledger.key_metrics(self._record_with_metrics())
        assert out["orderings"] == 300
        assert out["orderings_per_s"] == pytest.approx(150.0)
        assert out["cache_hit_rate"] == pytest.approx(0.75)
        assert out["hypervolume"] is None

    def test_key_metrics_prefers_result_over_convergence(self):
        record = {
            "wall_seconds": 1.0,
            "result": {"hypervolume": 0.9, "evaluations": 50},
            "convergence": [
                {"hypervolume": 0.4, "evaluations": 20, "epsilon": 0.3}
            ],
        }
        out = ledger.key_metrics(record)
        assert out["hypervolume"] == 0.9
        assert out["evaluations"] == 50
        assert out["epsilon"] == 0.3  # falls back to the last point

    def test_key_metrics_empty_record(self):
        out = ledger.key_metrics({})
        assert all(v is None for v in out.values())
