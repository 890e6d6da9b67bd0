"""CLI tests for the run ledger family (`repro runs ...`), including
`runs show` as the one, crash-robust reader of a run's telemetry."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.analysis import run_report
from repro.cli import main
from repro.explore import Executor
from repro.obs import ledger

EVAL_ARGS = [
    "--accelerator", "meta_proto_like_df",
    "--workload", "mobilenet_v1",
    "--mode", "2",
    "--tilex", "14",
    "--tiley", "14",
    "--budget", "40",
    "--lpf-limit", "5",
]

DSE_ARGS = [
    "dse",
    "--workload", "mobilenet_v1",
    "--strategy", "exhaustive",
    "--objectives", "energy,latency",
    "--tilex", "14,28",
    "--tiley", "14",
    "--modes", "fully_cached",
    "--budget", "40",
    "--lpf-limit", "5",
]


def write_record(
    runs_dir,
    run_id,
    started,
    orderings=200.0,
    wall=2.0,
    hits=30,
    misses=10,
    hv=0.9,
    evals=50,
):
    """A ledger-record file crafted directly (the write path has its own
    tests; these exercise the CLI read/compare path)."""
    runs_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "format": ledger.LEDGER_FORMAT_VERSION,
        "id": run_id,
        "command": "dse",
        "argv": ["dse", "--seed", "7"],
        "status": "ok",
        "started": started,
        "finished": started + wall,
        "wall_seconds": wall,
        "pid": 1,
        "host": "fixture",
        "versions": {"python": "3.x"},
        "result": {"hypervolume": hv, "evaluations": evals,
                   "frontier_size": 4, "epsilon": 0.1},
        "convergence": [
            {"index": 0, "hypervolume": hv / 2, "evaluations": evals // 2,
             "epsilon": 0.5, "frontier_size": 2, "proposed": 10,
             "evaluated": 10, "cached": 0},
            {"index": 1, "hypervolume": hv, "evaluations": evals,
             "epsilon": 0.1, "frontier_size": 4, "proposed": 10,
             "evaluated": 5, "cached": 5},
        ],
        "metrics": {
            "metrics": [
                {"name": "loma_orderings_evaluated_total", "kind": "counter",
                 "labels": [], "data": orderings},
                {"name": "mapping_cache_gets_total", "kind": "counter",
                 "labels": [["result", "hit"]], "data": hits},
                {"name": "mapping_cache_gets_total", "kind": "counter",
                 "labels": [["result", "miss"]], "data": misses},
            ]
        },
    }
    (runs_dir / f"{run_id}.json").write_text(json.dumps(record))
    return record


class TestLedgerFromCLI:
    def test_evaluate_leaves_ok_record(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(EVAL_ARGS + ["--runs-dir", str(runs)]) == 0
        records = ledger.list_runs(runs)
        assert len(records) == 1
        record = records[0]
        assert record["status"] == "ok"
        assert record["command"] == "evaluate"
        assert record["manifest"]["workload"] == "mobilenet_v1"
        assert record["manifest"]["accelerator_fingerprints"]
        assert record["result"]["energy_mj"] > 0
        assert record["wall_seconds"] > 0
        capsys.readouterr()

        # `runs show` renders it.
        assert main(["runs", "show", "--runs-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert f"run {record['id']} [ok]" in out
        assert "key metrics:" in out

    def test_dse_records_convergence_series(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(DSE_ARGS + ["--runs-dir", str(runs)]) == 0
        (record,) = ledger.list_runs(runs)
        assert record["status"] == "ok"
        assert record["command"] == "dse"
        assert record["result"]["evaluations"] == 2
        assert record["convergence"]
        assert all("hypervolume" in p for p in record["convergence"])
        assert all("evaluations" in p for p in record["convergence"])
        capsys.readouterr()

        assert main(["runs", "show", record["id"][:-2] or record["id"],
                     "--runs-dir", str(runs), "--tail", "2"]) == 0
        out = capsys.readouterr().out
        assert "convergence" in out

    def test_crashed_dse_leaves_crashed_record(self, tmp_path, capsys):
        """A run that dies mid-flight must still be in the ledger — the
        whole point of write-at-begin."""
        runs = tmp_path / "runs"
        corrupt = tmp_path / "ckpt.json"
        corrupt.write_text("{definitely not a checkpoint")
        with pytest.raises(SystemExit, match="not a DSE checkpoint"):
            main(DSE_ARGS + ["--runs-dir", str(runs),
                             "--checkpoint", str(corrupt)])
        (record,) = ledger.list_runs(runs)
        assert record["status"] == "crashed"
        assert "not a DSE checkpoint" in record["error"]
        capsys.readouterr()

        assert main(["runs", "show", "latest", "--runs-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "[crashed]" in out
        assert "error:" in out

    @pytest.mark.parametrize(
        "exc, status",
        [
            (SystemExit("stopped mid-run"), "crashed"),
            (KeyboardInterrupt("ctrl-c mid-run"), "interrupted"),
        ],
        ids=["system-exit", "keyboard-interrupt"],
    )
    @pytest.mark.parametrize("argv", [EVAL_ARGS, DSE_ARGS], ids=["evaluate", "dse"])
    def test_failed_run_seals_record_and_writes_telemetry(
        self, tmp_path, monkeypatch, capsys, argv, exc, status
    ):
        """A run that dies inside the executor still seals its record
        (right status and error, metrics dump embedded), writes both
        telemetry files, and leaves no telemetry or ledger state
        behind."""
        real_run = Executor.run

        def run_then_fail(self, spec):
            real_run(self, spec)
            raise exc

        monkeypatch.setattr(Executor, "run", run_then_fail)
        runs = tmp_path / "runs"
        prom, trace = tmp_path / "m.prom", tmp_path / "t.jsonl"
        with pytest.raises(type(exc)):
            main(argv + ["--runs-dir", str(runs),
                         "--metrics", str(prom), "--trace", str(trace)])
        (record,) = ledger.list_runs(runs)
        assert record["status"] == status
        assert record["error"] == f"{type(exc).__name__}: {exc}"
        names = {m["name"] for m in record["metrics"]["metrics"]}
        assert "executor_jobs_total" in names
        assert prom.read_text() and trace.read_text()
        assert not obs.enabled
        assert ledger.active_run() is None
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            EVAL_ARGS + ["--lpf-limit", "0"],
            EVAL_ARGS + ["--tilex", "0"],
            EVAL_ARGS + ["--tiley", "14,-1"],
            DSE_ARGS + ["--lpf-limit", "0"],
            DSE_ARGS + ["--tilex", "0,14"],
            DSE_ARGS + ["--strategy", "genetic", "--population", "1"],
        ],
        ids=[
            "evaluate-lpf", "evaluate-tilex", "evaluate-tiley",
            "dse-lpf", "dse-tilex", "dse-population",
        ],
    )
    def test_out_of_range_option_is_parse_error(self, tmp_path, capsys, argv):
        """Out-of-range runtime options stop at the parser (usage error,
        exit 2) before any ledger record exists."""
        runs = tmp_path / "runs"
        with pytest.raises(SystemExit) as info:
            main(argv + ["--runs-dir", str(runs)])
        assert info.value.code == 2
        assert "must be >= " in capsys.readouterr().err
        assert ledger.list_runs(runs) == []

    def test_telemetry_on_embeds_metrics_dump(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        prom = tmp_path / "m.prom"
        assert main(EVAL_ARGS + ["--runs-dir", str(runs),
                                 "--metrics", str(prom)]) == 0
        (record,) = ledger.list_runs(runs)
        names = {m["name"] for m in record["metrics"]["metrics"]}
        assert "loma_orderings_evaluated_total" in names
        assert ledger.key_metrics(record)["orderings_per_s"] > 0
        capsys.readouterr()

    def test_no_ledger_flag_and_env(self, tmp_path, monkeypatch, capsys):
        runs = tmp_path / "runs"
        assert main(EVAL_ARGS + ["--runs-dir", str(runs), "--no-ledger"]) == 0
        assert ledger.list_runs(runs) == []
        monkeypatch.setenv(ledger.LEDGER_ENV, "0")
        assert main(EVAL_ARGS + ["--runs-dir", str(runs)]) == 0
        assert ledger.list_runs(runs) == []
        capsys.readouterr()

    def test_unwritable_runs_dir_warns_and_continues(self, tmp_path, capsys):
        """A broken ledger location must never break the run itself."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where the runs dir should go")
        assert main(EVAL_ARGS + ["--runs-dir", str(blocker)]) == 0
        captured = capsys.readouterr()
        assert "warning: run ledger disabled" in captured.err
        assert "on meta_proto_like_df" in captured.out  # run completed

    def test_runs_dir_env_is_honored(self, tmp_path, monkeypatch, capsys):
        runs = tmp_path / "env-runs"
        monkeypatch.setenv(ledger.RUNS_DIR_ENV, str(runs))
        assert main(EVAL_ARGS) == 0
        assert len(ledger.list_runs(runs)) == 1
        capsys.readouterr()


class TestRunsCLI:
    def test_list_and_gc(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        for i in range(4):
            write_record(runs, f"run-{i}", 1000.0 + i)
        assert main(["runs", "list", "--runs-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "run-0" in out and "run-3" in out

        assert main(["runs", "gc", "--keep", "2", "--dry-run",
                     "--runs-dir", str(runs)]) == 0
        assert "would remove" in capsys.readouterr().out
        assert len(ledger.list_runs(runs)) == 4

        assert main(["runs", "gc", "--keep", "2",
                     "--runs-dir", str(runs)]) == 0
        assert "removed 2 run record(s)" in capsys.readouterr().out
        assert [r["id"] for r in ledger.list_runs(runs)] == ["run-2", "run-3"]

    def test_list_empty_ledger(self, tmp_path, capsys):
        assert main(["runs", "list", "--runs-dir", str(tmp_path / "x")]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show_unknown_ref_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no run matching"):
            main(["runs", "show", "zzz", "--runs-dir", str(tmp_path)])

    def test_diff(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        write_record(runs, "base", 1000.0, orderings=200.0, hv=0.9)
        write_record(runs, "curr", 2000.0, orderings=300.0, hv=0.95)
        assert main(["runs", "diff", "base", "curr",
                     "--runs-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "curr" in out
        assert "+50.0%" in out  # orderings 200 -> 300

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["runs", "show"], [1, 2]),
            (["runs", "diff", "base"], "x"),
        ],
        ids=["show-list", "diff-string"],
    )
    def test_non_object_record_file_exits_with_its_name(
        self, tmp_path, argv, content
    ):
        """A record file whose JSON is not an object is a named error,
        not a TypeError from indexing it."""
        runs = tmp_path / "runs"
        write_record(runs, "base", 1000.0)
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps(content))
        with pytest.raises(SystemExit, match="bogus.json: not a run record"):
            main(argv + [str(bogus), "--runs-dir", str(runs)])

    def test_non_json_record_file_exits_with_its_name(self, tmp_path):
        """The decoder's message alone does not say which file it was."""
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{not json")
        with pytest.raises(
            SystemExit, match="bogus.json: not a run record .Expecting"
        ):
            main(["runs", "show", str(bogus),
                  "--runs-dir", str(tmp_path / "runs")])

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["stats", "run.jsonl"], "'stats'"),
            (["runs", "regress", "--baseline", "base"], "'regress'"),
            (["dsee", "--workload", "fsrcnn"], "'dsee'"),
        ],
        ids=["stats", "runs-regress", "misspelt"],
    )
    def test_removed_commands_are_usage_errors(self, capsys, argv, name):
        """An unknown command is named, not reported as a missing
        ``--accelerator`` of the evaluation it is not."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert name in err and "--accelerator" not in err.splitlines()[-1]
        assert ledger.list_runs() == []

    @pytest.mark.parametrize("field", ["manifest", "versions"])
    @pytest.mark.parametrize("value", [[], ["a"], "x"])
    @pytest.mark.parametrize("by", ["path", "id"])
    def test_non_object_record_field_exits_with_its_name(
        self, tmp_path, field, value, by
    ):
        """``runs show`` renders the manifest and versions as objects: a
        record holding anything else is a named error, not a traceback."""
        runs = tmp_path / "runs"
        record = write_record(runs, "base", 1000.0)
        record[field] = value
        path = runs / "base.json"
        path.write_text(json.dumps(record))
        ref = str(path) if by == "path" else "base"
        with pytest.raises(
            SystemExit,
            match=f"base.json: not a run record .{field} is not a JSON object",
        ):
            main(["runs", "show", ref, "--runs-dir", str(runs)])

    def test_null_record_fields_still_render(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        record = write_record(runs, "base", 1000.0)
        record.update(manifest=None, versions=None)
        (runs / "base.json").write_text(json.dumps(record))
        assert main(["runs", "show", "base", "--runs-dir", str(runs)]) == 0
        assert "run base [ok]" in capsys.readouterr().out


class TestShowTelemetry:
    """`runs show` renders the telemetry a run left: the record's
    embedded metrics dump and the trace file its manifest names."""

    def traced_run(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        trace = tmp_path / "trace.jsonl"
        assert main(EVAL_ARGS + ["--runs-dir", str(runs),
                                 "--trace", str(trace)]) == 0
        capsys.readouterr()
        (record,) = ledger.list_runs(runs)
        return runs, trace, record

    def show(self, runs, capsys):
        assert main(["runs", "show", "--runs-dir", str(runs)]) == 0
        return capsys.readouterr().out

    def test_record_and_both_telemetry_sections(self, tmp_path, capsys):
        runs, trace, record = self.traced_run(tmp_path, capsys)
        out = self.show(runs, capsys)
        assert out.startswith(run_report(record) + "\n")
        assert "\nmetrics dump:\n  mapping cache: " in out
        assert "hit rate" in out
        assert f"\ntrace {trace}:\n" in out
        assert "repro.evaluate" in out
        assert "root spans cover" in out
        assert "warning" not in out

    @pytest.mark.parametrize(
        "damage, expected, malformed",
        [
            # The final line cut mid-record, as a crash would.
            (lambda t: t.rstrip("\n")[:-20] + "\n", "root spans cover", 1),
            # Killed before the first write.
            (lambda t: "", "no spans recorded", 0),
            (lambda t: '{"half": \n{"also half": \n', "no spans recorded", 2),
        ],
        ids=["cut", "empty", "junk"],
    )
    def test_damaged_trace_renders_best_effort(
        self, tmp_path, capsys, damage, expected, malformed
    ):
        runs, trace, _ = self.traced_run(tmp_path, capsys)
        trace.write_text(damage(trace.read_text()))
        out = self.show(runs, capsys)
        assert f"trace {trace}:\n" in out
        assert expected in out
        assert "mapping cache:" in out
        if malformed:
            assert f"warning: skipped {malformed} malformed line(s)" in out
            assert "truncated by a crashed run?" in out
        else:
            assert "warning" not in out

    def test_deleted_trace_is_one_named_line(self, tmp_path, capsys):
        runs, trace, _ = self.traced_run(tmp_path, capsys)
        trace.unlink()
        out = self.show(runs, capsys)
        (line,) = [s for s in out.splitlines() if s.startswith("trace ")]
        assert line.startswith(f"trace {trace}: unreadable (")
        assert "No such file" in line
        assert out.endswith(line + "\n")
        assert "mapping cache:" in out  # the dump still renders

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda trace: (trace.unlink(), trace.mkdir()), "Is a directory"),
            (lambda trace: trace.write_bytes(b"\xff\xfe\n"), "can't decode"),
        ],
        ids=["directory", "not-utf8"],
    )
    def test_unreadable_trace_is_one_named_line(
        self, tmp_path, capsys, damage, reason
    ):
        runs, trace, _ = self.traced_run(tmp_path, capsys)
        damage(trace)
        out = self.show(runs, capsys)
        (line,) = [s for s in out.splitlines() if s.startswith("trace ")]
        assert line.startswith(f"trace {trace}: unreadable (")
        assert reason in line
        assert out.endswith(line + "\n")
        assert "Traceback" not in out

    def test_non_path_trace_entry_is_one_named_line(self, tmp_path, capsys):
        """A corrupted manifest whose trace entry is not a path string."""
        runs, _, record = self.traced_run(tmp_path, capsys)
        path = runs / f"{record['id']}.json"
        stored = json.loads(path.read_text())
        stored["manifest"]["trace"] = 5
        path.write_text(json.dumps(stored))
        out = self.show(runs, capsys)
        (line,) = [s for s in out.splitlines() if s.startswith("trace ")]
        assert line.startswith("trace 5: unreadable (")
        assert "mapping cache:" in out  # the dump still renders

    def test_record_file_path_renders_telemetry(self, tmp_path, capsys):
        """`runs show PATH` on a record file copied out of the ledger
        renders the same sections as the ledger lookup."""
        runs, trace, record = self.traced_run(tmp_path, capsys)
        expected = self.show(runs, capsys)
        copy = tmp_path / "attached.json"
        copy.write_text((runs / f"{record['id']}.json").read_text())
        assert main(["runs", "show", str(copy),
                     "--runs-dir", str(tmp_path / "elsewhere")]) == 0
        out = capsys.readouterr().out
        assert "\nmetrics dump:\n  mapping cache: " in out
        assert f"\ntrace {trace}:\n" in out
        sections = expected[expected.index("\nmetrics dump:"):]
        assert out.endswith(sections)

    def test_metrics_without_trace_renders_the_dump_only(
        self, tmp_path, capsys
    ):
        runs = tmp_path / "runs"
        prom = tmp_path / "run.prom"
        assert main(EVAL_ARGS + ["--runs-dir", str(runs),
                                 "--metrics", str(prom)]) == 0
        capsys.readouterr()
        (record,) = ledger.list_runs(runs)
        assert record["metrics"]
        out = self.show(runs, capsys)
        assert out.startswith(run_report(record) + "\nmetrics dump:\n")
        assert "hit rate" in out
        assert not [s for s in out.splitlines() if s.startswith("trace ")]

    @pytest.mark.parametrize(
        "dump",
        [
            {"metrics": [{"name": "x", "kind": "bogus", "data": 1}]},
            {"metrics": [{"name": "mapping_cache_gets_total",
                          "kind": "counter", "labels": [1], "data": 1}]},
            {"metrics": "junk"},
            [1, 2],
        ],
        ids=["unknown-kind", "bad-labels", "string-series", "list"],
    )
    def test_corrupted_dump_is_one_line(self, tmp_path, capsys, dump):
        runs, _, record = self.traced_run(tmp_path, capsys)
        path = runs / f"{record['id']}.json"
        stored = json.loads(path.read_text())
        stored["metrics"] = dump
        path.write_text(json.dumps(stored))
        out = self.show(runs, capsys)
        (line,) = [s for s in out.splitlines() if s.startswith("metrics dump")]
        assert line.startswith("metrics dump: does not merge (")
        assert "Traceback" not in out
        assert "root spans cover" in out  # the trace still renders

    def test_record_without_telemetry_prints_record_only(
        self, tmp_path, capsys
    ):
        runs = tmp_path / "runs"
        assert main(EVAL_ARGS + ["--runs-dir", str(runs)]) == 0
        capsys.readouterr()
        (record,) = ledger.list_runs(runs)
        assert "metrics" not in record
        assert self.show(runs, capsys) == run_report(record) + "\n"
