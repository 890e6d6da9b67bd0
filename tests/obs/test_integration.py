"""Telemetry wired through the stack: fork-merged worker registries,
tracing-on bit-identity, telemetry-neutral checkpoints, and the CLI
surface."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.strategy import OverlapMode
from repro.dse import DesignSpace, DSERunner
from repro.explore import Executor
from repro.mapping import SearchConfig
from repro.obs import parse_prometheus, trace_coverage, trace_spans

SPACE = dict(
    accelerators=("meta_proto_like_df",),
    tile_x=(4, 16),
    tile_y=(4,),
    modes=(OverlapMode.FULLY_CACHED,),
)
CONFIG = SearchConfig(lpf_limit=5, budget=60)


def run_dse(backend=None, jobs=1, checkpoint=None):
    with Executor(
        jobs=jobs, search_config=CONFIG, backend=backend
    ) as executor:
        runner = DSERunner(
            DesignSpace(**SPACE),
            "fsrcnn",
            executor=executor,
            checkpoint=checkpoint,
            seed=0,
        )
        return runner.run("exhaustive")


def frontier_key(result):
    return [
        (entry.point.key(), entry.values)
        for entry in result.frontier.entries
    ]


class TestForkMerge:
    def test_workers_fold_into_parent_registry(self):
        """Fork-merge: service shards run with clean registries and
        their LOMA counters land in the parent."""
        obs.enable()  # metrics-only
        run_dse(jobs=2)
        registry = obs.metrics()
        # The searches happened in shard processes, yet the parent
        # registry sees them via the harvest/absorb round trip.
        assert registry.value("loma_searches_total") > 0
        assert registry.value("loma_orderings_evaluated_total") > 0
        hit = registry.value("mapping_cache_gets_total", result="hit")
        miss = registry.value("mapping_cache_gets_total", result="miss")
        assert hit + miss > 0
        assert registry.value("executor_jobs_total", backend="service") == 2
        assert registry.value("dse_generations_total") == 1
        shard_jobs = sum(
            m.value for m in registry if m.name == "service_jobs_total"
        )
        assert shard_jobs == 2  # one per distinct job

    def test_disabled_parent_ships_nothing(self):
        run_dse(jobs=2)
        assert len(obs.metrics()) == 0


class TestIdentity:
    def test_tracing_on_service_matches_telemetry_off_serial(self, tmp_path):
        """The acceptance contract: serial with telemetry off and the
        service backend with tracing on produce bit-identical frontiers."""
        baseline = run_dse()
        assert not obs.enabled

        obs.enable(trace=tmp_path / "t.jsonl")
        traced = run_dse(backend="service", jobs=2)
        obs.disable()

        assert frontier_key(traced) == frontier_key(baseline)
        assert traced.evaluated.keys() == baseline.evaluated.keys()
        for key, (_, values, violation) in baseline.evaluated.items():
            assert traced.evaluated[key][1] == values
            assert traced.evaluated[key][2] == violation

        spans = trace_spans(str(tmp_path / "t.jsonl"))
        names = {s["name"] for s in spans}
        assert {"dse.run", "dse.generation", "executor.run"} <= names
        assert trace_coverage(spans) >= 0.95

    def test_metrics_only_serial_identity(self):
        baseline = run_dse()
        obs.enable()
        traced = run_dse()
        obs.disable()
        assert frontier_key(traced) == frontier_key(baseline)


class TestCheckpointTelemetry:
    def test_checkpoint_bytes_identical_with_telemetry_on_and_off(
        self, tmp_path
    ):
        """Telemetry leaves no trace in the checkpoint: the run's ledger
        record holds its metrics dump."""
        off = tmp_path / "off.json"
        run_dse(checkpoint=off)

        obs.enable()
        on = tmp_path / "on.json"
        run_dse(checkpoint=on)
        obs.disable()
        assert on.read_bytes() == off.read_bytes()

    def test_resume_across_telemetry_modes(self, tmp_path):
        """A telemetry-on checkpoint resumes cleanly with telemetry off."""
        checkpoint = tmp_path / "ck.json"
        obs.enable()
        first = run_dse(checkpoint=checkpoint)
        obs.reset()
        resumed = run_dse(checkpoint=checkpoint)
        assert resumed.evaluations == 0  # everything served from memo
        assert resumed.total_evaluations == first.total_evaluations
        assert frontier_key(resumed) == frontier_key(first)


class TestCLI:
    DSE_ARGS = [
        "dse",
        "--workload", "fsrcnn",
        "--strategy", "exhaustive",
        "--tilex", "4,16",
        "--tiley", "4",
        "--modes", "fully_cached",
        "--budget", "60",
        "--lpf-limit", "5",
    ]

    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        prom = tmp_path / "run.prom"
        code = main(
            self.DSE_ARGS
            + ["--trace", str(trace), "--metrics", str(prom)]
        )
        assert code == 0
        assert not obs.enabled  # the CLI resets the layer on exit
        out = capsys.readouterr().out
        assert f"wrote {prom}" in out
        assert f"wrote {trace}" in out

        spans = trace_spans(str(trace))
        assert any(s["name"] == "repro.dse" for s in spans)
        assert trace_coverage(spans) >= 0.95

        values = parse_prometheus(prom.read_text())
        assert values["loma_orderings_evaluated_total"] > 0
        assert values["dse_evaluations"] == 2

    def test_metrics_json_dump(self, tmp_path):
        dump = tmp_path / "run.json"
        assert main(self.DSE_ARGS + ["--metrics", str(dump)]) == 0
        data = json.loads(dump.read_text())
        assert any(
            m["name"] == "loma_searches_total" for m in data["metrics"]
        )

    def test_bad_sample_fraction_rejected(self):
        with pytest.raises(SystemExit):
            main(self.DSE_ARGS + ["--trace", "t.jsonl", "--trace-sample", "0"])

    def test_runs_show_renders_run_telemetry(self, tmp_path, capsys):
        """A telemetry-on DSE record renders its metrics dump and its
        trace through `repro runs show`."""
        runs = tmp_path / "runs"
        trace = tmp_path / "run.jsonl"
        prom = tmp_path / "run.prom"
        main(
            self.DSE_ARGS
            + ["--trace", str(trace), "--metrics", str(prom),
               "--runs-dir", str(runs)]
        )
        capsys.readouterr()

        assert main(["runs", "show", "--runs-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "mapping cache:" in out
        assert "hit rate" in out
        assert "root spans cover" in out
        assert "dse.run" in out

    def test_classic_evaluate_traces_too(self, tmp_path, capsys):
        trace = tmp_path / "eval.jsonl"
        code = main(
            [
                "--accelerator", "meta_proto_like_df",
                "--workload", "fsrcnn",
                "--tilex", "16",
                "--tiley", "8",
                "--budget", "60",
                "--lpf-limit", "5",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        spans = trace_spans(str(trace))
        assert any(s["name"] == "repro.evaluate" for s in spans)
        assert trace_coverage(spans) >= 0.95
