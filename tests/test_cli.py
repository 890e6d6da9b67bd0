"""Tests for the artifact-style command-line interface."""

import json

import pytest

from repro.cli import (
    DFMODE_ALIASES,
    _byte_size,
    _fuse_list,
    _mode_list,
    _name_list,
    _resolve_mode,
    _seed,
    build_cache_info_parser,
    build_dse_parser,
    build_parser,
    main,
)
from repro.core.strategy import OverlapMode


class TestParser:
    def test_required_args(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(
            ["--accelerator", "meta_proto_like_df", "--workload", "fsrcnn"]
        )
        assert args.tilex == (16,) and args.tiley == (8,)
        assert args.lpf_limit == 6
        assert args.jobs == 1 and args.cache is None
        assert args.seed == 0  # the shared seed option is always plumbed
        assert args.engine == "batch"  # vectorized engine is the default

    def test_engine_choices(self):
        base = ["--accelerator", "meta_proto_like_df", "--workload", "fsrcnn"]
        args = build_parser().parse_args(base + ["--engine", "scalar"])
        assert args.engine == "scalar"
        with pytest.raises(SystemExit):
            build_parser().parse_args(base + ["--engine", "turbo"])

    def test_tile_lists(self):
        args = build_parser().parse_args(
            [
                "--accelerator", "meta_proto_like_df",
                "--workload", "fsrcnn",
                "--tilex", "4,16,60",
                "--tiley", "72",
            ]
        )
        assert args.tilex == (4, 16, 60) and args.tiley == (72,)

    def test_bad_tile_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "--accelerator", "meta_proto_like_df",
                    "--workload", "fsrcnn",
                    "--tilex", "4,banana",
                ]
            )

    def test_unknown_accelerator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--accelerator", "gpu", "--workload", "fsrcnn"]
            )


class TestValidators:
    def test_seed_rejects_negative_and_junk(self):
        assert _seed("0") == 0 and _seed("42") == 42
        with pytest.raises(Exception):
            _seed("-1")
        with pytest.raises(Exception):
            _seed("banana")

    def test_name_list(self):
        assert _name_list("energy,latency") == ("energy", "latency")
        assert _name_list(" a , b ") == ("a", "b")
        with pytest.raises(Exception):
            _name_list(",")

    def test_mode_list_accepts_names_and_artifact_integers(self):
        assert _mode_list("fully_cached,1") == (
            OverlapMode.FULLY_CACHED,
            OverlapMode.H_CACHED_V_RECOMPUTE,
        )

    def test_mode_list_rejects_unknown_as_argparse_error(self):
        """Inside a type= callable the failure must be an
        ArgumentTypeError (usage + exit 2), not a bare SystemExit."""
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _mode_list("bogus")
        with pytest.raises(SystemExit):
            build_dse_parser().parse_args(
                ["--workload", "fsrcnn", "--modes", "bogus"]
            )

    def test_fuse_list(self):
        assert _fuse_list("auto,1,4") == (None, 1, 4)
        with pytest.raises(Exception):
            _fuse_list("0")
        with pytest.raises(Exception):
            _fuse_list("sometimes")


class TestDseParser:
    def test_defaults(self):
        args = build_dse_parser().parse_args(["--workload", "resnet18"])
        assert args.strategy == "genetic"
        assert args.objectives == ("energy",)
        assert args.accelerators == ("meta_proto_like_df",)
        assert args.tilex == (1, 4, 16, 60, 240, 960)  # paper grid
        assert args.fuse_depths == (None,)
        assert args.seed == 0 and args.jobs == 1
        assert args.max_evals is None

    def test_requires_exactly_one_workload_option(self):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["dse"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(
                [
                    "dse",
                    "--workload", "fsrcnn",
                    "--workloads", "fsrcnn,mccnn",
                ]
            )

    def test_byte_size_parsing(self):
        assert _byte_size("4096") == 4096
        assert _byte_size("64K") == 64 * 1024
        assert _byte_size("1.5MiB") == int(1.5 * 1024 * 1024)
        assert _byte_size("2gb") == 2 * 1024**3
        assert _byte_size("fit") == "fit"
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _byte_size("huge")
        with pytest.raises(argparse.ArgumentTypeError):
            _byte_size("0")

    def test_unknown_scenario_workload_rejected(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["dse", "--workloads", "fsrcnn,nonesuch"])

    def test_unknown_accelerator_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["dse", "--workload", "fsrcnn", "--accelerators", "gpu"]
            )

    def test_unknown_objective_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["dse", "--workload", "fsrcnn", "--objectives", "carbon"]
            )

    def test_duplicate_axis_values_exit_cleanly(self):
        """Duplicate axis values are a CLI error, not a traceback."""
        with pytest.raises(SystemExit, match="duplicates"):
            main(["dse", "--workload", "fsrcnn", "--tilex", "4,4"])


class TestDseMain:
    def test_exhaustive_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "dse.json"
        csv_path = tmp_path / "frontier.csv"
        code = main(
            [
                "dse",
                "--workload", "mobilenet_v1",
                "--strategy", "exhaustive",
                "--objectives", "energy,latency",
                "--tilex", "14,28",
                "--tiley", "14",
                "--modes", "fully_cached",
                "--budget", "40",
                "--lpf-limit", "5",
                "--seed", "0",
                "--csv", str(csv_path),
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "frontier size" in captured
        assert "energy [mJ]" in captured

        summary = json.loads(out.read_text())
        assert summary["evaluations"] == 2
        assert summary["objectives"] == ["energy", "latency"]
        assert summary["frontier"]["entries"]
        assert csv_path.read_text().startswith(
            "accelerator,tile_x,tile_y,mode,fuse_depth,partition,"
            "energy,latency,violation"
        )
        assert "hypervolume" in captured  # convergence table is printed

    def test_constrained_scenario_end_to_end(self, tmp_path, capsys):
        """A 2-workload scenario with a tight memory budget: the run
        reports the infeasible designs and an all-feasible frontier."""
        out = tmp_path / "dse.json"
        code = main(
            [
                "dse",
                "--workloads", "mobilenet_v1:2,fsrcnn",
                "--strategy", "exhaustive",
                "--objectives", "energy",
                "--tilex", "14",
                "--tiley", "14,112",
                "--modes", "fully_cached",
                "--budget", "40",
                "--lpf-limit", "5",
                "--memory-budget", "fit",
                "--show-infeasible",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "mobilenet_v1:2,fsrcnn" in captured
        assert "constraints: activations fit" in captured
        assert "infeasible designs" in captured
        summary = json.loads(out.read_text())
        assert summary["workload"] == "mobilenet_v1:2,fsrcnn"
        assert summary["constraints"] == [["memory_budget", None]]
        assert summary["evaluations"] == 2
        assert summary["generations"]


class TestDsePartitionOptions:
    def test_partition_list_parsing(self):
        from repro.cli import _partition_list

        assert _partition_list("auto;1;1,3;all") == (None, (1,), (1, 3), ())
        assert _partition_list("3,1") == ((1, 3),)  # normalized
        import argparse

        for bad in ("", ";;", "banana", "0", "1,-2"):
            with pytest.raises(argparse.ArgumentTypeError):
                _partition_list(bad)

    def test_partition_genes_and_stacks_conflict(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "dse", "--workload", "mccnn",
                    "--partition-genes", "--stacks", "auto",
                ]
            )

    def test_fuse_depths_and_partition_genes_conflict(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "dse", "--workload", "mccnn",
                    "--partition-genes", "--fuse-depths", "auto,2",
                ]
            )

    def test_out_of_range_stacks_cut_rejected(self):
        # mccnn has 4 branch-free segments: cuts live in 1..3.
        with pytest.raises(SystemExit, match="within 1..3"):
            main(["dse", "--workload", "mccnn", "--stacks", "9"])

    def test_stacks_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "dse.json"
        csv_path = tmp_path / "frontier.csv"
        code = main(
            [
                "dse",
                "--workload", "mccnn",
                "--strategy", "exhaustive",
                "--objectives", "energy",
                "--tilex", "16",
                "--tiley", "4",
                "--modes", "fully_cached",
                "--budget", "40",
                "--lpf-limit", "4",
                "--stacks", "auto;1,3",
                "--csv", str(csv_path),
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "partition genes: mccnn: 4 segments" in captured
        summary = json.loads(out.read_text())
        assert summary["evaluations"] == 2
        points = [
            entry["point"] for entry in summary["frontier"]["entries"]
        ]
        assert any("partition" in p for p in points) or len(points) == 1
        assert "partition" in csv_path.read_text().splitlines()[0]

    def test_partition_genes_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "dse.json"
        code = main(
            [
                "dse",
                "--workload", "mccnn",
                "--strategy", "genetic",
                "--population", "4",
                "--generations", "2",
                "--objectives", "energy",
                "--tilex", "16",
                "--tiley", "4",
                "--modes", "fully_cached",
                "--budget", "40",
                "--lpf-limit", "4",
                "--partition-genes",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "axis = all partitions over 4 branch-free segments" in captured
        summary = json.loads(out.read_text())
        assert summary["evaluations"] >= 1


class TestCacheInfoMain:
    def test_reports_saved_cache(self, tmp_path, capsys):
        cache_path = tmp_path / "loma.json"
        assert main(
            [
                "--accelerator", "meta_proto_like_df",
                "--workload", "mobilenet_v1",
                "--tilex", "14",
                "--tiley", "14",
                "--budget", "40",
                "--lpf-limit", "5",
                "--cache", str(cache_path),
            ]
        ) == 0
        capsys.readouterr()

        assert main(["cache-info", str(cache_path)]) == 0
        captured = capsys.readouterr().out
        assert "status:  ok" in captured
        assert "entries:" in captured
        assert "hits" in captured

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["cache-info", str(tmp_path / "nope.json")]) == 1
        assert "missing" in capsys.readouterr().out

    def test_unusable_file_fails(self, tmp_path, capsys):
        """Corrupt and stale-version files exit nonzero so scripts can
        gate on the status."""
        torn = tmp_path / "torn.json"
        torn.write_text("not json{")
        assert main(["cache-info", str(torn)]) == 1
        assert "corrupt" in capsys.readouterr().out

        stale = tmp_path / "stale.json"
        stale.write_text('{"format": 999, "entries": {}}')
        assert main(["cache-info", str(stale)]) == 1
        assert "stale-version" in capsys.readouterr().out

    def test_requires_path_or_server(self):
        # the parser accepts zero positionals (server mode) ...
        args = build_cache_info_parser().parse_args([])
        assert args.path is None and args.cache_server is None
        # ... but the command demands one of the two sources
        with pytest.raises(SystemExit, match="cache file path"):
            main(["cache-info"])

    def test_path_and_server_conflict(self):
        with pytest.raises(SystemExit, match="not both"):
            main(["cache-info", "some.json", "--cache-server", "x:1"])

    def test_unreachable_server_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unreachable"):
            main(["cache-info", "--cache-server", "127.0.0.1:1"])

    def test_live_server_stats(self, capsys):
        from repro.serve import CacheServer

        with CacheServer() as server:
            host, port = server.address
            assert main(["cache-info", "--cache-server", f"{host}:{port}"]) == 0
        out = capsys.readouterr().out
        assert "size:        0 entries" in out
        assert "requests:    get=0, put=0" in out
        assert "snapshots:   0 written" in out


class TestModeResolution:
    def test_names(self):
        assert _resolve_mode("fully_cached") is OverlapMode.FULLY_CACHED

    def test_artifact_integers(self):
        assert _resolve_mode("0") is OverlapMode.FULLY_RECOMPUTE
        assert _resolve_mode("1") is OverlapMode.H_CACHED_V_RECOMPUTE
        assert _resolve_mode("2") is OverlapMode.FULLY_CACHED
        assert set(DFMODE_ALIASES) == {"0", "1", "2"}

    def test_unknown_mode_exits(self):
        with pytest.raises(SystemExit):
            _resolve_mode("3")


class TestMain:
    def test_end_to_end_with_json_output(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            [
                "--accelerator", "meta_proto_like_df",
                "--workload", "mobilenet_v1",
                "--mode", "2",
                "--tilex", "14",
                "--tiley", "14",
                "--budget", "40",
                "--lpf-limit", "5",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "mobilenet_v1 on meta_proto_like_df" in captured

        summary = json.loads(out.read_text())
        assert summary["energy_pj"] > 0
        assert summary["latency_cycles"] > 0
        assert summary["stacks"]
        assert set(summary["accesses_by_tier"]) >= {"LB", "GB", "DRAM"}

    def test_sweep_with_persistent_cache(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        cache = tmp_path / "loma_cache.json"
        argv = [
            "--accelerator", "meta_proto_like_df",
            "--workload", "mobilenet_v1",
            "--mode", "fully_cached",
            "--tilex", "14,28",
            "--tiley", "14",
            "--budget", "40",
            "--lpf-limit", "5",
            "--cache", str(cache),
            "--output", str(out),
        ]
        assert main(argv) == 0
        assert cache.exists()
        first = json.loads(out.read_text())
        assert len(first["points"]) == 2
        assert first["best_strategy"]
        captured = capsys.readouterr().out
        assert "best (energy):" in captured

        # A second, cache-warm run reproduces the sweep exactly.
        assert main(argv) == 0
        second = json.loads(out.read_text())
        assert second == first


class TestConstraintOptionValidation:
    def test_non_finite_caps_rejected(self):
        """NaN/inf caps must be CLI errors, never silently-disabled
        constraints (max(0.0, nan) is 0.0 => everything 'feasible')."""
        for bad in ("nan", "inf", "-1", "0"):
            with pytest.raises(SystemExit):
                build_dse_parser().parse_args(
                    ["--workload", "fsrcnn", "--latency-cap", bad]
                )

    def test_non_finite_byte_sizes_are_argparse_errors(self):
        import argparse

        for bad in ("inf", "1e999", "nan"):
            with pytest.raises(argparse.ArgumentTypeError):
                _byte_size(bad)


class TestServeParser:
    def test_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1" and args.port == 0
        assert args.cache is None and args.timeout is None
        assert args.snapshot_interval == 30.0

    def test_rejects_bad_interval(self):
        from repro.cli import build_serve_parser

        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--snapshot-interval", "0"])

    @pytest.mark.parametrize(
        "argv", [["--port", "70000"], ["--port", "-1"], ["--metrics-port", "0"]]
    )
    def test_rejects_bad_port_and_removed_options(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *argv])
        assert excinfo.value.code == 2
        assert "cache server listening" not in capsys.readouterr().out


class TestServeMain:
    def test_serve_with_timeout_and_persistence(self, tmp_path, capsys):
        cache_file = tmp_path / "served.json"
        code = main(
            ["serve", "--port", "0", "--timeout", "0.3", "--cache", str(cache_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache server listening on 127.0.0.1:" in out
        assert "0 entries loaded" in out
        assert "cache server stopped" in out
        assert cache_file.exists()  # final snapshot written

    def test_remote_shutdown_ends_serve_after_final_snapshot(
        self, tmp_path, capsys
    ):
        """A client 'shutdown' op stops a foreground server promptly —
        and the server's exit still waits for the final snapshot, so
        entries sent just before shutdown are on disk when it returns."""
        import threading

        from repro.mapping.cache import MappingCache
        from repro.serve import CacheClient

        from .serve.test_cache_server import make_result

        cache_file = tmp_path / "served.json"
        done = []

        def run_server():
            done.append(
                main(
                    [
                        "serve",
                        "--port", "0",
                        "--timeout", "30",
                        "--cache", str(cache_file),
                    ]
                )
            )

        thread = threading.Thread(target=run_server)
        thread.start()
        address = None
        for _ in range(100):
            out = capsys.readouterr().out
            for line in out.splitlines():
                if "listening on" in line:
                    address = line.rsplit(" ", 1)[-1]
            if address:
                break
            threading.Event().wait(0.05)
        assert address is not None
        client = CacheClient(address)
        client.put("last-second", make_result(1))
        client.shutdown_server()
        thread.join(timeout=10)
        assert done == [0]
        assert MappingCache(cache_file).get("last-second") == make_result(1)


class TestCacheServerOptions:
    def test_cache_and_cache_server_conflict(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "--accelerator", "meta_proto_like_df",
                    "--workload", "fsrcnn",
                    "--cache", "x.json",
                    "--cache-server", "127.0.0.1:1",
                ]
            )

    def test_bad_address_exits_cleanly(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(
                [
                    "--accelerator", "meta_proto_like_df",
                    "--workload", "fsrcnn",
                    "--cache-server", "nonsense",
                ]
            )

    def test_unreachable_server_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unreachable"):
            main(
                [
                    "--accelerator", "meta_proto_like_df",
                    "--workload", "fsrcnn",
                    "--cache-server", "127.0.0.1:9",  # discard port: nothing listens
                ]
            )

    def test_sweep_through_live_server(self, capsys):
        """A classic sweep with --cache-server: the shared table fills
        and the CLI reports the server's stats."""
        from repro.mapping.cache import MappingCache
        from repro.serve import CacheServer

        shared = MappingCache()
        with CacheServer(cache=shared) as server:
            code = main(
                [
                    "--accelerator", "meta_proto_like_df",
                    "--workload", "fsrcnn",
                    "--tilex", "4,16",
                    "--tiley", "4",
                    "--budget", "40",
                    "--lpf-limit", "4",
                    "--cache-server", server.describe(),
                ]
            )
        assert code == 0
        assert len(shared) > 0
        out = capsys.readouterr().out
        assert "cache server 127.0.0.1:" in out
        assert "best (energy)" in out


class TestDseServiceAndReference:
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

    def test_dse_through_service_backend_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.json"
        service_out = tmp_path / "service.json"
        assert main(self.DSE_ARGS + ["--output", str(serial_out)]) == 0
        assert (
            main(
                self.DSE_ARGS
                + ["--jobs", "2", "--output", str(service_out)]
            )
            == 0
        )
        serial = json.loads(serial_out.read_text())
        served = json.loads(service_out.read_text())
        assert served["frontier"] == serial["frontier"]
        assert served["generations"] == serial["generations"]

    def test_reference_tracking_prints_epsilon(self, tmp_path, capsys):
        reference = tmp_path / "ref.json"
        assert main(self.DSE_ARGS + ["--output", str(reference)]) == 0
        capsys.readouterr()
        assert main(self.DSE_ARGS + ["--reference", str(reference)]) == 0
        out = capsys.readouterr().out
        assert "epsilon" in out

    def test_bad_reference_exits_cleanly(self, tmp_path):
        bad = tmp_path / "ref.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit, match="not a frontier file"):
            main(self.DSE_ARGS + ["--reference", str(bad)])

    def test_plot_skips_gracefully_without_matplotlib(self, tmp_path, capsys):
        from repro.analysis import HAVE_MATPLOTLIB

        plot = tmp_path / "plot.png"
        code = main(self.DSE_ARGS + ["--plot", str(plot)])
        assert code == 0
        out = capsys.readouterr().out
        if HAVE_MATPLOTLIB:
            assert plot.exists() and f"wrote {plot}" in out
        else:
            assert not plot.exists()
            assert "skipping --plot" in out
