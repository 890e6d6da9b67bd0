"""Evaluation-service smoke: a sweep through the evaluation service is
bit-identical to serial, in-process and with its shards sharing a real
standalone ``repro serve`` server in another OS process.

This is the CI gate for the serve subsystem: if the service backend,
the cache wire protocol, or the standalone server drift from the serial
evaluator in any way, these assertions catch it.
"""

import subprocess
import sys
import time

from repro.core.strategy import OverlapMode
from repro.explore import Executor, MappingCache, SweepSpec
from repro.mapping import SearchConfig
from repro.serve import CacheClient

from .conftest import write_output

TILES = ((8, 8), (32, 36), (60, 72))
MODES = (OverlapMode.FULLY_CACHED, OverlapMode.FULLY_RECOMPUTE)
CONFIG = SearchConfig(lpf_limit=5, budget=100)


def fsrcnn_spec() -> SweepSpec:
    return SweepSpec.tile_grid("meta_proto_like_df", "fsrcnn", TILES, MODES)


def totals(results) -> list:
    return [(r.result.energy_pj, r.result.latency_cycles) for r in results]


def test_service_backend_identical_to_serial(benchmark):
    """In-process smoke: Executor(backend='service') == serial, with
    the shards' new entries merged back into the executor's cache."""
    spec = fsrcnn_spec()
    serial = Executor(jobs=1, search_config=CONFIG).run(spec)

    def run():
        cache = MappingCache()
        with Executor(
            jobs=2, backend="service", search_config=CONFIG, cache=cache
        ) as executor:
            served = executor.run(spec)
            stats = executor.service.stats()
        return served, stats, len(cache)

    served, stats, harvested = benchmark.pedantic(run, rounds=1, iterations=1)
    assert totals(served) == totals(serial)
    assert harvested > 0  # map merged the shards' entries back
    write_output(
        "serve_smoke.txt",
        "service == serial on "
        f"{len(spec)} jobs; service stats: {stats}",
    )


def test_standalone_server_round_trip():
    """Spawn `repro serve` as a real subprocess, run the sweep against
    it with --cache-server semantics (a CacheClient-backed executor),
    and compare with serial."""
    spec = fsrcnn_spec()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--timeout", "600"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        # Startup contract: the first line announces the picked port.
        line = proc.stdout.readline()
        assert "cache server listening on " in line
        address = line.rsplit(" ", 1)[-1].strip()

        client = CacheClient(address)
        served = Executor(jobs=2, search_config=CONFIG, cache=client).run(spec)
        assert len(client) > 0  # the server's table filled

        # A second, cold executor against the same server: every
        # mapping is now a remote hit, and results stay identical.
        warm_client = CacheClient(address)
        t0 = time.perf_counter()
        warm = Executor(jobs=1, search_config=CONFIG, cache=warm_client).run(spec)
        warm_seconds = time.perf_counter() - t0
        assert warm_client.misses == 0

        client.shutdown_server()
        proc.wait(timeout=30)  # graceful exit after the remote shutdown
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=30)

    serial = Executor(jobs=1, search_config=CONFIG).run(spec)
    assert totals(served) == totals(serial)
    assert totals(warm) == totals(serial)
    assert proc.returncode == 0
    write_output(
        "serve_standalone.txt",
        f"standalone server: {len(spec)} jobs identical to serial; "
        f"warm re-run in {warm_seconds:.2f}s with 0 remote misses",
    )
