"""End-to-end: a multi-workload DSE run through the evaluation service
is bit-identical to serial, and shards pointed at one cache server
share cache hits mid-run."""

import pytest

from repro import WorkloadBuilder
from repro.core.strategy import OverlapMode
from repro.dse import DesignSpace, DSERunner, Scenario, WeightedWorkload
from repro.explore import Executor
from repro.mapping import SearchConfig
from repro.serve import CacheClient, CacheServer

OBJECTIVES = ("energy", "latency")


def small_workload(name: str, x: int, y: int):
    b = WorkloadBuilder(name, channels=1, x=x, y=y)
    t = b.input()
    t = b.conv("L1", t, k=8, f=3, pad=1)
    t = b.conv("L2", t, k=16, f=3, pad=1)
    b.conv("L3", t, k=8, f=3, pad=1)
    return b.build()


@pytest.fixture(scope="module")
def space():
    return DesignSpace(
        accelerators=("meta_proto_like_df",),
        tile_x=(4, 16),
        tile_y=(4, 8),
        modes=tuple(OverlapMode),
        fuse_depths=(None,),
    )


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        members=(
            WeightedWorkload(workload=small_workload("wl_a", 48, 32), weight=2.0),
            WeightedWorkload(workload=small_workload("wl_b", 40, 24)),
        )
    )


@pytest.fixture(scope="module")
def config():
    return SearchConfig(lpf_limit=5, budget=60)


def run_dse(space, scenario, executor, seed=3):
    runner = DSERunner(
        space, scenario, objectives=OBJECTIVES, executor=executor, seed=seed
    )
    return runner.run("exhaustive")


class TestServiceBitIdentity:
    def test_multi_workload_dse_through_service(self, space, scenario, config):
        serial = run_dse(space, scenario, Executor(jobs=1, search_config=config))
        with Executor(jobs=2, search_config=config) as ex:
            served = run_dse(space, scenario, ex)

        # Bit-identical outcome: same frontier (same encoding, same
        # order), same per-generation stats, same hypervolume numbers.
        assert served.frontier.to_json() == serial.frontier.to_json()
        assert [s.to_json() for s in served.generations] == [
            s.to_json() for s in serial.generations
        ]
        assert served.evaluations == serial.evaluations

        # The acceptance bar for the live cache: with every shard a
        # client of one cache server, at least one shard was served an
        # entry another shard produced *during* the run.  (A shard's
        # client never re-requests keys it put or fetched, so every
        # server-side hit is a cross-worker share; the table started
        # cold, so none of them came from a pre-warm.)
        with CacheServer() as server:
            with CacheClient(server.address) as client:
                with Executor(jobs=2, search_config=config, cache=client) as ex:
                    shared = run_dse(space, scenario, ex)
            assert server.cache.hits >= 1
        assert shared.frontier.to_json() == serial.frontier.to_json()

    def test_genetic_dse_through_service_matches_serial(
        self, space, scenario, config
    ):
        from repro.dse import GeneticSearch

        def strategy():
            return GeneticSearch(population=6, generations=2)

        serial = DSERunner(
            space,
            scenario,
            objectives=OBJECTIVES,
            executor=Executor(jobs=1, search_config=config),
            seed=11,
        ).run(strategy())
        with Executor(jobs=3, backend="service", search_config=config) as ex:
            served = DSERunner(
                space, scenario, objectives=OBJECTIVES, executor=ex, seed=11
            ).run(strategy())
        assert served.frontier.to_json() == serial.frontier.to_json()
        assert [s.to_json() for s in served.generations] == [
            s.to_json() for s in serial.generations
        ]
