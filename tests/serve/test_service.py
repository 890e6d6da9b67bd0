"""EvalService tests: lifecycle, in-batch dedup, error propagation,
shard death, and the executor's service backend."""

import time

import pytest

from repro import obs
from repro.core.strategy import DFStrategy, OverlapMode
from repro.explore import EvalJob, Executor, MappingCache, SweepSpec
from repro.explore.executor import _JobRunner
from repro.serve import (
    CacheClient,
    CacheServer,
    EvalService,
    ServiceError,
    job_key,
)
from repro.serve.service import _run_chunk, chunk_sizes

from ..conftest import make_tiny_workload

TILES = ((4, 4), (16, 16))
MODES = (OverlapMode.FULLY_CACHED, OverlapMode.FULLY_RECOMPUTE)


def tiny_job(tile: int = 8, tag: str = "", workload="fsrcnn") -> EvalJob:
    return EvalJob(
        accelerator="meta_proto_like_df",
        workload=workload,
        strategy=DFStrategy(tile_x=tile, tile_y=tile),
        tag=tag,
    )


def wait_alive(worker) -> None:
    for _ in range(100):
        if worker.is_alive():
            return
        time.sleep(0.05)


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_workload()


@pytest.fixture(scope="module")
def grid_spec(tiny):
    return SweepSpec.tile_grid("meta_proto_like_df", tiny, TILES, MODES)


@pytest.fixture(scope="module")
def serial_results(grid_spec, fast_config):
    return Executor(jobs=1, search_config=fast_config).run(grid_spec)


class TestJobKey:
    def test_tag_does_not_split_identical_work(self):
        assert job_key(tiny_job(tag="a")) == job_key(tiny_job(tag="b"))

    def test_different_strategies_differ(self):
        assert job_key(tiny_job(4)) != job_key(tiny_job(8))

    def test_object_refs_key_by_identity(self, tiny):
        job = EvalJob(
            accelerator="meta_proto_like_df",
            workload=tiny,
            strategy=DFStrategy(tile_x=4, tile_y=4),
        )
        assert job_key(job) == job_key(job)
        other = EvalJob(
            accelerator="meta_proto_like_df",
            workload=make_tiny_workload(),
            strategy=DFStrategy(tile_x=4, tile_y=4),
        )
        assert job_key(job) != job_key(other)


class TestLifecycle:
    def test_map_before_start_raises(self):
        with pytest.raises(RuntimeError, match="start"):
            EvalService(shards=1).map([tiny_job()])

    def test_start_stop_idempotent(self):
        service = EvalService(shards=1)
        assert service.start() is service
        assert service.start() is service
        assert service.running
        service.stop()
        service.stop()
        assert not service.running

    def test_invalid_args_rejected(self):
        for shards in (0, -1):
            with pytest.raises(ValueError, match="shards"):
                EvalService(shards=shards)

    def test_shard_local_caches_start_no_server(self, tiny, fast_config, monkeypatch):
        """With a plain MappingCache each shard searches against its own
        local cache: no cache server is started, so none is published."""
        def refuse(server):
            raise AssertionError("EvalService started a CacheServer")

        monkeypatch.setattr(CacheServer, "start", refuse)
        with EvalService(shards=1, search_config=fast_config) as service:
            service.map([tiny_job(4, workload=tiny)])
            assert service.server_address is None

    def test_surface_is_map_only(self):
        """map() is the one way in: the async surface is gone."""
        import repro.serve as serve

        for name in ("submit", "gather"):
            assert not hasattr(EvalService, name)
        for name in ("ServiceFuture", "ServiceOverloaded"):
            assert name not in serve.__all__
            assert not hasattr(serve, name)
        with pytest.raises(TypeError):
            EvalService(shards=1, max_pending=4)


class TestDedup:
    def test_identical_jobs_coalesce(self, fast_config):
        with EvalService(shards=2, search_config=fast_config) as service:
            first, second = service.map([tiny_job(tag="x"), tiny_job(tag="y")])
            assert service.submitted == 1
            assert service.coalesced == 1
        assert first.total == second.total

    def test_distinct_jobs_do_not_coalesce(self, tiny, fast_config):
        with EvalService(shards=2, search_config=fast_config) as service:
            service.map([tiny_job(4, workload=tiny), tiny_job(16, workload=tiny)])
            assert service.submitted == 2
            assert service.coalesced == 0

    def test_stats_shape(self, tiny, fast_config):
        job = tiny_job(4, workload=tiny)
        with EvalService(shards=1, search_config=fast_config) as service:
            service.map([job, job])
            stats = service.stats()
        assert stats["submitted"] == 1
        assert stats["coalesced"] == 1
        assert stats["completed"] == 1
        assert stats["cache"]["misses"] >= stats["cache"]["size"] > 0


class TestEvaluation:
    def test_map_matches_serial_in_order(
        self, grid_spec, fast_config, serial_results
    ):
        with EvalService(shards=2, search_config=fast_config) as service:
            results = service.map(list(grid_spec))
        assert len(results) == len(serial_results)
        for served, serial in zip(results, serial_results):
            assert served.total == serial.result.total

    def test_errors_propagate_and_service_survives(self, tiny, fast_config):
        """A failed job raises only once its batch is back, and its
        batch-mate's result never leaks into the next call."""
        bad = EvalJob(
            accelerator="no_such_accelerator",
            workload="fsrcnn",
            strategy=DFStrategy(tile_x=4, tile_y=4),
        )
        good = tiny_job(4, workload=tiny)
        other = tiny_job(16, workload=tiny)
        expected = Executor(jobs=1, search_config=fast_config).run([other])
        with EvalService(shards=1, search_config=fast_config) as service:
            with pytest.raises(ServiceError, match="shard 0"):
                service.map([bad, good])
            assert service.errors == 1
            # The shard is still alive and evaluating.
            (result,) = service.map([other])
            assert result.total == expected[0].result.total
            assert service.errors == 1
            assert service.stats()["completed"] == 2

    def test_first_failure_in_job_order_after_whole_batch(self, tiny, fast_config):
        """With two failures in one batch, map() waits for every job and
        then raises the failure that comes first in job order."""
        def bad(accelerator):
            return EvalJob(
                accelerator=accelerator,
                workload="fsrcnn",
                strategy=DFStrategy(tile_x=4, tile_y=4),
            )

        jobs = [bad("no_such_first"), tiny_job(4, workload=tiny), bad("no_such_last")]
        with EvalService(shards=1, search_config=fast_config) as service:
            with pytest.raises(ServiceError, match="no_such_first"):
                service.map(jobs)
            assert service.errors == 2
            assert service.completed == 1

    def test_empty_batch_submits_nothing(self):
        with EvalService(shards=1) as service:
            assert service.map([]) == []
            assert service.submitted == 0
            assert service.coalesced == 0

    def test_shard_ships_each_telemetry_delta_once(self, tiny, fast_config):
        """A shard clears its registry after every harvest: one shard
        evaluating three jobs over two batches ships three job counts,
        not a running total with each result."""
        obs.enable()  # metrics-only
        try:
            with EvalService(shards=1, search_config=fast_config) as service:
                service.map([tiny_job(4, workload=tiny), tiny_job(16, workload=tiny)])
                service.map([tiny_job(8, workload=tiny)])
            registry = obs.metrics()
            assert registry.value("service_jobs_total", shard=0) == 3
            for name in ("service_queue_wait_seconds", "service_exec_seconds"):
                assert registry.value(name, shard=0)["count"] == 3
        finally:
            obs.reset()

    def test_late_result_of_earlier_batch_is_dropped(self, tiny, fast_config):
        """A result that arrives after its batch was given up on carries
        an old job id; the next map() skips it."""
        first, second = tiny_job(4, workload=tiny), tiny_job(16, workload=tiny)
        expected = Executor(jobs=1, search_config=fast_config).run([second])
        with EvalService(shards=1, search_config=fast_config) as service:
            (late,) = service.map([first])
            service._result_queue.put(([0], [(late, None)], {}, (0, 0), None))
            (result,) = service.map([second])
            assert service.completed == 2
        assert result.total == expected[0].result.total


class TestShardDeath:
    def test_dead_shard_surfaces_as_error_not_hang(self, fast_config):
        """map() watches shard liveness: a killed worker turns into a
        ServiceError for the caller instead of an eternal block."""
        with EvalService(shards=1, search_config=fast_config) as service:
            # Let the shard come up, then kill it out from under us.
            worker = service._workers[0]
            wait_alive(worker)
            worker.terminate()
            worker.join(timeout=10)
            assert not worker.is_alive()
            with pytest.raises(ServiceError, match="died"):
                service.map([tiny_job()])

    def test_death_report_names_shard_and_unfinished_jobs(self, fast_config):
        """The crash log identifies the casualty and its work: the error
        names the shard index, its process and the unfinished job, and
        the death is counted exactly once."""
        obs.enable()  # metrics-only: the death should also be counted
        try:
            with EvalService(shards=1, search_config=fast_config) as service:
                worker = service._workers[0]
                wait_alive(worker)
                worker.terminate()
                worker.join(timeout=10)
                assert not worker.is_alive()
                job = tiny_job()
                with pytest.raises(ServiceError) as err:
                    service.map([job])
                message = str(err.value)
                assert "shard 0" in message
                assert worker.name in message
                assert job.describe() in message
                assert service.shard_deaths == 1
                assert service.stats()["shard_deaths"] == 1
                # A later map over the same corpse does not recount.
                with pytest.raises(ServiceError):
                    service.map([tiny_job(tile=16)])
                assert service.shard_deaths == 1
            assert obs.metrics().value("service_shard_deaths_total") == 1
        finally:
            obs.reset()


class TestExecutorServiceBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Executor(backend="threads")

    def test_service_backend_identical_to_serial(
        self, grid_spec, fast_config, serial_results
    ):
        with Executor(jobs=2, backend="service", search_config=fast_config) as ex:
            served = ex.run(grid_spec)
        assert [r.index for r in served] == [r.index for r in serial_results]
        for s, p in zip(serial_results, served):
            assert s.job == p.job
            assert s.result.total == p.result.total

    def test_service_persists_across_runs_and_harvests_live(
        self, grid_spec, fast_config
    ):
        cache = MappingCache()
        with Executor(
            jobs=2, backend="service", search_config=fast_config, cache=cache
        ) as ex:
            assert ex.service is None  # lazy: nothing started yet
            first = ex.run(grid_spec)
            service = ex.service
            assert service is not None
            assert len(cache) > 0  # map merged the shards' entries back
            again = ex.run(grid_spec)
            assert ex.service is service  # same warm service, same shards
            for a, b in zip(first, again):
                assert a.result.total == b.result.total
        assert ex.service is None  # context exit stopped it

    def test_explicit_serial_backend(self, grid_spec, fast_config, serial_results):
        results = Executor(
            jobs=4, backend="serial", search_config=fast_config
        ).run(grid_spec)
        for s, p in zip(serial_results, results):
            assert s.result.total == p.result.total

    def test_cache_client_routes_shards_to_external_server(
        self, grid_spec, fast_config
    ):
        """Executor(cache=CacheClient): the shards connect straight to
        the external server — its table fills, and the shards' lookups
        are counted in the caller's client."""
        shared = MappingCache()
        with CacheServer(cache=shared) as srv:
            with CacheClient(srv.address) as client:
                with Executor(
                    jobs=2, search_config=fast_config, cache=client
                ) as ex:
                    ex.run(grid_spec)
                    assert ex.service.server_address == srv.address
                # Every stored entry was put after a miss in some shard.
                assert client.misses >= len(shared) > 0


class TestChunks:
    """``map`` queues each batch's distinct jobs in shrinking job-order
    chunks, grouped by accelerator; a shard runs a chunk as one batch."""

    def test_chunk_sizes_shrink_to_single_jobs(self):
        assert chunk_sizes(75, 2) == [19, 14, 11, 8, 6, 5, 3, 3, 2, 1, 1, 1, 1]
        assert chunk_sizes(0, 2) == []
        for shards in (1, 2, 3, 8):
            for count in range(1, 60):
                sizes = chunk_sizes(count, shards)
                assert sum(sizes) == count
                assert sizes == sorted(sizes, reverse=True)
                assert sizes[0] == -(-count // (2 * shards))
                assert sizes[-1] == 1

    def test_chunks_group_jobs_by_accelerator(self, tiny, fast_config):
        """Queued chunks hold each accelerator's jobs together, in order
        of first appearance and in job order within one accelerator;
        results still come back in job order, equal to serial."""
        jobs = [
            EvalJob(
                accelerator=accelerator,
                workload=tiny,
                strategy=DFStrategy(tile_x=tile, tile_y=tile),
            )
            for tile in (4, 8, 16)
            for accelerator in ("meta_proto_like_df", "tpu_like_df")
        ]
        expected = Executor(jobs=1, search_config=fast_config).run(jobs)
        with EvalService(shards=2, search_config=fast_config) as service:
            queued = []
            put = service._job_queue.put

            def record(item):
                queued.append(item)
                put(item)

            service._job_queue.put = record
            results = service.map(jobs)
            del service._job_queue.put  # stop() queues its sentinels
        assert [len(item[1]) for item in queued] == chunk_sizes(len(jobs), 2)
        order = [job_id for item in queued for job_id in item[0]]
        assert order == [0, 2, 4, 1, 3, 5]
        assert [r.total for r in results] == [r.result.total for r in expected]

    def test_a_failed_job_leaves_the_rest_of_its_chunk_alone(self, tiny, fast_config):
        """A chunk runs as one batch; after a job fails, the rest runs
        as a new batch, each result equal to the job evaluated alone."""
        good = [tiny_job(tile, workload=tiny) for tile in (4, 16)]
        bad = EvalJob(
            accelerator="no_such_accelerator",
            workload="fsrcnn",
            strategy=DFStrategy(tile_x=4, tile_y=4),
        )
        runner = _JobRunner(fast_config, None, MappingCache())
        outcomes = _run_chunk(runner, [good[0], bad, good[1]], 3)
        assert [error is None for _, error in outcomes] == [True, False, True]
        assert outcomes[1][1].startswith("shard 3:")
        assert "no_such_accelerator" in outcomes[1][1]
        alone = _JobRunner(fast_config, None, MappingCache())
        assert [outcomes[0][0].total, outcomes[2][0].total] == [
            alone.evaluate(job).total for job in good
        ]
        assert not runner._planned
        assert not any(e.mapper._solved for e in runner._engines.values())
