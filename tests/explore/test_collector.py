"""The collector pause around each batch (DESIGN.md §5.6).

``Executor.run`` pauses the cyclic garbage collector for its batch, a
service shard pauses it around each job, and both leave it as they
found it on every way out.  A shard forked inside a paused batch still
collects between its jobs.
"""

import gc

import pytest

from repro import DFStrategy, collector
from repro.core.strategy import OverlapMode
from repro.explore import Executor, SweepSpec
from repro.explore import executor as executor_module

from ..conftest import make_tiny_workload

TILES = ((4, 4), (16, 16), (48, 32))


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_workload()


@pytest.fixture(scope="module")
def grid_spec(tiny):
    return SweepSpec.tile_grid(
        "meta_proto_like_df", tiny, TILES, (OverlapMode.FULLY_CACHED,)
    )


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector_state(request):
    """The collector on or off before the batch; restored afterwards."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def record_during_jobs(monkeypatch, seen, fail=False):
    """Record ``gc.isenabled()`` inside each evaluation; ``fail`` makes
    every evaluation raise after recording."""
    evaluate = executor_module._JobRunner.evaluate

    def recording(runner, job):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("job failed")
        return evaluate(runner, job)

    monkeypatch.setattr(executor_module._JobRunner, "evaluate", recording)


class TestRestores:
    def test_serial_batch(self, collector_state, grid_spec, fast_config, monkeypatch):
        seen = []
        record_during_jobs(monkeypatch, seen)
        Executor(search_config=fast_config).run(grid_spec)
        assert seen == [False] * len(grid_spec)
        assert gc.isenabled() is collector_state

    def test_serial_batch_that_raises(
        self, collector_state, grid_spec, fast_config, monkeypatch
    ):
        seen = []
        record_during_jobs(monkeypatch, seen, fail=True)
        with pytest.raises(RuntimeError, match="job failed"):
            Executor(search_config=fast_config).run(grid_spec)
        assert seen == [False]
        assert gc.isenabled() is collector_state

    def test_nested_runs(self, collector_state, grid_spec, fast_config, monkeypatch):
        """A run inside a job, and a run inside an outer pause, leave the
        collector paused for the rest of the outer block."""
        after_inner = []
        evaluate = executor_module._JobRunner.evaluate

        def nesting(runner, job):
            if job is grid_spec.jobs[0]:
                Executor(search_config=fast_config).run([grid_spec.jobs[1]])
                after_inner.append(gc.isenabled())
            return evaluate(runner, job)

        monkeypatch.setattr(executor_module._JobRunner, "evaluate", nesting)
        with collector.paused():
            Executor(search_config=fast_config).run(grid_spec)
            assert not gc.isenabled()
        assert after_inner == [False]
        assert gc.isenabled() is collector_state
        Executor(search_config=fast_config).run(grid_spec)
        assert after_inner == [False, False]
        assert gc.isenabled() is collector_state

    def test_pause_helper_on_every_way_out(self, collector_state):
        with collector.paused():
            assert not gc.isenabled()
            with collector.paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is collector_state
        with pytest.raises(KeyError):
            with collector.paused():
                raise KeyError("x")
        assert gc.isenabled() is collector_state


def test_no_collection_inside_a_serial_batch(grid_spec, fast_config, monkeypatch):
    """gc.callbacks sees no collection while a serial batch runs, though
    the batch allocates far more tracked objects than a collection's
    threshold."""
    inside = []
    collections = []
    run_serial = Executor._run_serial

    def marked(self, jobs):
        inside.append(True)
        try:
            return run_serial(self, jobs)
        finally:
            inside.append(gc.get_count()[0])  # pending allocations

    def callback(phase, info):
        if phase == "start" and len(inside) == 1:
            collections.append(info["generation"])

    monkeypatch.setattr(Executor, "_run_serial", marked)
    gc.callbacks.append(callback)
    try:
        gc.collect()
        Executor(search_config=fast_config).run(
            SweepSpec.strategies(
                "meta_proto_like_df",
                "fsrcnn",
                [DFStrategy(tile_x=t, tile_y=t) for t in (8, 30, 60)],
            )
        )
    finally:
        gc.callbacks.remove(callback)
    assert collections == []
    assert inside[-1] > gc.get_threshold()[0]
    assert gc.isenabled()


def test_shard_forked_inside_a_batch_collects_between_jobs(
    grid_spec, fast_config, monkeypatch
):
    """The one shard of a service is forked inside the first batch's
    pause.  It runs each job paused, yet collects between jobs, because
    it switches the collector back on after ``gc.freeze()``."""
    state = {"inside": False, "during": 0, "between": 0}
    kept = []

    def callback(phase, info):
        if phase == "start":
            state["during" if state["inside"] else "between"] += 1

    def probe(runner, job):
        if callback not in gc.callbacks:
            gc.callbacks.append(callback)
        state["inside"] = True
        # Tracked objects that stay alive: enough to trigger a
        # collection at the next allocation the collector sees.
        kept.append([[] for _ in range(2 * gc.get_threshold()[0])])
        enabled = gc.isenabled()
        state["inside"] = False
        return enabled, state["during"], state["between"]

    monkeypatch.setattr(executor_module._JobRunner, "evaluate", probe)
    with Executor(jobs=1, search_config=fast_config, backend="service") as executor:
        first = [r.result for r in executor.run(grid_spec)]
        second = [r.result for r in executor.run(list(grid_spec.jobs)[:2])]
    seen = first + second
    assert [enabled for enabled, _, _ in seen] == [False] * len(seen)
    assert all(during == 0 for _, during, _ in seen)
    between = [count for _, _, count in seen]
    assert between == sorted(between) and between[-1] >= len(seen) - 1
    assert gc.isenabled()
