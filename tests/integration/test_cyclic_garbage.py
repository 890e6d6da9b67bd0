"""An evaluation leaves no cyclic garbage.

Everything a serial sweep builds is freed by reference counting once the
last reference goes, so the collector finds none of the model's objects:
no frame or traceback of a caught search failure, no ``AllocationError``,
no object of a ``repro`` class, and no cycle holding one.

The collector is paused for every ``Executor.run`` batch and around
every service shard job (DESIGN.md §5.6), which is safe only while
those batches make no cyclic garbage: a DSE generation, a service job
and a job that raises are probed here too, and so is what a DSE with
a run record makes between its batches.
"""

import gc
import json
import types
from collections import Counter

import pytest

from repro import DFStrategy, OverlapMode
from repro.dse import DesignSpace, DSERunner, GeneticSearch
from repro.explore import Executor, SweepSpec
from repro.explore import executor as executor_module
from repro.mapping import SearchConfig, loma
from repro.mapping.allocation import AllocationError
from repro.obs import ledger
from repro.serve import ServiceError

from ..conftest import make_tiny_workload

FAST = SearchConfig(lpf_limit=5, budget=40)


def is_model_object(obj):
    return isinstance(
        obj, (types.FrameType, types.TracebackType, AllocationError)
    ) or type(obj).__module__.partition(".")[0] == "repro"


def test_serial_sweep_leaves_no_cyclic_garbage(monkeypatch):
    """resnet18 at 240x72 fully_recompute on meta_proto_like_df sends
    layer-tiles to raised tops (the fallback path); the cached sweep
    point does not."""
    fallbacks = []
    raised = loma.raised_tops

    def counting(accel, tops):
        fallbacks.append(tops)
        return raised(accel, tops)

    monkeypatch.setattr(loma, "raised_tops", counting)
    spec = SweepSpec.strategies(
        "meta_proto_like_df",
        "resnet18",
        [
            DFStrategy(tile_x=240, tile_y=72, mode=OverlapMode.FULLY_RECOMPUTE),
            DFStrategy(tile_x=16, tile_y=18, mode=OverlapMode.FULLY_CACHED),
        ],
    )
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        Executor(search_config=SearchConfig(lpf_limit=5, budget=40)).run(spec)
        gc.collect()
        held = Counter(
            type(obj).__qualname__
            for obj in gc.garbage
            if any(map(is_model_object, (obj, *gc.get_referents(obj))))
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert fallbacks
    assert not held, held


def drain(counts=is_model_object):
    """Collect under ``DEBUG_SAVEALL`` and count, by type, the found
    objects that ``counts`` holds (or that hold one); then free them
    for real, or the next collection would find them again."""
    gc.collect()
    found = Counter(
        type(obj).__qualname__
        for obj in gc.garbage
        if any(map(counts, (obj, *gc.get_referents(obj))))
    )
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(0)
    gc.collect()
    gc.set_debug(flags)
    return found


@pytest.fixture
def save_all():
    """``DEBUG_SAVEALL`` on an empty ``gc.garbage``, restored after."""
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    yield
    gc.set_debug(flags)
    gc.garbage.clear()


def failing_search(monkeypatch, fails):
    """Make every search raise while ``fails()`` is true, deep inside
    the evaluation: each raised-tops attempt fails too, so the
    evaluation ends in ``search_all``'s "no feasible mapping" error."""
    search = loma.MappingSearchEngine.search

    def maybe_failing(self, layer, *args, **kwargs):
        if fails():
            raise AllocationError(f"no feasible mapping for {layer.name}")
        return search(self, layer, *args, **kwargs)

    monkeypatch.setattr(loma.MappingSearchEngine, "search", maybe_failing)


def test_dse_generations_leave_no_cyclic_garbage(save_all, monkeypatch):
    """Every ``Executor.run`` batch of a genetic DSE (one per
    generation) leaves nothing at all for the collector."""
    found = []
    run = Executor.run

    def probed(self, spec):
        drain()  # made before the batch, by the DSE loop
        results = run(self, spec)
        found.append(drain(counts=lambda obj: True))
        return results

    monkeypatch.setattr(Executor, "run", probed)
    space = DesignSpace(
        accelerators=("meta_proto_like_df",),
        tile_x=(4, 16, 48),
        tile_y=(4, 18, 32),
        modes=(OverlapMode.FULLY_CACHED, OverlapMode.FULLY_RECOMPUTE),
    )
    runner = DSERunner(
        space,
        make_tiny_workload(),
        ("energy", "latency"),
        Executor(search_config=FAST),
        seed=0,
    )
    runner.run(GeneticSearch(population=4, generations=3))
    assert len(found) >= 2
    assert not any(found), found


def test_a_ledger_backed_dse_leaves_no_cyclic_garbage(save_all, monkeypatch, tmp_path):
    """With a run record open, as ``repro dse`` keeps one, the DSE loop
    rewrites the record once per generation between its batches: from
    the first batch to the end of the search, nothing at all is left
    for the collector, and the record holds every generation."""
    found = []
    run = Executor.run

    def probed(self, spec):
        found.append(drain(counts=lambda obj: True))
        return run(self, spec)

    monkeypatch.setattr(Executor, "run", probed)
    space = DesignSpace(
        accelerators=("meta_proto_like_df",),
        tile_x=(4, 16, 48),
        tile_y=(4, 18, 32),
        modes=(OverlapMode.FULLY_CACHED, OverlapMode.FULLY_RECOMPUTE),
    )
    record = ledger.begin_run("dse", ["dse"], directory=tmp_path)
    runner = DSERunner(
        space,
        make_tiny_workload(),
        ("energy", "latency"),
        Executor(search_config=FAST),
        seed=0,
    )
    result = runner.run(GeneticSearch(population=4, generations=3))
    found.append(drain(counts=lambda obj: True))
    record.finish()
    assert len(found) >= 3
    assert not any(found[1:]), found  # found[0]: the set-up's
    convergence = json.loads(record.path.read_text())["convergence"]
    assert len(convergence) == len(result.generations)


def test_a_job_that_raises_leaves_no_cyclic_garbage(save_all, monkeypatch):
    """A serial batch whose second job fails deep in the search: once
    the caller drops the error, nothing of the model is left to collect."""
    spec = SweepSpec.tile_grid(
        "meta_proto_like_df", make_tiny_workload(), ((4, 4), (16, 16)),
        (OverlapMode.FULLY_CACHED,),
    )
    calls = []
    evaluate = executor_module._JobRunner.evaluate

    def counting(runner, job):
        calls.append(job)
        return evaluate(runner, job)

    monkeypatch.setattr(executor_module._JobRunner, "evaluate", counting)
    failing_search(monkeypatch, lambda: len(calls) == 2)
    with pytest.raises(AllocationError, match="no feasible mapping even with DRAM"):
        Executor(search_config=FAST).run(spec)
    assert len(calls) == 2
    assert not drain()


def test_service_jobs_leave_no_cyclic_garbage(save_all, monkeypatch):
    """In a service shard each job, one that raises included, leaves no
    model object to collect: every job reports what the collector
    found since the previous job began, in the one shard.  The parent's
    side of the batches leaves none either."""
    tiny = make_tiny_workload()
    spec = SweepSpec.tile_grid(
        "meta_proto_like_df", tiny, ((4, 4), (16, 16), (48, 32), (8, 8)),
        (OverlapMode.FULLY_CACHED,),
    )
    good, failing, *after = spec.jobs
    current = []
    evaluate = executor_module._JobRunner.evaluate

    def reporting(runner, job):
        gc.set_debug(gc.DEBUG_SAVEALL)  # in the shard
        left = drain()
        current[:] = [job]
        return left, evaluate(runner, job)

    monkeypatch.setattr(executor_module._JobRunner, "evaluate", reporting)
    failing_search(
        monkeypatch, lambda: [job.strategy for job in current] == [failing.strategy]
    )
    with Executor(jobs=1, search_config=FAST, backend="service") as executor:
        with pytest.raises(ServiceError, match="no feasible mapping"):
            executor.run([good, failing])
        reports = [result.result[0] for result in executor.run(after)]
    assert len(reports) == 2  # the failed job's leftovers, then a good one's
    assert not any(reports), reports
    assert not drain()
