"""``MappingSearchEngine.search_all``: solve, then search every problem in
order, raising the tops of an infeasible one.

It must leave exactly what ``solve`` followed by one ``search`` per
attempt leaves (results, cache contents, order and statistics), name
the layer when no tops are feasible, and hold no winner afterwards,
also when a search raised.
"""

import pytest

from repro.hardware.zoo import get_accelerator
from repro.mapping import loma
from repro.mapping.allocation import AllocationError
from repro.mapping.cache import encode_search_result
from repro.mapping.loma import MappingSearchEngine, SearchConfig

from .test_grouped import search_all, zoo_problems

CONFIG = SearchConfig(lpf_limit=5, budget=40)


def cache_state(engine):
    return engine.cache.stats, [
        (key, encode_search_result(value))
        for key, value in engine.cache.snapshot().items()
    ]


def counted(engine):
    """Record, at each of the engine's ``search`` calls (one per
    attempt), how many winners it holds."""
    calls = []
    search = engine.search

    def spy(*args, **kwargs):
        calls.append(len(engine._solved))
        return search(*args, **kwargs)

    engine.search = spy
    return calls


@pytest.fixture(scope="module")
def accel():
    return get_accelerator("meta_proto_like_df")


@pytest.fixture(scope="module")
def problems(accel):
    return zoo_problems(accel)


@pytest.fixture(scope="module")
def infeasible(accel, problems):
    """The problems with no feasible mapping at their planned tops (a
    fresh engine's solve holds every problem's winner)."""
    engine = MappingSearchEngine(CONFIG)
    keys = engine.solve(accel, problems)
    return [
        problem
        for problem, key in zip(problems, keys)
        if engine._solved[key][0] is None
    ]


def test_equals_solve_then_one_search_per_attempt(accel, problems, infeasible):
    assert infeasible  # the raised-tops walk is exercised
    protocol = MappingSearchEngine(CONFIG)
    protocol_calls = counted(protocol)
    outcomes = search_all(protocol, accel, problems, protocol.solve(accel, problems))

    engine = MappingSearchEngine(CONFIG)
    calls = counted(engine)
    found = engine.search_all(accel, problems)

    assert [encode_search_result(r) for r in found] == [
        o for o in outcomes if not isinstance(o, str)
    ]
    assert len(found) == len(problems)
    assert cache_state(engine) == cache_state(protocol)
    assert len(calls) == len(protocol_calls) == len(outcomes)
    assert not engine._solved


def test_no_feasible_tops_names_the_layer_and_drops_held_winners(
    accel, problems, infeasible, monkeypatch
):
    layer, tops = infeasible[0]
    # The infeasible problem first, then problems whose winners solve holds.
    ordered = [(layer, tops)] + [p for p in problems if p not in infeasible]
    engine = MappingSearchEngine(CONFIG)
    calls = counted(engine)
    monkeypatch.setattr(loma, "raised_tops", lambda accel, tops: [])
    with pytest.raises(AllocationError) as raised:
        engine.search_all(accel, ordered)
    assert str(raised.value) == f"{layer.name}: no feasible mapping even with DRAM tops"
    assert isinstance(raised.value.__cause__, AllocationError)
    # One attempt, with other problems' winners still held, and none left.
    assert len(calls) == 1 and calls[0] > 1
    assert not engine._solved

    monkeypatch.undo()
    fresh = MappingSearchEngine(CONFIG)
    after = engine.search_all(accel, problems)
    assert [encode_search_result(r) for r in after] == [
        encode_search_result(r) for r in fresh.search_all(accel, problems)
    ]
    assert cache_state(engine)[1] == cache_state(fresh)[1]
    assert not engine._solved
