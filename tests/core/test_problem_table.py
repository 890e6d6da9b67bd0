"""The depth-first engine's problem table (DESIGN.md §5.5): each
layer-tile search problem's scaled layer and normalized cache key,
built once per distinct problem.

An entry may only ever serve the problem that built it.  That is
checked over a declared subset of the zoo matrix that
``test_memlevels_reference.py`` plans, and on constructed problems
that differ from one another in one key component each.
"""

import dataclasses

import pytest

from repro import get_accelerator, get_workload
from repro.core import DFStrategy, DepthFirstEngine
from repro.core.backcalc import AxisGeometry, LayerTileGeometry
from repro.core.geometry import Interval
from repro.core.scheduler import ProblemTable
from repro.core.stacks import partition_stacks
from repro.mapping.loma import normalize_key
from repro.workloads.layer import LayerSpec
from repro.workloads.zoo import WORKLOAD_FACTORIES

from .test_memlevels_reference import MODES, TILES

#: The declared subset of the reference matrix: every zoo workload,
#: overlap mode and tile, default policy, on these accelerators.  One
#: engine per accelerator plans all of it, so its table serves every
#: repeat of the subset.
ACCELERATORS = ["meta_proto_like_df", "tpu_like"]


def scaled_and_key(table, geom, tops):
    """``table``'s scaled layer and cache key for the problem."""
    _, scaled, key = table.entry(geom, tops)
    return scaled, key


def fresh(engine, geom, tops):
    """What the search path built for every layer-tile before the table."""
    scaled = geom.scaled_layer()
    return scaled, normalize_key(engine.mapper.cache_key(scaled, engine.accel, tops))


def planned_searches(engine):
    """The engine's plan phase over the subset: every computed
    layer-tile as ``(geometry, tops, scaled layer, key)``."""
    found = []
    for name in WORKLOAD_FACTORIES:
        workload = get_workload(name)
        stacks = partition_stacks(workload, engine.accel)
        for mode in MODES:
            for tile_x, tile_y in TILES:
                strategy = DFStrategy(tile_x=tile_x, tile_y=tile_y, mode=mode)
                locations = engine._boundary_locations(workload, strategy, stacks)
                for stack in stacks:
                    plan = engine._plan_stack(workload, strategy, stack, locations)
                    for tile_plan in plan.tiles:
                        geometry = tile_plan.tile.geometry
                        layer_tops = tile_plan.plan.layer_tops
                        for idx, (_, scaled, key) in zip(
                            tile_plan.computed, tile_plan.problems
                        ):
                            tops = layer_tops[idx].tops
                            found.append((geometry[idx], tops, scaled, key))
    return found


@pytest.mark.parametrize("name", ACCELERATORS)
def test_zoo_entries_equal_a_fresh_build(name):
    engine = DepthFirstEngine(get_accelerator(name))
    found = planned_searches(engine)
    # The subset repeats problems and fits the bound (nothing evicted).
    assert len(found) > len(engine.problems)
    assert len(engine.problems) <= ProblemTable.BOUND
    for geom, tops, scaled, key in found:
        assert (scaled, key) == fresh(engine, geom, tops)
        assert scaled.name == geom.layer.name
        # A hit returns the objects the miss built.
        again = scaled_and_key(engine.problems, geom, tops)
        assert again[0] is scaled and again[1] is key


# ----------------------------------------------------------------------
# Constructed problems, one key component apart
# ----------------------------------------------------------------------
CONV = LayerSpec(name="conv", k=8, c=4, ox=16, oy=16, fx=3, fy=3, px=1, py=1)


def problem(layer=CONV, w=4, h=4, in_w=6, in_h=6, tops=(1, 1, 1)):
    """A computed layer-tile of ``layer``: ``w`` x ``h`` outputs from an
    ``in_w`` x ``in_h`` input span, at tops ``(W, I, O)``."""

    def axis(width, need):
        span = Interval(0, width)
        return AxisGeometry(span, span, Interval(0, need), 0, 0)

    geom = LayerTileGeometry(layer=layer, x=axis(w, in_w), y=axis(h, in_h))
    return geom, dict(zip("WIO", tops))


#: Each differs from ``problem()`` in one component of the table key.
VARIANTS = {
    "layer": {"layer": LayerSpec(name="conv", k=16, c=4, ox=16, oy=16, fx=3, fy=3)},
    "compute width": {"w": 5},
    "compute height": {"h": 5},
    "input width": {"in_w": 5},
    "input height": {"in_h": 5},
    "W top": {"tops": (2, 1, 1)},
    "I top": {"tops": (1, 2, 1)},
    "O top": {"tops": (1, 1, 2)},
}


@pytest.mark.parametrize("component", VARIANTS)
def test_each_key_component_separates_problems(meta_df, component):
    engine = DepthFirstEngine(meta_df)
    base = problem()
    variant = problem(**VARIANTS[component])
    assert scaled_and_key(engine.problems, *base) == fresh(engine, *base)
    assert scaled_and_key(engine.problems, *variant) == fresh(engine, *variant)
    table = engine.problems
    assert scaled_and_key(table, *base) != scaled_and_key(table, *variant)
    assert len(engine.problems) == 2


def test_equal_layers_keep_their_own_names(meta_df):
    """The key holds the source layer itself, not its shape: an equal
    shape under another name is another problem, whose scaled layer
    (and the errors it raises) carries its own name."""
    engine = DepthFirstEngine(meta_df)
    renamed = dataclasses.replace(CONV, name="twin")
    first, first_key = scaled_and_key(engine.problems, *problem())
    twin, twin_key = scaled_and_key(engine.problems, *problem(layer=renamed))
    assert (first.name, twin.name) == ("conv", "twin")
    assert first_key == twin_key  # the cache key ignores the name


def test_bound_evicts_oldest_first(meta_df, monkeypatch):
    monkeypatch.setattr(ProblemTable, "BOUND", 2)
    table = DepthFirstEngine(meta_df).problems
    problems = [problem(w=w) for w in (1, 2, 3)]
    built = [scaled_and_key(table, *p) for p in problems]
    assert len(table) == 2
    # The oldest was evicted: its lookup rebuilds the same key, and
    # evicts the next oldest in turn.
    again = scaled_and_key(table, *problems[0])
    assert again == built[0] and again[0] is not built[0][0]
    assert scaled_and_key(table, *problems[2])[0] is built[2][0]
    assert scaled_and_key(table, *problems[1])[0] is not built[1][0]
    assert len(table) == 2
