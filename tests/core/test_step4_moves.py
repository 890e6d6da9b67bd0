"""Differential test of step 4's data copies.

:func:`reference` is the step-4 builder that wrote one
:class:`~repro.core.datacopy.DataCopyAction` block per kind of copy
(the gather of a layer-tile's input pieces, then the spill of its fresh
overlap).  ``DepthFirstEngine._plan_tile`` now builds the same copies as
one ordered list of moves.  Every tile type's copy cost must be equal
field by field, with the traffic entries in the same order (the order
is part of cache and golden bytes), and every layer-tile's bundle must
charge the same moves in the same order.  Plans are built through
``_plan_stack``, so no mapping search runs.
"""

import itertools

import pytest

from repro import get_accelerator
from repro.core import DFStrategy, DepthFirstEngine, StackBoundary, scheduler
from repro.core.backcalc import AxisMemo
from repro.core.datacopy import DataCopyAction, copy_cost
from repro.core.optimizer import ALL_MODES
from repro.core.stacks import partition_stacks
from repro.mapping.cost import CostResult
from repro.workloads.zoo import WORKLOAD_FACTORIES

ACCELERATORS = ("meta_proto_like_df", "tpu_like", "tesla_npu_like")
TILES = ((16, 18), (60, 72))


def gather_actions(
    wl, geom, geom_by_name, tops_by_name, dest, o_hier, cache_h, cache_v,
    ext_location, i_hier,
):
    """Reference: collect this layer-tile's input pieces at ``dest``."""
    layer = geom.layer
    actions = []
    bits = layer.act_bits
    for producer in wl.predecessors(layer.name):
        pgeom = geom_by_name[producer.name]
        p_top_o = o_hier[tops_by_name[producer.name].tops["O"]]
        actions.append(DataCopyAction(pgeom.output_elems, bits, p_top_o, dest))
        if cache_h is not None and pgeom.used_h_elems:
            actions.append(DataCopyAction(pgeom.used_h_elems, bits, cache_h, dest))
        if cache_v is not None and pgeom.used_v_elems:
            actions.append(DataCopyAction(pgeom.used_v_elems, bits, cache_v, dest))
    if geom.is_source:
        src_level = i_hier[ext_location[layer.name]]
        if geom.input_fresh_elems:
            actions.append(
                DataCopyAction(geom.input_fresh_elems, bits, src_level, dest)
            )
        if cache_h is not None and geom.input_used_h_elems:
            actions.append(
                DataCopyAction(geom.input_used_h_elems, bits, cache_h, dest)
            )
        if cache_v is not None and geom.input_used_v_elems:
            actions.append(
                DataCopyAction(geom.input_used_v_elems, bits, cache_v, dest)
            )
    return actions


def spill_actions(geom, top_o, cache_h, cache_v, dest_i):
    """Reference: retain freshly computed overlap data, and fresh
    stack-input halo, in the cache levels."""
    bits = geom.layer.act_bits
    actions = []
    if cache_h is not None and geom.keep_h_elems:
        actions.append(DataCopyAction(geom.keep_h_elems, bits, top_o, cache_h))
    if cache_v is not None and geom.keep_v_elems:
        actions.append(DataCopyAction(geom.keep_v_elems, bits, top_o, cache_v))
    if geom.is_source:
        if cache_h is not None and geom.input_keep_h_elems:
            actions.append(
                DataCopyAction(geom.input_keep_h_elems, bits, dest_i, cache_h)
            )
        if cache_v is not None and geom.input_keep_v_elems:
            actions.append(
                DataCopyAction(geom.input_keep_v_elems, bits, dest_i, cache_v)
            )
    return actions


def nonempty(actions):
    """The actions ``copy_cost`` charges for, in order."""
    return [a for a in actions if a.elems > 0]


def reference(accel, stack, tile, plan, ext_location):
    """One tile type's step-4 cost, built block by block, and each
    computed layer-tile's non-empty actions."""
    geom_by_name = {g.layer.name: g for g in tile.geometry}
    tops_by_name = {
        g.layer.name: plan.layer_tops[i] for i, g in enumerate(tile.geometry)
    }
    i_hier = accel.hierarchy("I")
    o_hier = accel.hierarchy("O")
    cache_h = plan.cache_level(accel, "h")
    cache_v = plan.cache_level(accel, "v")
    total = CostResult()
    bundles = []
    for idx, geom in enumerate(tile.geometry):
        if not geom.is_computed:
            continue
        tops = plan.layer_tops[idx].tops
        dest = i_hier[tops["I"]]
        actions = gather_actions(
            stack.workload, geom, geom_by_name, tops_by_name, dest, o_hier,
            cache_h, cache_v, ext_location, i_hier,
        )
        actions.extend(spill_actions(geom, o_hier[tops["O"]], cache_h, cache_v, dest))
        total.add(copy_cost(actions))
        bundles.append(nonempty(actions))
    return total, bundles


@pytest.fixture(scope="module")
def axis_memo():
    """One back-calculation memo for every accelerator (it never reads
    the accelerator)."""
    return AxisMemo()


@pytest.mark.parametrize("accel_name", ACCELERATORS)
def test_moves_equal_the_block_builder(accel_name, axis_memo, monkeypatch):
    accel = get_accelerator(accel_name)
    engine = DepthFirstEngine(accel, axis_memo=axis_memo)
    compared = []
    bundles = []
    plan_tile = engine._plan_tile

    def recorded(actions):
        bundles.append(nonempty(actions))
        return copy_cost(actions)

    def checked(stack, tile, plan, ext_location):
        bundles.clear()
        tile_plan = plan_tile(stack, tile, plan, ext_location)
        expected, expected_bundles = reference(accel, stack, tile, plan, ext_location)
        # repr: every field, traffic in insertion order, -0.0 != 0.0.  The
        # moves are compared too: swapping two that add to one entry can
        # leave these inputs' floats unchanged.
        compared.append(
            repr(tile_plan.copy_cost) == repr(expected) and bundles == expected_bundles
        )
        return tile_plan

    monkeypatch.setattr(scheduler, "copy_cost", recorded)
    monkeypatch.setattr(engine, "_plan_tile", checked)
    for factory in WORKLOAD_FACTORIES.values():
        workload = factory()
        for mode in ALL_MODES:
            for tile_x, tile_y in TILES:
                for fuse_depth, boundary in itertools.product((None, 1), StackBoundary):
                    strategy = DFStrategy(
                        tile_x=tile_x,
                        tile_y=tile_y,
                        mode=mode,
                        fuse_depth=fuse_depth,
                        stack_boundary=boundary,
                    )
                    stacks = partition_stacks(workload, accel, fuse_depth=fuse_depth)
                    locations = engine._boundary_locations(workload, strategy, stacks)
                    for stack in stacks:
                        engine._plan_stack(workload, strategy, stack, locations)
    assert len(compared) > 5000
    differ = compared.count(False)
    assert not differ, f"{differ} of {len(compared)} tile types differ"
