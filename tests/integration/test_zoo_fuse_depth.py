"""Fuse depth 1 costs exactly what single-layer stacks cost, on every zoo
workload.

``DFStrategy(..., fuse_depth=1)`` and the explicit partition into one
stack per layer must give bit-identical results: totals, every stack's
and tile type's costs, and the traffic entries in the same order, on two
accelerators, all overlap modes, two tile sizes and both stack
boundaries.
"""

import itertools

import pytest

from repro import get_accelerator, get_workload
from repro.core import DFStrategy, DepthFirstEngine, StackBoundary
from repro.core.backcalc import AxisMemo
from repro.core.optimizer import ALL_MODES
from repro.mapping import MappingCache, SearchConfig
from repro.workloads.zoo import WORKLOAD_FACTORIES

TILES = ((16, 18), (60, 72))


def costs(result) -> list[str]:
    """``repr`` of every cost: each field, traffic in insertion order."""
    found = [result.total]
    for sr in result.stacks:
        found.append(sr.total)
        for tr in sr.tile_results:
            found.extend([*tr.layer_costs, tr.copy_cost])
    return [repr(cost) for cost in found]


@pytest.fixture(scope="module")
def shared():
    """One mapping cache and back-calculation memo for every case."""
    return MappingCache(), AxisMemo()


@pytest.mark.parametrize("accel_name", ("meta_proto_like_df", "tpu_like"))
@pytest.mark.parametrize("name", list(WORKLOAD_FACTORIES))
def test_fuse_depth_one_equals_single_layer_stacks(accel_name, name, shared):
    cache, memo = shared
    engine = DepthFirstEngine(
        get_accelerator(accel_name),
        SearchConfig(lpf_limit=5, budget=40),
        cache=cache,
        axis_memo=memo,
    )
    workload = get_workload(name)
    singles = tuple((layer.name,) for layer in workload.layers())
    for mode, (tile_x, tile_y), boundary in itertools.product(
        ALL_MODES, TILES, StackBoundary
    ):
        point = dict(tile_x=tile_x, tile_y=tile_y, mode=mode, stack_boundary=boundary)
        capped = engine.evaluate(workload, DFStrategy(**point, fuse_depth=1))
        explicit = engine.evaluate(workload, DFStrategy(**point, stacks=singles))
        assert len(capped.stacks) == len(singles)
        assert costs(capped) == costs(explicit), (mode, tile_x, boundary)
