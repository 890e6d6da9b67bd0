"""Differential test of step 3 against the hierarchy walk it replaced.

:func:`reference_plan` is the step-3 planner that walked
``Accelerator.hierarchy`` and ``level_rank`` for every layer and fit;
:func:`~repro.core.memlevels.plan_tile_memory` now reads a level table
built once per accelerator and ``multi_level_skip`` value.  Every tile
type the engine's plan phase plans must get an equal
:class:`~repro.core.memlevels.TileMemoryPlan` under both policies, run
on the same accelerator objects, and an unpickled accelerator must plan
like the original.  No mapping search runs.
"""

import pickle
from typing import Mapping

import pytest

from repro import get_accelerator, get_workload
from repro.core import DFStrategy, DepthFirstEngine, OverlapMode, scheduler
from repro.core.memlevels import LayerTops, MemLevelPolicy, TileMemoryPlan
from repro.core.stacks import partition_stacks
from repro.hardware.accelerator import Accelerator, build_accelerator
from repro.hardware.memory import MemoryInstance, MemoryLevel, level
from repro.workloads.zoo import WORKLOAD_FACTORIES


# ----------------------------------------------------------------------
# The hierarchy walk: the reference for the level table
# ----------------------------------------------------------------------
def _fits(level: MemoryLevel, need: float, reserved: Mapping[int, float]) -> bool:
    if level.instance.is_dram:
        return True
    available = level.instance.size_bytes - reserved.get(level.instance.uid, 0.0)
    return need <= available


def _lowest_fit(
    accel: Accelerator,
    operand: str,
    need: float,
    reserved: Mapping[int, float],
    policy: MemLevelPolicy,
    minimum: int = 0,
) -> int:
    """Lowest hierarchy index of ``operand`` whose level fits ``need``."""
    hierarchy = accel.hierarchy(operand)
    candidates = range(minimum, len(hierarchy))
    if not policy.multi_level_skip:
        # Only the highest on-chip level or DRAM may serve as a top.
        on_chip = [
            i for i in candidates if not hierarchy[i].instance.is_dram
        ]
        allowed = ([on_chip[-1]] if on_chip else []) + [len(hierarchy) - 1]
        candidates = [i for i in allowed if i >= minimum]
    for idx in candidates:
        level = hierarchy[idx]
        if level.instance.per_pe:
            continue
        if _fits(level, need, reserved):
            return idx
    return len(hierarchy) - 1


def reference_plan(
    accel, tile, stack_weight_bytes, input_source, output_dest_idx, policy=None
) -> TileMemoryPlan:
    """Step 3 for one tile type, walking the hierarchies."""
    policy = policy or MemLevelPolicy()
    stack = tile.geometry
    w_resident_idx = _lowest_fit(
        accel, "W", float(stack_weight_bytes), {}, MemLevelPolicy()
    )
    w_hierarchy = accel.hierarchy("W")
    w_resident = w_hierarchy[w_resident_idx]

    sink_name = stack[-1].layer.name
    layer_tops: list[LayerTops] = []
    io_peak: dict[int, float] = {}  # instance uid -> max I+O bytes seen

    for geom in stack:
        layer = geom.layer
        reserved: dict[int, float] = {}
        if not w_resident.instance.is_dram:
            reserved[w_resident.instance.uid] = float(stack_weight_bytes)

        # Weights: the first tile streams them from DRAM (Fig. 9).
        if layer.weight_count == 0:
            top_w = 0
        elif tile.is_first_tile:
            top_w = len(w_hierarchy) - 1
        else:
            top_w = w_resident_idx

        # Inputs: forced to the stack input location for source layers.
        if geom.layer.name in input_source:
            top_i = input_source[geom.layer.name]
        else:
            top_i = _lowest_fit(
                accel, "I", float(geom.input_bytes), reserved, policy
            )
        i_level = accel.hierarchy("I")[top_i]
        if not i_level.instance.is_dram:
            reserved[i_level.instance.uid] = (
                reserved.get(i_level.instance.uid, 0.0) + geom.input_bytes
            )

        # Outputs: forced for the stack sink.
        if layer.name == sink_name:
            top_o = output_dest_idx
        else:
            top_o = _lowest_fit(
                accel, "O", float(geom.output_bytes), reserved, policy
            )
        o_level = accel.hierarchy("O")[top_o]
        if not o_level.instance.is_dram:
            reserved[o_level.instance.uid] = (
                reserved.get(o_level.instance.uid, 0.0) + geom.output_bytes
            )

        for uid, amount in reserved.items():
            if not w_resident.instance.is_dram and uid == w_resident.instance.uid:
                amount -= stack_weight_bytes
            io_peak[uid] = max(io_peak.get(uid, 0.0), amount)

        ranks = {
            "W": accel.level_rank(w_hierarchy[top_w]),
            "I": accel.level_rank(accel.hierarchy("I")[top_i]),
            "O": accel.level_rank(accel.hierarchy("O")[top_o]),
        }
        layer_tops.append(
            LayerTops(tops={"W": top_w, "I": top_i, "O": top_o}, ranks=ranks)
        )

    # Cached data: lowest priority, sees the peak I/O pressure plus the
    # resident weights.
    cache_reserved = dict(io_peak)
    if not w_resident.instance.is_dram:
        cache_reserved[w_resident.instance.uid] = (
            cache_reserved.get(w_resident.instance.uid, 0.0) + stack_weight_bytes
        )

    cache_h_idx: int | None = None
    cache_v_idx: int | None = None
    h_bytes = float(tile.h_cache_bytes)
    v_bytes = float(tile.v_cache_line_bytes)
    if h_bytes > 0:
        cache_h_idx = _lowest_fit(accel, "I", h_bytes, cache_reserved, policy)
        level = accel.hierarchy("I")[cache_h_idx]
        if not level.instance.is_dram:
            cache_reserved[level.instance.uid] = (
                cache_reserved.get(level.instance.uid, 0.0) + h_bytes
            )
    if v_bytes > 0:
        cache_v_idx = _lowest_fit(accel, "I", v_bytes, cache_reserved, policy)

    return TileMemoryPlan(
        w_resident_idx=w_resident_idx,
        layer_tops=tuple(layer_tops),
        cache_h_idx=cache_h_idx,
        cache_v_idx=cache_v_idx,
    )


# ----------------------------------------------------------------------
# The engine's plan phase, each plan checked against the reference
# ----------------------------------------------------------------------
POLICIES = [MemLevelPolicy(multi_level_skip=skip) for skip in (True, False)]
MODES = list(OverlapMode)
TILES = [(16, 18), (60, 72)]
ACCELERATORS = ["meta_proto_like_df", "tpu_like", "tesla_npu_like", "edge_tpu_like"]


def tight_lb() -> Accelerator:
    """The 512-byte LB_IO accelerator of the validation tests."""
    return build_accelerator(
        "tight_lb",
        {"K": 8, "C": 2, "OX": 2, "OY": 2},
        [
            level(MemoryInstance.register("W_reg", 1), "W"),
            level(MemoryInstance.register("O_reg", 2), "O"),
            level(MemoryInstance.sram("LB_IO", 512), "IO"),
            level(MemoryInstance.sram("GB_WIO", 256 * 1024), "WIO"),
            level(MemoryInstance.dram(), "WIO"),
        ],
    )


def reg_on_top() -> Accelerator:
    """A per-PE level above the local buffers: with multi-level skipping
    off it is the highest on-chip level, so no on-chip level may be a
    top."""
    return build_accelerator(
        "reg_on_top",
        {"K": 8, "C": 2, "OX": 2, "OY": 2},
        [
            level(MemoryInstance.sram("LB_W", 64 * 1024), "W"),
            level(MemoryInstance.sram("LB_IO", 64 * 1024), "IO"),
            level(MemoryInstance.register("REG_WIO", 1024), "WIO"),
            level(MemoryInstance.dram(), "WIO"),
        ],
    )


def assert_plans_match(found: TileMemoryPlan, expected: TileMemoryPlan) -> None:
    assert found.w_resident_idx == expected.w_resident_idx
    assert [t.tops for t in found.layer_tops] == [t.tops for t in expected.layer_tops]
    assert [t.ranks for t in found.layer_tops] == [
        t.ranks for t in expected.layer_tops
    ]
    assert (found.cache_h_idx, found.cache_v_idx) == (
        expected.cache_h_idx,
        expected.cache_v_idx,
    )
    assert found == expected


def plan_all(monkeypatch, accel, workloads, policies, force_inputs=False, check=None):
    """Run the engine's plan phase (steps 1-4, no search) of every
    workload, mode and tile under each policy; each step-3 plan must
    equal ``check``'s plan (the reference on ``accel`` by default).
    ``force_inputs`` pins every layer's input top to index 0, as the
    validation tests do.  Returns the number of plans compared."""
    plan = scheduler.plan_tile_memory
    check = check or accel
    compared = []

    def checked(accel_, tile, weight_bytes, input_source, **kw):
        if force_inputs:
            input_source = {g.layer.name: 0 for g in tile.geometry}
        found = plan(accel_, tile, weight_bytes, input_source, **kw)
        assert_plans_match(
            found, reference_plan(check, tile, weight_bytes, input_source, **kw)
        )
        compared.append(found)
        return found

    monkeypatch.setattr(scheduler, "plan_tile_memory", checked)
    for policy in policies:
        engine = DepthFirstEngine(accel, policy=policy)
        for wl in workloads:
            stacks = partition_stacks(wl, accel)
            for mode in MODES:
                for tile in TILES:
                    strategy = DFStrategy(tile_x=tile[0], tile_y=tile[1], mode=mode)
                    locations = engine._boundary_locations(wl, strategy, stacks)
                    for stack in stacks:
                        engine._plan_stack(wl, strategy, stack, locations)
    monkeypatch.undo()
    return len(compared)


@pytest.fixture(scope="module")
def workloads():
    return [get_workload(name) for name in WORKLOAD_FACTORIES]


class TestLevelTable:
    @pytest.mark.parametrize("name", ACCELERATORS)
    def test_zoo_plans_equal_the_hierarchy_walk(self, monkeypatch, workloads, name):
        """Both policies on one accelerator object, then the default
        policy again on the tables already built."""
        accel = get_accelerator(name)
        assert plan_all(monkeypatch, accel, workloads, POLICIES + POLICIES[:1]) > 0

    @pytest.mark.parametrize("force_inputs", [False, True])
    @pytest.mark.parametrize("make", [tight_lb, reg_on_top])
    def test_constructed(self, monkeypatch, workloads, make, force_inputs):
        assert plan_all(monkeypatch, make(), workloads, POLICIES, force_inputs)

    def test_unpickled_accelerator_plans_identically(self, monkeypatch, workloads):
        accel = get_accelerator("meta_proto_like_df")
        plan_all(monkeypatch, accel, workloads[:1], POLICIES)
        assert "_step3_levels" in accel.__dict__
        copy = pickle.loads(pickle.dumps(accel))
        assert "_step3_levels" not in copy.__dict__
        assert plan_all(monkeypatch, copy, workloads, POLICIES, check=accel)
