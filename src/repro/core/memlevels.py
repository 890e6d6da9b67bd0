"""Step 3 of DeFiNES: determine the top memory level per data type.

For every (tile, layer) combination the data types are prioritized as in
Fig. 5(3) — weights, current layer inputs, current layer outputs, cached
data for H reuse, cached data for V reuse — and each is assigned the
lowest memory level of its operand's hierarchy in which it fits next to
the already-placed higher-priority data.  This reproduces the paper's
Fig. 9/10 behaviour: when I+O no longer fit the LB together, I keeps the
LB and O is pushed to the GB.

The module also implements the "DRAM-only skipping" ablation of
Fig. 18(b): when multi-level skipping is disabled, activations may only
use the highest on-chip level or DRAM as their top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..hardware.accelerator import Accelerator
from ..hardware.memory import OPERANDS, MemoryLevel
from .backcalc import TileType


@dataclass(frozen=True)
class MemLevelPolicy:
    """Knobs of the top-level determination."""

    #: Allow skipping multiple upper levels (False = Fig. 18(b) baseline:
    #: activations top out at the highest on-chip level or DRAM only).
    multi_level_skip: bool = True


@dataclass(frozen=True)
class LayerTops:
    """Per-operand top level indices (into the operand hierarchies) for
    one layer of one tile, plus the global ranks used for reporting."""

    tops: Mapping[str, int]
    ranks: Mapping[str, int]


@dataclass(frozen=True)
class TileMemoryPlan:
    """Step-3 output for one tile type."""

    w_resident_idx: int
    layer_tops: tuple[LayerTops, ...]
    cache_h_idx: int | None
    cache_v_idx: int | None

    def cache_level(self, accel: Accelerator, which: str) -> MemoryLevel | None:
        idx = self.cache_h_idx if which == "h" else self.cache_v_idx
        if idx is None:
            return None
        return accel.hierarchy("I")[idx]


@dataclass(frozen=True, slots=True)
class _Levels:
    """Step 3's view of one operand's hierarchy under one policy.

    Per hierarchy index: the level's instance ``uid``, whether it is
    DRAM and its global rank.  ``candidates`` are the levels that may be
    tops, lowest first, as ``(index, uid, size, is_dram)``.
    """

    uid: tuple[int, ...]
    dram: tuple[bool, ...]
    rank: tuple[int, ...]
    candidates: tuple[tuple[int, int, int, bool], ...]


def _operand_levels(
    accel: Accelerator, operand: str, multi_level_skip: bool
) -> _Levels:
    hierarchy = accel.hierarchy(operand)
    instances = [level.instance for level in hierarchy]
    indices = list(range(len(hierarchy)))
    if not multi_level_skip:
        # Only the highest on-chip level or DRAM may serve as a top.
        on_chip = [i for i in indices if not instances[i].is_dram]
        indices = on_chip[-1:] + [len(hierarchy) - 1]
    return _Levels(
        uid=tuple(inst.uid for inst in instances),
        dram=tuple(inst.is_dram for inst in instances),
        rank=tuple(accel.level_rank(level) for level in hierarchy),
        # Per-PE levels are never tops.
        candidates=tuple(
            (i, instances[i].uid, instances[i].size_bytes, instances[i].is_dram)
            for i in indices
            if not instances[i].per_pe
        ),
    )


def _level_table(accel: Accelerator, multi_level_skip: bool) -> dict[str, _Levels]:
    """Per operand, :class:`_Levels` of ``accel`` under one value of
    :attr:`MemLevelPolicy.multi_level_skip`: built once per accelerator
    and value, and held on the accelerator (dropped on pickling)."""
    tables = accel.memo("_step3_levels", dict)
    table = tables.get(multi_level_skip)
    if table is None:
        table = tables[multi_level_skip] = {
            op: _operand_levels(accel, op, multi_level_skip) for op in OPERANDS
        }
    return table


def _lowest_fit(levels: _Levels, need: float, reserved: Mapping[int, float]) -> int:
    """Lowest candidate index whose level fits ``need`` next to
    ``reserved`` (bytes per instance uid); DRAM always fits."""
    for idx, uid, size, dram in levels.candidates:
        if dram or need <= size - reserved.get(uid, 0.0):
            return idx
    return len(levels.uid) - 1


def weight_resident_index(accel: Accelerator, stack_weight_bytes: int) -> int:
    """Lowest non-register W level holding the stack's resident weights
    (fitted under the default policy, whatever the engine's)."""
    table = _level_table(accel, MemLevelPolicy().multi_level_skip)
    return _lowest_fit(table["W"], float(stack_weight_bytes), {})


def plan_tile_memory(
    accel: Accelerator,
    tile: TileType,
    stack_weight_bytes: int,
    input_source: Mapping[str, int],
    output_dest_idx: int,
    policy: MemLevelPolicy | None = None,
) -> TileMemoryPlan:
    """Run step 3 for one tile type.

    ``input_source`` maps each stack-source layer name to the I-hierarchy
    index where the stack's input feature map lives (DRAM or a lower level
    left by the previous stack); ``output_dest_idx`` is where the stack's
    final output must land (O hierarchy index).
    """
    policy = policy or MemLevelPolicy()
    table = _level_table(accel, policy.multi_level_skip)
    w_levels, i_levels, o_levels = table["W"], table["I"], table["O"]
    w_resident_idx = weight_resident_index(accel, stack_weight_bytes)
    # The resident weights' instance, when on chip.
    w_uid = None if w_levels.dram[w_resident_idx] else w_levels.uid[w_resident_idx]

    sink_name = tile.geometry[-1].layer.name
    layer_tops: list[LayerTops] = []
    io_peak: dict[int, float] = {}  # instance uid -> max I+O bytes seen

    for geom in tile.geometry:
        layer = geom.layer
        input_bytes = geom.input_bytes
        output_bytes = geom.output_bytes
        reserved: dict[int, float] = {}
        if w_uid is not None:
            reserved[w_uid] = float(stack_weight_bytes)

        # Weights: the first tile streams them from DRAM (Fig. 9).
        if layer.weight_count == 0:
            top_w = 0
        elif tile.is_first_tile:
            top_w = len(w_levels.uid) - 1
        else:
            top_w = w_resident_idx

        # Inputs: forced to the stack input location for source layers.
        if layer.name in input_source:
            top_i = input_source[layer.name]
        else:
            top_i = _lowest_fit(i_levels, float(input_bytes), reserved)
        if not i_levels.dram[top_i]:
            uid = i_levels.uid[top_i]
            reserved[uid] = reserved.get(uid, 0.0) + input_bytes

        # Outputs: forced for the stack sink.
        if layer.name == sink_name:
            top_o = output_dest_idx
        else:
            top_o = _lowest_fit(o_levels, float(output_bytes), reserved)
        if not o_levels.dram[top_o]:
            uid = o_levels.uid[top_o]
            reserved[uid] = reserved.get(uid, 0.0) + output_bytes

        for uid, amount in reserved.items():
            if uid == w_uid:
                amount -= stack_weight_bytes
            io_peak[uid] = max(io_peak.get(uid, 0.0), amount)

        layer_tops.append(
            LayerTops(
                tops={"W": top_w, "I": top_i, "O": top_o},
                ranks={
                    "W": w_levels.rank[top_w],
                    "I": i_levels.rank[top_i],
                    "O": o_levels.rank[top_o],
                },
            )
        )

    # Cached data: lowest priority, sees the peak I/O pressure plus the
    # resident weights.
    cache_reserved = dict(io_peak)
    if w_uid is not None:
        cache_reserved[w_uid] = cache_reserved.get(w_uid, 0.0) + stack_weight_bytes

    cache_h_idx: int | None = None
    cache_v_idx: int | None = None
    h_bytes = float(tile.h_cache_bytes)
    v_bytes = float(tile.v_cache_line_bytes)
    if h_bytes > 0:
        cache_h_idx = _lowest_fit(i_levels, h_bytes, cache_reserved)
        if not i_levels.dram[cache_h_idx]:
            uid = i_levels.uid[cache_h_idx]
            cache_reserved[uid] = cache_reserved.get(uid, 0.0) + h_bytes
    if v_bytes > 0:
        cache_v_idx = _lowest_fit(i_levels, v_bytes, cache_reserved)

    return TileMemoryPlan(
        w_resident_idx=w_resident_idx,
        layer_tops=tuple(layer_tops),
        cache_h_idx=cache_h_idx,
        cache_v_idx=cache_v_idx,
    )
