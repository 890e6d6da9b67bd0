"""Step 4 of DeFiNES: data copy actions and their cost model.

A data copy action moves a block of data between two memory levels — e.g.
collecting a layer-tile's input pieces (previous layer's fresh output,
H-cached and V-cached overlap data) into the level chosen as the input's
top memory, or spilling freshly computed overlap data into the cache's
level.  The cost model takes a *bundle* of actions that may proceed in
parallel and accounts for port conflicts: actions sharing a physical
memory serialize on its bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.memory import MemoryLevel
from ..mapping.cost import CostResult


@dataclass(frozen=True)
class DataCopyAction:
    """One block move: ``elems`` data elements of ``bits`` precision from
    ``src`` to ``dst`` (distinct physical memories)."""

    elems: float
    bits: int
    src: MemoryLevel
    dst: MemoryLevel

    @property
    def bytes(self) -> float:
        return self.elems * self.bits / 8.0


def copy_cost(actions: list[DataCopyAction]) -> CostResult:
    """Energy and latency of a bundle of (potentially parallel) actions.

    Energy: each byte pays one read at the source and one write at the
    destination.  Latency: every physical memory serializes the bytes it
    must move through its ports; the bundle finishes when the most loaded
    memory does.
    """
    result = CostResult()
    port_bytes: dict[int, float] = {}
    port_bw: dict[int, float] = {}
    for action in actions:
        if action.elems <= 0:
            continue
        if action.src.instance.uid == action.dst.instance.uid:
            continue  # already in place
        nbytes = action.bytes
        src_i, dst_i = action.src.instance, action.dst.instance

        entry_src = result.traffic_entry("copy", src_i.name)
        entry_src.reads_elems += action.elems
        entry_src.energy_pj += nbytes * src_i.r_energy_pj_per_byte
        entry_dst = result.traffic_entry("copy", dst_i.name)
        entry_dst.writes_elems += action.elems
        entry_dst.energy_pj += nbytes * dst_i.w_energy_pj_per_byte

        for inst in (src_i, dst_i):
            port_bytes[inst.uid] = port_bytes.get(inst.uid, 0.0) + nbytes
            port_bw[inst.uid] = inst.bandwidth_bytes * inst.ports

    latency = 0.0
    for uid, moved in port_bytes.items():
        bw = port_bw[uid]
        if bw > 0 and bw != float("inf"):
            latency = max(latency, moved / bw)
    result.latency_cycles = latency
    return result
