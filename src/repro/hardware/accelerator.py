"""Accelerator model: PE array with spatial unrolling + memory hierarchy.

This is the "HW Architecture" input of DeFiNES (Fig. 5): an array of
processing elements whose spatial unrolling is expressed over the layer
loop dimensions (e.g. ``K 32 | C 2 | OX 4 | OY 4``), plus a per-operand
multi-level memory hierarchy in which levels can be shared between
operands and topped by DRAM.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..workloads.layer import LOOP_DIMS, LayerSpec
from . import energy as energy_model
from .memory import OPERANDS, MemoryInstance, MemoryLevel


@dataclass(frozen=True)
class Accelerator:
    """A DNN accelerator: PE array + memory hierarchy.

    Parameters
    ----------
    name:
        Architecture name (Table I(a) naming).
    spatial_unrolling:
        Loop dimension -> spatial unroll factor.  The PE count is the
        product of the factors.
    levels:
        Memory levels ordered from lowest (closest to the PEs) to highest;
        the highest level serving each operand must be DRAM.  An operand's
        hierarchy is the subsequence of levels serving it.
    mac_energy_pj:
        Energy of one MAC operation.
    """

    name: str
    spatial_unrolling: Mapping[str, int]
    levels: tuple[MemoryLevel, ...]
    mac_energy_pj: float = energy_model.MAC_ENERGY_PJ

    def __post_init__(self) -> None:
        for dim, factor in self.spatial_unrolling.items():
            if dim not in LOOP_DIMS:
                raise ValueError(f"{self.name}: unknown spatial dim {dim!r}")
            if factor < 1:
                raise ValueError(f"{self.name}: unroll {dim}={factor} must be >= 1")
        for operand in OPERANDS:
            hierarchy = self.hierarchy(operand)
            if not hierarchy:
                raise ValueError(f"{self.name}: operand {operand} has no memory")
            if not hierarchy[-1].instance.is_dram:
                raise ValueError(
                    f"{self.name}: top level for {operand} must be DRAM, "
                    f"got {hierarchy[-1].name}"
                )

    # ------------------------------------------------------------------
    # PE array
    # ------------------------------------------------------------------
    @property
    def pe_count(self) -> int:
        """Number of MAC units (product of the spatial unroll factors)."""
        count = 1
        for factor in self.spatial_unrolling.values():
            count *= factor
        return count

    def utilized_unroll(self, layer: LayerSpec, dim: str) -> float:
        """Average utilized spatial unroll of ``dim`` for ``layer``.

        A layer dimension smaller than (or not divisible by) the unroll
        factor under-utilizes the array: e.g. a (1,1) tile on an
        ``OX 4 | OY 4`` array uses 1 of 16 lanes, which is what inflates
        weight local-buffer traffic in the paper's Fig. 14(b).
        """
        unroll = self.spatial_unrolling.get(dim, 1)
        size = layer.loop_sizes[dim]
        return size / math.ceil(size / unroll)

    def spatial_utilization(self, layer: LayerSpec) -> float:
        """Fraction of the PE array doing useful work for ``layer``."""
        used = 1.0
        for dim, unroll in self.spatial_unrolling.items():
            used *= self.utilized_unroll(layer, dim) / unroll
        return used

    def spatial_reuse(self, layer: LayerSpec, operand: str) -> float:
        """How many PEs one fetched word of ``operand`` serves spatially.

        The product of utilized unrolls over dimensions irrelevant to the
        operand (broadcast for W/I, spatial psum reduction for O).
        """
        relevant = layer.relevant_dims(operand)
        reuse = 1.0
        for dim in self.spatial_unrolling:
            if dim not in relevant:
                reuse *= self.utilized_unroll(layer, dim)
        return reuse

    # ------------------------------------------------------------------
    # Memory hierarchy
    # ------------------------------------------------------------------
    def memo(self, name: str, build):
        """Per-instance memo for derived tables, here and in the modules
        that read the levels: a frozen accelerator's levels never change,
        so each table is built once.  ``name`` must start with ``_``.
        Memos live in ``__dict__`` and are dropped on pickling
        (:meth:`__getstate__`); ``dataclasses.replace`` builds a fresh
        instance without them."""
        cached = self.__dict__.get(name)
        if cached is None:
            cached = build()
            object.__setattr__(self, name, cached)
        return cached

    def __getstate__(self) -> dict:
        # The level-rank memo is keyed by id(), which an unpickled copy
        # does not share; every memo is cheap to rebuild.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def hierarchy(self, operand: str) -> tuple[MemoryLevel, ...]:
        """The operand's memory levels, lowest first, DRAM last."""
        hierarchy = self.memo("_hierarchies", self._build_hierarchies).get(operand)
        if hierarchy is None:
            raise ValueError(f"unknown operand {operand!r}")
        return hierarchy

    def _build_hierarchies(self) -> dict[str, tuple[MemoryLevel, ...]]:
        return {
            op: tuple(lvl for lvl in self.levels if lvl.serves(op))
            for op in OPERANDS
        }

    def top_level_index(self, operand: str) -> int:
        """Index of DRAM in the operand's hierarchy."""
        tops = self.memo(
            "_top_indices",
            lambda: {op: len(self.hierarchy(op)) - 1 for op in OPERANDS},
        )
        if operand not in tops:
            raise ValueError(f"unknown operand {operand!r}")
        return tops[operand]

    def level_rank(self, level: MemoryLevel) -> int:
        """Global position of a level (for cross-operand comparisons and
        Fig. 9-style 'Reg < LB < GB < DRAM' reporting)."""
        ranks = self.memo(
            "_level_ranks",
            lambda: {id(lvl): self._scan_rank(lvl) for lvl in self.levels},
        )
        rank = ranks.get(id(level))
        return rank if rank is not None else self._scan_rank(level)

    def _scan_rank(self, level: MemoryLevel) -> int:
        for rank, candidate in enumerate(self.levels):
            if candidate is level or candidate == level:
                return rank
        raise ValueError(f"{level.name} is not a level of {self.name}")

    def instances(self) -> list[MemoryInstance]:
        """Distinct physical memory instances (shared ones deduplicated)."""
        seen: dict[int, MemoryInstance] = {}
        for lvl in self.levels:
            seen.setdefault(lvl.instance.uid, lvl.instance)
        return list(seen.values())

    def instances_by_uid(self) -> dict[int, MemoryInstance]:
        """Memoized uid -> instance table.  The cost model resolves
        bandwidth limits through this on every mapping evaluation, so the
        table is built once per accelerator, not once per call (the
        instances of a frozen accelerator never change)."""
        return self.memo(
            "_instances_by_uid",
            lambda: {inst.uid: inst for inst in self.instances()},
        )

    def on_chip_capacity_bytes(self) -> int:
        """Total on-chip memory capacity (excludes DRAM)."""
        return sum(
            inst.size_bytes for inst in self.instances() if not inst.is_dram
        )

    def activation_capacity_bytes(self) -> int:
        """On-chip capacity available to activations: the summed size of
        distinct non-DRAM, non-per-PE instances serving I or O.  This is
        the budget the DSE memory-budget feasibility filter checks
        activation footprints against."""
        seen: dict[int, MemoryInstance] = {}
        for lvl in self.levels:
            if lvl.operands & {"I", "O"}:
                inst = lvl.instance
                if not inst.is_dram and not inst.per_pe:
                    seen.setdefault(inst.uid, inst)
        return sum(inst.size_bytes for inst in seen.values())

    def top_weight_buffer(self) -> MemoryLevel | None:
        """Highest on-chip level that stores weights, used by the automatic
        fuse-depth rule (Section III 'Inputs')."""
        candidates = [
            lvl for lvl in self.hierarchy("W") if not lvl.instance.is_dram
        ]
        return candidates[-1] if candidates else None

    def fingerprint(self) -> str:
        """Structural identity digest, stable across processes and runs.

        Covers everything the cost model reads: name, spatial unrolling,
        MAC energy, and each level's operands plus the physical instance
        parameters (sharing is captured positionally: levels backed by
        the same instance repeat the same local index).  Used to key
        persistent mapping caches, where ``id()``-based identity would
        not survive a round trip through disk or a worker process.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        local_idx: dict[int, int] = {}
        parts = [
            self.name,
            repr(sorted(self.spatial_unrolling.items())),
            repr(self.mac_energy_pj),
        ]
        for lvl in self.levels:
            inst = lvl.instance
            idx = local_idx.setdefault(inst.uid, len(local_idx))
            parts.append(
                f"{''.join(sorted(lvl.operands))}@{idx}:{inst.name},"
                f"{inst.size_bytes},{inst.r_energy_pj_per_byte!r},"
                f"{inst.w_energy_pj_per_byte!r},{inst.bandwidth_bytes!r},"
                f"{inst.ports},{inst.per_pe},{inst.tier}"
            )
        digest = hashlib.sha1("|".join(parts).encode()).hexdigest()[:16]
        fp = f"{self.name}:{digest}"
        object.__setattr__(self, "_fingerprint", fp)
        return fp

    def describe(self) -> str:
        """One-line summary used by reports and examples."""
        unroll = " | ".join(f"{d} {f}" for d, f in self.spatial_unrolling.items())
        mems = ", ".join(
            f"{inst.name}:{inst.size_bytes // 1024}KB"
            for inst in self.instances()
            if not inst.is_dram
        )
        return f"{self.name}: {self.pe_count} MACs ({unroll}); {mems}"


def build_accelerator(
    name: str,
    spatial_unrolling: Mapping[str, int],
    levels: Sequence[MemoryLevel],
    mac_energy_pj: float = energy_model.MAC_ENERGY_PJ,
) -> Accelerator:
    """Convenience constructor with list input for ``levels``."""
    return Accelerator(
        name=name,
        spatial_unrolling=dict(spatial_unrolling),
        levels=tuple(levels),
        mac_energy_pj=mac_energy_pj,
    )
