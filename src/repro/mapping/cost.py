"""Cost containers shared by the mapping layer and the DeFiNES core.

All energies are in pJ, all latencies in cycles, all access counts in
data elements (the unit of the paper's Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

#: Key of a traffic entry: (operand-or-category, memory level name).
TrafficKey = tuple[str, str]


@dataclass
class Traffic:
    """Access counts and energies at one memory for one data category."""

    reads_elems: float = 0.0
    writes_elems: float = 0.0
    energy_pj: float = 0.0

    def add(self, other: "Traffic", scale: float = 1.0) -> None:
        """Accumulate ``other`` (optionally scaled) into this entry."""
        self.reads_elems += other.reads_elems * scale
        self.writes_elems += other.writes_elems * scale
        self.energy_pj += other.energy_pj * scale

    @property
    def accesses_elems(self) -> float:
        """Total reads+writes in elements."""
        return self.reads_elems + self.writes_elems


@dataclass
class CostResult:
    """Energy/latency/traffic of one evaluation (a layer-tile, a data copy
    bundle, or an accumulated schedule)."""

    mac_count: float = 0.0
    mac_energy_pj: float = 0.0
    compute_cycles: float = 0.0
    latency_cycles: float = 0.0
    traffic: dict[TrafficKey, Traffic] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def traffic_entry(self, category: str, level_name: str) -> Traffic:
        """Get-or-create the traffic entry for (category, level)."""
        key = (category, level_name)
        entry = self.traffic.get(key)
        if entry is None:
            entry = Traffic()
            self.traffic[key] = entry
        return entry

    @property
    def memory_energy_pj(self) -> float:
        """Total memory access energy."""
        return sum(t.energy_pj for t in self.traffic.values())

    @property
    def energy_pj(self) -> float:
        """Total energy (MAC + memory)."""
        return self.mac_energy_pj + self.memory_energy_pj

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ x cycles)."""
        return self.energy_pj * self.latency_cycles

    # ------------------------------------------------------------------
    def accesses(
        self,
        categories: tuple[str, ...] | None = None,
        level_names: tuple[str, ...] | None = None,
    ) -> float:
        """Total element accesses, optionally filtered by data category
        (operand or 'copy') and/or memory level name."""
        total = 0.0
        for (category, level_name), t in self.traffic.items():
            if categories is not None and category not in categories:
                continue
            if level_names is not None and level_name not in level_names:
                continue
            total += t.accesses_elems
        return total

    def energy_of(
        self,
        categories: tuple[str, ...] | None = None,
        level_names: tuple[str, ...] | None = None,
    ) -> float:
        """Memory energy filtered like :meth:`accesses`."""
        total = 0.0
        for (category, level_name), t in self.traffic.items():
            if categories is not None and category not in categories:
                continue
            if level_names is not None and level_name not in level_names:
                continue
            total += t.energy_pj
        return total

    # ------------------------------------------------------------------
    def add(self, other: "CostResult", scale: float = 1.0) -> None:
        """Accumulate another result; latencies add (tiles run serially)."""
        self.mac_count += other.mac_count * scale
        self.mac_energy_pj += other.mac_energy_pj * scale
        self.compute_cycles += other.compute_cycles * scale
        self.latency_cycles += other.latency_cycles * scale
        # traffic_entry(*key), inlined (no key tuple rebuilt per entry):
        # the hottest loop of step 6.
        traffic = self.traffic
        for key, t in other.traffic.items():
            entry = traffic.get(key)
            if entry is None:
                entry = traffic[key] = Traffic()
            entry.add(t, scale)

    @classmethod
    def from_arrays(
        cls,
        index: int,
        mac_count: float,
        mac_energy_pj: float,
        compute_cycles: float,
        latency_cycles: "Sequence[float]",
        traffic: Mapping[TrafficKey, tuple],
    ) -> "CostResult":
        """Materialize one candidate's cost from batched arrays.

        ``latency_cycles`` is a per-candidate vector and ``traffic`` maps
        each (category, level) key to a ``(reads, writes, energy)`` array
        triple whose leading axis is the candidate index — the layout the
        vectorized engine (:mod:`repro.mapping.batch`) produces.  Field
        types mirror the scalar path exactly (counts stay ints, traffic
        becomes plain floats) so encoded cache entries are byte-identical.
        """
        result = cls(
            mac_count=mac_count,
            mac_energy_pj=mac_energy_pj,
            compute_cycles=compute_cycles,
            latency_cycles=float(latency_cycles[index]),
        )
        for key, (reads, writes, energy) in traffic.items():
            result.traffic[key] = Traffic(
                float(reads[index]), float(writes[index]), float(energy[index])
            )
        return result

    def copy(self) -> "CostResult":
        """Deep copy."""
        out = CostResult(
            mac_count=self.mac_count,
            mac_energy_pj=self.mac_energy_pj,
            compute_cycles=self.compute_cycles,
            latency_cycles=self.latency_cycles,
        )
        for key, t in self.traffic.items():
            out.traffic[key] = Traffic(t.reads_elems, t.writes_elems, t.energy_pj)
        return out


#: An optimization objective maps a cost result to a scalar to minimize.
Objective = Callable[[CostResult], float]

_OBJECTIVES: Mapping[str, Objective] = {
    "energy": lambda c: c.energy_pj,
    "latency": lambda c: c.latency_cycles,
    "edp": lambda c: c.edp,
    "dram_accesses": lambda c: c.accesses(level_names=("DRAM",)),
    "activation_energy": lambda c: c.energy_of(categories=("I", "O", "copy")),
    # Traffic split for the multi-objective DSE: element accesses that
    # cross the chip boundary vs. those served on chip.
    "offchip_traffic": lambda c: c.accesses(level_names=("DRAM",)),
    "onchip_traffic": lambda c: c.accesses() - c.accesses(level_names=("DRAM",)),
}

#: The named objectives, for CLI choices and validation.
OBJECTIVE_NAMES: tuple[str, ...] = tuple(sorted(_OBJECTIVES))


def resolve_objective(objective: str | Objective) -> Objective:
    """Resolve an objective name (Section V-A: users can self-define the
    optimizing target) or pass a callable through."""
    if callable(objective):
        return objective
    try:
        return _OBJECTIVES[objective]
    except KeyError as exc:
        known = ", ".join(sorted(_OBJECTIVES))
        raise KeyError(f"unknown objective {objective!r}; known: {known}") from exc


def validate_objectives(names: "Sequence[str]") -> tuple[str, ...]:
    """Check a user-supplied objective-name list, returning it as a
    tuple; raises a ``ValueError`` naming the valid objectives on the
    first unknown or duplicated name (the CLI/report-friendly
    counterpart of :func:`resolve_objective`'s ``KeyError``)."""
    for name in names:
        if name not in _OBJECTIVES:
            raise ValueError(
                f"unknown objective {name!r}; choose from: "
                f"{', '.join(OBJECTIVE_NAMES)}"
            )
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate objectives: {', '.join(names)}")
    return tuple(names)
