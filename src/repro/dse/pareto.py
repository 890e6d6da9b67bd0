"""Incremental Pareto frontier over minimized objective vectors.

The DSE subsystem never reduces a design to a single scalar: every
evaluated point carries one value per objective (all minimized), and the
frontier keeps exactly the non-dominated set, pruning dominated entries
as better points arrive.  The same dominance machinery (non-dominated
ranks, crowding distances) drives the genetic searcher's selection.

Dominance is *constraint-aware* (Deb's constrained-dominance rules):
every candidate carries a total constraint violation (0.0 = feasible),
a lower violation always beats a higher one, and objective values only
decide between candidates with equal violation.  A single feasible
point therefore evicts every infeasible entry from the frontier, while
an all-infeasible frontier ranks its entries by how close they are to
feasibility — the search never loses gradient toward the feasible
region.

Frontiers checkpoint to JSON and resume exactly, so long explorations
survive interruption and repeated runs refine rather than restart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .. import atomic
from .space import DesignPoint

#: On-disk checkpoint format; bump when the encoding changes.
FRONTIER_FORMAT_VERSION = 1


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether vector ``a`` Pareto-dominates ``b`` (all objectives
    minimized): no worse everywhere, strictly better somewhere."""
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def constrained_dominates(
    a: Sequence[float],
    b: Sequence[float],
    violation_a: float = 0.0,
    violation_b: float = 0.0,
) -> bool:
    """Constrained dominance (Deb): a lower total violation always wins
    (a feasible point has violation 0.0, so it beats every infeasible
    one); equal violations fall back to Pareto dominance on the
    objective values."""
    if violation_a != violation_b:
        return violation_a < violation_b
    return dominates(a, b)


def nondominated_ranks(
    values: Sequence[Sequence[float]],
    violations: Sequence[float] | None = None,
) -> list[int]:
    """Rank each vector by non-dominated front: 0 for the Pareto front,
    1 for the front once rank 0 is removed, and so on (NSGA-II style).
    With ``violations``, fronts are built under constrained dominance,
    so all feasible fronts precede all infeasible ones."""
    n = len(values)
    if violations is not None and len(violations) != n:
        raise ValueError(
            f"{len(violations)} violations for {n} value vectors"
        )

    def dom(i: int, j: int) -> bool:
        if violations is None:
            return dominates(values[i], values[j])
        return constrained_dominates(
            values[i], values[j], violations[i], violations[j]
        )

    dominated_by = [0] * n  # how many vectors dominate values[i]
    dominating: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if dom(i, j):
                dominated_by[j] += 1
                dominating[i].append(j)
            elif dom(j, i):
                dominated_by[i] += 1
                dominating[j].append(i)
    ranks = [0] * n
    front = [i for i in range(n) if dominated_by[i] == 0]
    rank = 0
    while front:
        next_front: list[int] = []
        for i in front:
            ranks[i] = rank
            for j in dominating[i]:
                dominated_by[j] -= 1
                if dominated_by[j] == 0:
                    next_front.append(j)
        front = next_front
        rank += 1
    return ranks


def crowding_distances(values: Sequence[Sequence[float]]) -> list[float]:
    """NSGA-II crowding distance per vector (larger = less crowded;
    boundary points get infinity).  Used as a diversity tie-break."""
    n = len(values)
    if n == 0:
        return []
    distances = [0.0] * n
    objectives = len(values[0])
    for m in range(objectives):
        order = sorted(range(n), key=lambda i: values[i][m])
        lo, hi = values[order[0]][m], values[order[-1]][m]
        distances[order[0]] = distances[order[-1]] = float("inf")
        if hi == lo:
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            if distances[i] == float("inf"):
                continue
            gap = values[order[pos + 1]][m] - values[order[pos - 1]][m]
            distances[i] += gap / (hi - lo)
    return distances


@dataclass(frozen=True)
class FrontierEntry:
    """One non-dominated design with its objective values and total
    constraint violation (0.0 = feasible)."""

    point: DesignPoint
    values: tuple[float, ...]
    violation: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0

    def to_json(self) -> dict:
        data = {"point": self.point.to_json(), "values": list(self.values)}
        if self.violation:
            data["violation"] = self.violation
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "FrontierEntry":
        return cls(
            point=DesignPoint.from_json(data["point"]),
            values=tuple(float(v) for v in data["values"]),
            violation=float(data.get("violation", 0.0)),
        )


class ParetoFrontier:
    """The incremental constrained-non-dominated set for a fixed
    objective tuple.

    ``offer`` is the single mutation point: a candidate is accepted iff
    no current entry constrained-dominates it (and it is not a duplicate
    design); entries the candidate dominates are pruned.  A feasible
    candidate therefore evicts every infeasible entry; while no feasible
    design has been seen, the frontier holds the least-violating
    candidates so the search can report how far from feasibility it is.
    Reported ``entries`` are sorted by (violation, objective vector,
    design key), so two runs that evaluated the same points report
    bit-identical frontiers whatever order the offers arrived in.
    """

    def __init__(self, objectives: Sequence[str]) -> None:
        if not objectives:
            raise ValueError("a Pareto frontier needs at least one objective")
        if len(set(objectives)) != len(objectives):
            raise ValueError(f"duplicate objectives: {objectives}")
        self.objectives = tuple(objectives)
        self._entries: list[FrontierEntry] = []
        self.offered = 0
        self.accepted = 0
        self.pruned = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[FrontierEntry]:
        """Non-dominated entries, deterministically ordered."""
        return sorted(
            self._entries,
            key=lambda e: (e.violation, e.values, e.point.sort_key()),
        )

    @property
    def feasible_entries(self) -> list[FrontierEntry]:
        """The entries with zero constraint violation (ordered like
        :attr:`entries`; empty while no feasible design has been seen)."""
        return [e for e in self.entries if e.feasible]

    def offer(
        self,
        point: DesignPoint,
        values: Sequence[float],
        violation: float = 0.0,
    ) -> bool:
        """Propose an evaluated design; returns whether it was kept.
        ``violation`` is the design's total constraint violation
        (0.0 = feasible); it must never be negative."""
        vec = tuple(float(v) for v in values)
        if len(vec) != len(self.objectives):
            raise ValueError(
                f"expected {len(self.objectives)} objective values, got {len(vec)}"
            )
        violation = float(violation)
        if violation < 0.0:
            raise ValueError(f"violation must be >= 0, got {violation}")
        self.offered += 1
        key = point.key()
        for entry in self._entries:
            if (
                constrained_dominates(
                    entry.values, vec, entry.violation, violation
                )
                or entry.point.key() == key
            ):
                return False
        survivors = [
            e
            for e in self._entries
            if not constrained_dominates(vec, e.values, violation, e.violation)
        ]
        self.pruned += len(self._entries) - len(survivors)
        survivors.append(
            FrontierEntry(point=point, values=vec, violation=violation)
        )
        self._entries = survivors
        self.accepted += 1
        return True

    def merge(self, other: "ParetoFrontier") -> int:
        """Offer every entry of ``other``; returns how many were kept."""
        if other.objectives != self.objectives:
            raise ValueError(
                f"objective mismatch: {other.objectives} vs {self.objectives}"
            )
        return sum(
            1
            for e in other.entries
            if self.offer(e.point, e.values, e.violation)
        )

    def _objective_index(self, objective: str) -> int:
        try:
            return self.objectives.index(objective)
        except ValueError:
            raise ValueError(
                f"unknown objective {objective!r}; this frontier tracks: "
                f"{', '.join(self.objectives)}"
            ) from None

    def best(self, objective: str) -> FrontierEntry:
        """The entry minimizing one of the frontier's objectives.

        Feasible entries always beat infeasible ones; within the same
        feasibility, exact ties resolve to the *first-offered* entry —
        the classic ``min()``-over-sweep-order semantics, so a
        degenerate single-objective exhaustive DSE picks the very same
        point as ``best_point`` does (``_entries`` preserves offer
        order).
        """
        index = self._objective_index(objective)
        best_entry: FrontierEntry | None = None
        for entry in self._entries:
            if best_entry is None or (
                (entry.violation, entry.values[index])
                < (best_entry.violation, best_entry.values[index])
            ):
                best_entry = entry
        if best_entry is None:
            raise ValueError("the frontier is empty")
        return best_entry

    def hypervolume(
        self,
        reference: Sequence[float],
        samples: int | None = None,
        seed: int = 0,
    ) -> float:
        """Hypervolume of the *feasible* entries up to ``reference``
        (see :func:`~repro.dse.metrics.hypervolume`); 0.0 while the
        frontier holds no feasible design.  With a fixed reference this
        is monotone non-decreasing under :meth:`offer`."""
        from .metrics import DEFAULT_HV_SAMPLES, hypervolume

        return hypervolume(
            [e.values for e in self._entries if e.feasible],
            reference,
            samples=DEFAULT_HV_SAMPLES if samples is None else samples,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "format": FRONTIER_FORMAT_VERSION,
            "objectives": list(self.objectives),
            # Offer order, not the sorted report order: from_json
            # re-offers in this order, so the first-offered tie-break
            # of best() survives a save/load round trip.
            "entries": [e.to_json() for e in self._entries],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ParetoFrontier":
        if data.get("format") != FRONTIER_FORMAT_VERSION:
            raise ValueError(
                f"unsupported frontier format {data.get('format')!r} "
                f"(expected {FRONTIER_FORMAT_VERSION})"
            )
        frontier = cls(tuple(data["objectives"]))
        for raw in data["entries"]:
            entry = FrontierEntry.from_json(raw)
            frontier.offer(entry.point, entry.values, entry.violation)
        return frontier

    def save(self, path: str | Path) -> Path:
        # Atomic, like the runner's checkpoint: never tear the file an
        # interrupted run will resume from.
        return atomic.write_text(path, json.dumps(self.to_json()))

    @classmethod
    def load(cls, path: str | Path) -> "ParetoFrontier":
        return cls.from_json(json.loads(Path(path).read_text()))
