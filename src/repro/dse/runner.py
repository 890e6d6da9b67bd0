"""The DSE driver: generations of candidate designs, evaluated in
batches through the exploration runtime, folded into a Pareto frontier.

The runner owns the loop glue that every search strategy shares:

* **dedup** — a design evaluated once (this run or in a resumed
  checkpoint) is never re-dispatched; repeats are served from the
  run-level memo at zero cost (on top of the mapping-level
  :class:`~repro.mapping.cache.MappingCache` reuse inside the executor);
* **batching** — each generation becomes one
  :class:`~repro.explore.spec.EvalJob` list run by an
  :class:`~repro.explore.executor.Executor`, so ``jobs=N`` process
  parallelism applies to any strategy for free, with results identical
  to a serial run;
* **scenarios** — the workload may be a
  :class:`~repro.dse.scenario.Scenario`: every design is then evaluated
  against each member workload (one job per pair, still one batch) and
  scored on the weight-averaged objective vector;
* **constraints** — every evaluated design gets a total violation from
  the run's :class:`~repro.dse.constraints.Constraint` list (worst case
  across scenario members per constraint, summed across constraints);
  the frontier and the genetic selection rank under constrained
  dominance, so infeasible designs never displace feasible ones;
* **budget** — an optional cap on fresh *design* evaluations (each
  design costs one cost-model evaluation per scenario member);
* **convergence** — per-generation stats including the frontier
  hypervolume against a reference point fixed after the first
  evaluations (monotone non-decreasing within a run) and, when a
  *reference frontier* is supplied, the additive epsilon of the current
  feasible frontier against it (monotone non-increasing: how far, in
  objective units, the run still is from covering the reference);
* **checkpointing** — evaluated designs and generation stats persist to
  JSON after every generation (stamped with the workload/scenario,
  objectives, space, constraints and search config so a mismatched
  resume is rejected, not silently mixed) and the frontier is rebuilt
  from them exactly on resume.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .. import atomic, obs
from ..explore.executor import Executor
from ..explore.spec import EvalJob
from ..mapping.cost import resolve_objective
from ..obs import ledger
from .constraints import Constraint
from .metrics import additive_epsilon, reference_point
from .pareto import FrontierEntry, ParetoFrontier
from .partition import workload_segments
from .scenario import Scenario, WeightedWorkload
from .search import SearchStrategy, create_strategy
from .space import DesignPoint, DesignSpace

if TYPE_CHECKING:
    from ..workloads.graph import WorkloadGraph

#: On-disk checkpoint format; bump when the encoding changes.
#: 2: entries carry violations; generation stats and the hypervolume
#: reference are persisted; the stamp covers constraints and scenarios.
#: 3: generation stats carry the epsilon-vs-reference-frontier metric.
#: 4: design points (and the space stamp) may carry explicit
#: stack-partition genes ("partition" / "partitions" keys, present only
#: when used, so pre-partition runs still write byte-compatible bodies).
CHECKPOINT_FORMAT_VERSION = 4

#: Formats :meth:`DSERunner._resume` still reads: v2 and v3 differ from
#: v4 only by optional fields (epsilon, partition genes), so rejecting
#: them would throw away paid-for evaluations for no reason.  One
#: exception, gated in :meth:`DSERunner._resume`: pre-v4 runs whose
#: space caps stacks at >= 2 layers were evaluated under the old
#: fuse-depth rule (over-cap segments exploded per layer; they now
#: split into cap-sized chunks), so those cached values would silently
#: mix two cost models.
READABLE_CHECKPOINT_FORMATS = (2, 3, CHECKPOINT_FORMAT_VERSION)


def load_reference_frontier(path: str | Path) -> ParetoFrontier:
    """Load a reference frontier for epsilon convergence tracking.

    Accepts either a bare frontier file (:meth:`ParetoFrontier.save`)
    or a ``repro dse --output`` summary, whose ``"frontier"`` field is
    the same encoding — so any previous run's output doubles as the
    reference for the next.
    """
    source = Path(path)
    try:
        data = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{source}: not a frontier file: {exc}") from exc
    if isinstance(data, dict) and isinstance(data.get("frontier"), dict):
        data = data["frontier"]
    try:
        return ParetoFrontier.from_json(data)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(
            f"{source}: not a frontier file (expected a "
            f"ParetoFrontier checkpoint or a 'repro dse --output' "
            f"summary): {exc}"
        ) from exc


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation progress of one DSE run."""

    index: int
    proposed: int
    evaluated: int
    cached: int
    frontier_size: int
    #: Feasible-frontier hypervolume against the run's fixed reference
    #: point (None until any design has been evaluated).
    hypervolume: float | None = None
    #: Additive epsilon of the feasible frontier vs. the run's reference
    #: frontier (None without a reference, or before any feasible design).
    epsilon: float | None = None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "proposed": self.proposed,
            "evaluated": self.evaluated,
            "cached": self.cached,
            "frontier_size": self.frontier_size,
            "hypervolume": self.hypervolume,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_json(cls, data) -> "GenerationStats":
        return cls(
            index=int(data["index"]),
            proposed=int(data["proposed"]),
            evaluated=int(data["evaluated"]),
            cached=int(data["cached"]),
            frontier_size=int(data["frontier_size"]),
            hypervolume=(
                None
                if data.get("hypervolume") is None
                else float(data["hypervolume"])
            ),
            epsilon=(
                None
                if data.get("epsilon") is None
                else float(data["epsilon"])
            ),
        )


@dataclass
class DSEResult:
    """Outcome of a DSE run."""

    frontier: ParetoFrontier
    evaluations: int
    total_evaluations: int
    generations: list[GenerationStats] = field(default_factory=list)
    evaluated: dict[
        tuple, tuple[DesignPoint, tuple[float, ...], float]
    ] = field(default_factory=dict)
    #: Reference point of the per-generation hypervolume numbers.
    hv_reference: tuple[float, ...] | None = None

    @property
    def infeasible(self) -> list[FrontierEntry]:
        """Every evaluated design violating a constraint, worst last
        (deterministic order: violation, then values, then design key)."""
        entries = [
            FrontierEntry(point=point, values=values, violation=violation)
            for point, values, violation in self.evaluated.values()
            if violation > 0.0
        ]
        return sorted(
            entries, key=lambda e: (e.violation, e.values, e.point.sort_key())
        )

    def describe(self) -> str:
        text = (
            f"{len(self.generations)} generation(s), "
            f"{self.evaluations} evaluation(s) "
            f"({self.total_evaluations} incl. checkpoint), "
            f"frontier size {len(self.frontier)}"
        )
        infeasible = len(self.infeasible)
        if infeasible:
            text += f", {infeasible} infeasible design(s)"
        return text


class DSERunner:
    """Drives one search strategy over a design space for one workload
    or scenario.

    Parameters
    ----------
    space:
        The joint design space to explore.
    workload:
        Zoo name (cheap to ship to workers), a workload object, or a
        :class:`~repro.dse.scenario.Scenario` bundling several weighted
        workloads into one aggregate-objective search.
    objectives:
        Named objectives (see :data:`~repro.mapping.cost.OBJECTIVE_NAMES`),
        all minimized simultaneously; for scenarios each objective is
        the weight-normalized average across member workloads.
    executor:
        Exploration-runtime executor; a private serial one is created
        when omitted.  ``Executor(jobs=N)`` parallelizes every
        generation without changing any result.
    constraints:
        Feasibility filters (:mod:`repro.dse.constraints`); designs with
        a positive total violation are kept out of the frontier whenever
        any feasible design exists, and reported via
        :attr:`DSEResult.infeasible`.
    max_evals:
        Optional cap on fresh design evaluations for the run.
    checkpoint:
        Optional JSON path; loaded (and validated against space,
        workload, objectives and constraints) if it exists, rewritten
        after every generation.
    reference:
        Optional reference frontier (a :class:`ParetoFrontier` tracking
        the same objectives, or raw objective-value rows): each
        generation then also records the additive epsilon of the
        current feasible frontier against it — how far, per objective,
        the run still is from covering the reference set.
    member_segments:
        Optional pre-resolved branch-free segment tables, one per
        scenario member (single workloads count as a one-member
        scenario), for partition-gened spaces — callers that already
        built the tables (the CLI sizes the axis from them) pass them
        here instead of paying the graph construction twice.  Resolved
        automatically when omitted.
    seed:
        Seed of the single rng all strategy randomness flows through.
    """

    def __init__(
        self,
        space: DesignSpace,
        workload: "str | WorkloadGraph | Scenario",
        objectives: Sequence[str] = ("energy",),
        executor: Executor | None = None,
        constraints: Sequence[Constraint] = (),
        max_evals: int | None = None,
        checkpoint: str | Path | None = None,
        reference: "ParetoFrontier | Sequence[Sequence[float]] | None" = None,
        member_segments: (
            "Sequence[tuple[tuple[str, ...], ...]] | None"
        ) = None,
        seed: int = 0,
    ) -> None:
        if max_evals is not None and max_evals < 1:
            raise ValueError(f"max_evals must be >= 1, got {max_evals}")
        self.space = space
        self.workload = workload
        self.objectives = tuple(objectives)
        self._objective_fns = [resolve_objective(name) for name in self.objectives]
        self.executor = executor if executor is not None else Executor()
        self.constraints = tuple(constraints)
        self.max_evals = max_evals
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self._reference_values = self._resolve_reference(reference)
        self.seed = seed
        self._members: tuple[WeightedWorkload, ...] = (
            workload.members
            if isinstance(workload, Scenario)
            else (WeightedWorkload(workload=workload),)
        )
        # Partition genes are segment-relative and workload-specific:
        # resolve each member's branch-free segment table once, so every
        # batch decodes the same genome per workload (a scenario's
        # genome is sized for its largest member; smaller members ignore
        # out-of-range cuts).
        if space.partitions is None:
            self._member_segments = None
        elif member_segments is not None:
            if len(member_segments) != len(self._members):
                raise ValueError(
                    f"{len(member_segments)} segment table(s) for "
                    f"{len(self._members)} scenario member(s)"
                )
            self._member_segments = tuple(member_segments)
        else:
            self._member_segments = (
                workload.segment_tables()
                if isinstance(workload, Scenario)
                else (workload_segments(workload),)
            )

    @property
    def workload_name(self) -> str:
        wl = self.workload
        if isinstance(wl, Scenario):
            return wl.name
        return wl if isinstance(wl, str) else wl.name

    def _resolve_reference(
        self,
        reference: "ParetoFrontier | Sequence[Sequence[float]] | None",
    ) -> "list[tuple[float, ...]] | None":
        """Normalize the reference frontier into objective-value rows
        (feasible entries only for a ParetoFrontier), validating arity."""
        if reference is None:
            return None
        if isinstance(reference, ParetoFrontier):
            if reference.objectives != self.objectives:
                raise ValueError(
                    f"reference frontier tracks {reference.objectives}, "
                    f"this run optimizes {self.objectives}"
                )
            rows = [e.values for e in reference.feasible_entries]
        else:
            rows = [tuple(float(v) for v in row) for row in reference]
        for row in rows:
            if len(row) != len(self.objectives):
                raise ValueError(
                    f"reference row arity {len(row)} != "
                    f"{len(self.objectives)} objectives"
                )
        if not rows:
            raise ValueError("the reference frontier has no feasible entries")
        return rows

    def _frontier_epsilon(self, frontier: ParetoFrontier) -> float | None:
        """Additive epsilon of the current feasible frontier vs. the
        reference (None without a reference or any feasible design)."""
        if self._reference_values is None:
            return None
        values = [e.values for e in frontier.feasible_entries]
        if not values:
            return None
        return additive_epsilon(values, self._reference_values)

    def _workload_token(self):
        """Checkpoint identity of the workload axis: a plain name for a
        single workload, the weighted member list for a scenario."""
        wl = self.workload
        if isinstance(wl, Scenario):
            return wl.token()
        return self.workload_name

    def _checkpoint_stamp(self) -> dict:
        """Everything a checkpoint's cached values depend on: resuming
        under a different stamp would silently mix incomparable
        results, so :meth:`_resume` rejects any mismatch."""
        config = self.executor.search_config
        return {
            "workload": self._workload_token(),
            "objectives": list(self.objectives),
            "space": self.space.to_json(),
            "constraints": [c.token() for c in self.constraints],
            "config": None if config is None else list(config.cache_token()),
        }

    def _member_strategy(self, point: DesignPoint, member_index: int):
        """The DF strategy ``point`` means for one scenario member
        (identical for every member unless the point carries partition
        genes, which decode against the member's segment table)."""
        if point.partition is None or self._member_segments is None:
            return point.strategy()
        return point.strategy(segments=self._member_segments[member_index])

    # ------------------------------------------------------------------
    def _evaluate_fresh(
        self, fresh: Sequence[DesignPoint]
    ) -> list[tuple[tuple[float, ...], float]]:
        """Evaluate a batch of designs (one job per design x scenario
        member), returning per-design (aggregate values, violation).
        Partition genes decode per member: the same segment-relative
        cuts become each workload's own explicit stacks."""
        members = self._members
        jobs = [
            EvalJob(
                accelerator=point.accelerator,
                workload=member.workload,
                strategy=self._member_strategy(point, index),
                tag="dse",
            )
            for point in fresh
            for index, member in enumerate(members)
        ]
        results = self.executor.run(jobs)
        total_weight = sum(m.weight for m in members)
        out: list[tuple[tuple[float, ...], float]] = []
        for i, point in enumerate(fresh):
            chunk = results[i * len(members) : (i + 1) * len(members)]
            values = tuple(
                sum(
                    m.weight * fn(r.result.total)
                    for m, r in zip(members, chunk)
                )
                / total_weight
                for fn in self._objective_fns
            )
            # Feasibility is per member: the chip must run every
            # workload, so each constraint contributes its worst-case
            # violation across the scenario.
            violation = sum(
                max(c.violation(point, r.result) for r in chunk)
                for c in self.constraints
            )
            out.append((values, float(violation)))
        return out

    # ------------------------------------------------------------------
    def run(self, strategy: "SearchStrategy | str") -> DSEResult:
        """Execute the search to completion (or budget exhaustion)."""
        if isinstance(strategy, str):
            strategy = create_strategy(strategy)
        rng = random.Random(self.seed)
        strategy.reset(self.space, rng)

        frontier = ParetoFrontier(self.objectives)
        seen: dict[tuple, tuple[DesignPoint, tuple[float, ...], float]] = {}
        with obs.span(
            "dse.run",
            workload=self.workload_name,
            strategy=type(strategy).__name__,
            space=self.space.size,
        ):
            prior_evals, stats, hv_reference = self._resume(frontier, seen)

            evals_run = 0
            while True:
                batch = strategy.propose()
                if not batch:
                    break
                with obs.span("dse.generation", index=len(stats)) as gen_span:
                    unique: list[DesignPoint] = []
                    keys: set[tuple] = set()
                    for point in batch:
                        if point.key() not in keys:
                            keys.add(point.key())
                            unique.append(point)

                    fresh = [p for p in unique if p.key() not in seen]
                    if self.max_evals is not None:
                        allow = max(0, self.max_evals - evals_run)
                        truncated = len(fresh) > allow
                        fresh = fresh[:allow]
                    else:
                        truncated = False

                    if fresh:
                        for point, (values, violation) in zip(
                            fresh, self._evaluate_fresh(fresh)
                        ):
                            seen[point.key()] = (point, values, violation)
                            frontier.offer(point, values, violation)
                        evals_run += len(fresh)

                    evaluated = [seen[p.key()] for p in unique if p.key() in seen]
                    strategy.observe(evaluated)
                    if hv_reference is None and seen:
                        # Fix the reference after the first evaluations;
                        # from here on the per-generation hypervolume is
                        # monotone.
                        hv_reference = reference_point(
                            [values for _, values, _ in seen.values()]
                        )
                    generation = GenerationStats(
                        index=len(stats),
                        proposed=len(batch),
                        evaluated=len(fresh),
                        cached=len(evaluated) - len(fresh),
                        frontier_size=len(frontier),
                        hypervolume=(
                            None
                            if hv_reference is None
                            else frontier.hypervolume(hv_reference)
                        ),
                        epsilon=self._frontier_epsilon(frontier),
                    )
                    stats.append(generation)
                    run_record = ledger.active_run()
                    if run_record is not None:
                        # Streamed per generation so a crashed search
                        # keeps its partial convergence series.
                        run_record.add_convergence(
                            {
                                **generation.to_json(),
                                "evaluations": prior_evals + evals_run,
                            }
                        )
                    gen_span.set(
                        proposed=len(batch),
                        evaluated=len(fresh),
                        cached=generation.cached,
                        frontier_size=len(frontier),
                    )
                    if obs.enabled:
                        self._record_generation(
                            generation, prior_evals + evals_run
                        )
                    with obs.span("dse.checkpoint"):
                        self._save_checkpoint(
                            seen, prior_evals + evals_run, stats, hv_reference
                        )
                if truncated:
                    break

        return DSEResult(
            frontier=frontier,
            evaluations=evals_run,
            total_evaluations=prior_evals + evals_run,
            generations=stats,
            evaluated=seen,
            hv_reference=hv_reference,
        )

    @staticmethod
    def _record_generation(
        generation: GenerationStats, total_evaluations: int
    ) -> None:
        """Publish one generation's convergence state as gauges (latest
        value wins, which is exactly the run's current state)."""
        registry = obs.metrics()
        registry.counter("dse_generations_total").inc()
        registry.gauge("dse_evaluations").set(total_evaluations)
        registry.gauge("dse_frontier_size").set(generation.frontier_size)
        if generation.hypervolume is not None:
            registry.gauge("dse_hypervolume").set(generation.hypervolume)
        if generation.epsilon is not None:
            registry.gauge("dse_epsilon").set(generation.epsilon)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _resume(
        self,
        frontier: ParetoFrontier,
        seen: dict[tuple, tuple[DesignPoint, tuple[float, ...], float]],
    ) -> tuple[int, list[GenerationStats], tuple[float, ...] | None]:
        """Prime frontier and memo from the checkpoint file, if any.
        Returns (evaluations already paid for, prior generation stats,
        the persisted hypervolume reference point)."""
        if self.checkpoint is None or not self.checkpoint.exists():
            return 0, [], None
        try:
            data = json.loads(self.checkpoint.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(
                f"{self.checkpoint}: not a DSE checkpoint: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"{self.checkpoint}: not a DSE checkpoint (expected an object)"
            )
        if data.get("format") not in READABLE_CHECKPOINT_FORMATS:
            raise ValueError(
                f"{self.checkpoint}: unsupported DSE checkpoint format "
                f"{data.get('format')!r} (expected one of "
                f"{READABLE_CHECKPOINT_FORMATS})"
            )
        if data.get("format") != CHECKPOINT_FORMAT_VERSION and any(
            depth is not None and depth > 1 for depth in self.space.fuse_depths
        ):
            # Depths of None (no cap) and 1 (per-layer) evaluate
            # identically under both rules, so only capped grids are
            # stale.
            raise ValueError(
                f"{self.checkpoint}: format {data.get('format')} "
                "checkpoints predate the fuse-depth chunking rule "
                "(over-cap segments now split into cap-sized chunks "
                "instead of per-layer stacks), so its fuse-capped "
                "evaluations are stale; delete the checkpoint to "
                "re-evaluate"
            )
        for field_name, expected in self._checkpoint_stamp().items():
            if data.get(field_name) != expected:
                raise ValueError(
                    f"{self.checkpoint}: checkpoint {field_name} does not match "
                    f"this run (checkpointed {data.get(field_name)!r})"
                )
        try:
            for raw_point, raw_values, *rest in data.get("evaluated", []):
                point = DesignPoint.from_json(raw_point)
                values = tuple(float(v) for v in raw_values)
                violation = float(rest[0]) if rest else 0.0
                seen[point.key()] = (point, values, violation)
                frontier.offer(point, values, violation)
            stats = [
                GenerationStats.from_json(raw)
                for raw in data.get("generations", [])
            ]
            raw_ref = data.get("hv_reference")
            hv_reference = (
                None if raw_ref is None else tuple(float(v) for v in raw_ref)
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(
                f"{self.checkpoint}: malformed DSE checkpoint entry: {exc!r}"
            ) from exc
        return int(data.get("evaluations", len(seen))), stats, hv_reference

    def _save_checkpoint(
        self,
        seen: dict[tuple, tuple[DesignPoint, tuple[float, ...], float]],
        evaluations: int,
        stats: Sequence[GenerationStats],
        hv_reference: tuple[float, ...] | None,
    ) -> None:
        if self.checkpoint is None:
            return
        payload = {
            "format": CHECKPOINT_FORMAT_VERSION,
            **self._checkpoint_stamp(),
            "evaluations": evaluations,
            "generations": [s.to_json() for s in stats],
            "hv_reference": (
                None if hv_reference is None else list(hv_reference)
            ),
            # Evaluation order, not sorted: _resume re-offers in this
            # order, reproducing the original frontier tie-breaks.
            "evaluated": [
                [point.to_json(), list(values), violation]
                for point, values, violation in seen.values()
            ],
        }
        # Atomic: an interrupt mid-write must never tear the checkpoint
        # the next run resumes from.
        atomic.write_text(self.checkpoint, json.dumps(payload))
