"""Sweep executor: runs :class:`~repro.explore.spec.SweepSpec` job
lists serially or across the shards of an evaluation service.

Design rules:

* **Determinism** — results come back in job order and the parallel
  path is bit-identical to the serial one: every job is an independent
  evaluation, and the mapping search is deterministic, so cache state
  (cold, warm, or pre-warmed) never changes a result, only how fast it
  is produced.
* **One parallel path** — every multi-job batch with ``jobs > 1`` runs
  on a long-lived :class:`~repro.serve.service.EvalService`, which
  pre-warms its shards with the executor's
  :class:`~repro.mapping.cache.MappingCache` and merges their new
  entries and hit/miss counts back, so a subsequent run (or a
  :meth:`~repro.mapping.cache.MappingCache.save`) benefits from
  everything any shard learned.
* **Shipping** — jobs may reference zoo workloads/accelerators by name,
  which keeps the pickled payload tiny; objects are pickled as-is.
"""

from __future__ import annotations

import os
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .. import collector, obs
from ..core.backcalc import AxisMemo
from ..core.results import ScheduleResult, StackResult
from ..core.scheduler import DepthFirstEngine
from ..core.stacks import Stack
from ..core.strategy import DFStrategy
from ..mapping.cache import MappingCache
from ..mapping.cost import Objective, resolve_objective
from ..mapping.loma import SearchConfig
from .spec import EvalJob, SweepSpec


@dataclass(frozen=True)
class EvalResult:
    """One evaluated job: a ``ScheduleResult`` for ``"schedule"`` jobs,
    a ``StackResult`` for ``"stack"`` jobs."""

    job: EvalJob
    result: "ScheduleResult | StackResult"
    index: int

    @property
    def strategy(self) -> DFStrategy:
        """The evaluated strategy (``SweepPoint``-compatible)."""
        return self.job.strategy

    def score(self, objective: "str | Objective") -> float:
        return resolve_objective(objective)(self.result.total)


def _resolve_accelerator(ref):
    if isinstance(ref, str):
        from ..hardware.zoo import get_accelerator

        return get_accelerator(ref)
    return ref


def _resolve_workload(ref):
    if isinstance(ref, str):
        from ..workloads.zoo import get_workload

        return get_workload(ref)
    return ref


def _ref_key(ref) -> "str | int":
    return ref if isinstance(ref, str) else id(ref)


class _JobRunner:
    """Evaluates jobs against per-accelerator engines sharing one
    mapping cache and one back-calculation memo.

    The serial backend keeps one for its executor's lifetime and a
    service shard one for its own, so engines (their problem tables and
    known-infeasible problems) and resolved zoo objects carry over from
    batch to batch.  Object references memoize by ``id()``, which a
    service shard sees fresh in every chunk it unpickles — so both memos
    are capacity-bounded (oldest out) to keep a long-lived runner's
    memory flat; zoo-name references always re-hit their entry.  An entry holds
    its object (an engine its accelerator), so no other object can take
    that ``id()`` while the entry lives.
    """

    #: Per-memo capacity (engines and workloads each).
    MEMO_BOUND = 64

    def __init__(
        self,
        search_config: SearchConfig | None,
        policy,
        cache: MappingCache,
        axis_memo: AxisMemo | None = None,
    ) -> None:
        self.search_config = search_config
        self.policy = policy
        self.cache = cache
        self.axis_memo = axis_memo if axis_memo is not None else AxisMemo()
        self._engines: dict[str | int, DepthFirstEngine] = {}
        self._workloads: dict[str | int, object] = {}
        # The running batch's planned jobs not yet evaluated, in job
        # order: (job, engine, evaluate's arguments, plan).
        self._planned: deque[tuple] = deque()

    @classmethod
    def _bound(cls, memo: dict) -> None:
        while len(memo) > cls.MEMO_BOUND:
            del memo[next(iter(memo))]

    def engine_for(self, job: EvalJob) -> DepthFirstEngine:
        key = _ref_key(job.accelerator)
        engine = self._engines.get(key)
        if engine is None:
            engine = DepthFirstEngine(
                _resolve_accelerator(job.accelerator),
                self.search_config,
                self.policy,
                cache=self.cache,
                axis_memo=self.axis_memo,
            )
            self._engines[key] = engine
            self._bound(self._engines)
        return engine

    def workload_for(self, job: EvalJob):
        key = _ref_key(job.workload)
        workload = self._workloads.get(key)
        if workload is None:
            workload = _resolve_workload(job.workload)
            self._workloads[key] = workload
            self._bound(self._workloads)
        return workload

    def _arguments(self, job: EvalJob) -> tuple[DepthFirstEngine, tuple]:
        """``job``'s engine and the arguments of its ``evaluate`` (or
        ``evaluate_stack``) call, which are also its ``plan``'s."""
        engine = self.engine_for(job)
        workload = self.workload_for(job)
        if job.kind == "stack":
            layers = tuple(workload.layer(n) for n in job.stack_layers)
            stack = Stack(
                index=job.stack_index,
                workload=workload.subgraph(job.stack_layers),
                layers=layers,
            )
            return engine, (workload, job.strategy, stack, dict(job.input_locations))
        return engine, (workload, job.strategy)

    def run(
        self, jobs: Sequence[EvalJob]
    ) -> Iterator["ScheduleResult | StackResult"]:
        """Evaluate a batch, yielding each job's result in order, as one
        :meth:`evaluate` per job would, with every engine's cache misses
        of the whole batch scored together: plan every job (steps 1-4),
        have each engine score its planned problems' misses in grouped
        calls (``DepthFirstEngine.solve``), then evaluate each job on
        its plan.  Consume it to the end (or to the job that raises).

        Planning stops at a job whose planning raises; its
        :meth:`evaluate` plans it again, after the jobs before it, and
        raises there.  The winners no search took are dropped on the
        way out, also when a job raises."""
        planned = self._planned
        engines: dict[DepthFirstEngine, None] = {}
        try:
            for job in jobs:
                try:
                    engine, args = self._arguments(job)
                    plan = engine.plan(*args)
                except Exception:  # noqa: BLE001 - raised again by evaluate
                    break
                planned.append((job, engine, args, plan))
                engines[engine] = None
            for engine in engines:
                engine.solve([entry[3] for entry in planned if entry[1] is engine])
            for job in jobs:
                yield self.evaluate(job)
        finally:
            planned.clear()
            for engine in engines:
                engine.mapper.drop_solved()

    def evaluate(self, job: EvalJob) -> "ScheduleResult | StackResult":
        """Evaluate one job: on the plan the running batch made for it,
        or planning it here and scoring its own cache misses."""
        planned = self._planned
        if planned and planned[0][0] is job:
            _, engine, args, plan = planned.popleft()
        else:
            (engine, args), plan = self._arguments(job), None
        if job.kind == "stack":
            return engine.evaluate_stack(*args, plan=plan)
        return engine.evaluate(*args, plan=plan)


#: Executor backends; ``None`` auto-selects one from ``jobs``.
BACKENDS = ("serial", "service")


class Executor:
    """Runs sweep jobs in-process or on an evaluation service.

    Parameters
    ----------
    jobs:
        Service shards (worker processes).  ``1`` (default) evaluates
        in-process; ``0`` or ``None`` means one shard per CPU.
    search_config, policy:
        Engine construction knobs, shared by every evaluation.
    cache:
        A :class:`MappingCache` handle shared across the run (and, if
        disk-backed, across runs).  A private in-memory cache is created
        when omitted.  A :class:`~repro.serve.cache_server.CacheClient`
        is accepted anywhere a cache is: every evaluation then reads and
        writes the remote server's live table, so shards share hits
        mid-run.
    backend:
        ``None`` (default) auto-selects: serial for ``jobs=1`` or a
        one-job batch, the service otherwise.  ``"service"`` runs every
        batch, however small, through the synchronous ``map()`` of a
        long-lived :class:`~repro.serve.service.EvalService` whose
        ``jobs`` shards pull from one shared job queue.  The service
        (with its warm shards) persists across ``run()`` calls until
        :meth:`close`, or until the executor is garbage-collected.

    Both backends return bit-identical results for the same job list.
    The serial backend keeps one job runner, its engines and their
    shared :class:`~repro.core.backcalc.AxisMemo` across ``run()``
    calls (a new one when :attr:`cache`, :attr:`search_config` or
    :attr:`policy` is replaced), and scores each batch's cache misses
    together; each service shard keeps its own runner and runs each
    chunk of a batch it takes the same way.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        search_config: SearchConfig | None = None,
        policy=None,
        cache: MappingCache | None = None,
        backend: str | None = None,
    ) -> None:
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend is not None and backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        self.jobs = jobs
        self.search_config = search_config
        self.policy = policy
        self.cache = cache if cache is not None else MappingCache()
        self.backend = backend
        # Kept across run() calls: a DSE runs one batch per generation.
        self._axis_memo = AxisMemo()
        self._runner: _JobRunner | None = None
        self._service = None
        self._finalizer: weakref.finalize | None = None

    # ------------------------------------------------------------------
    def run(self, spec: "SweepSpec | Iterable[EvalJob]") -> list[EvalResult]:
        """Evaluate every job; results are returned in job order and are
        identical whichever backend ran them.  The cyclic garbage
        collector is paused for the batch (:func:`repro.collector.paused`):
        evaluations leave no cyclic garbage (DESIGN.md §5.6)."""
        jobs = list(spec.jobs if isinstance(spec, SweepSpec) else spec)
        if not jobs:
            return []
        backend = self.backend
        if backend is None:
            backend = "serial" if self.jobs == 1 or len(jobs) == 1 else "service"
        with obs.span("executor.run", backend=backend, jobs=len(jobs)):
            with collector.paused():
                if backend == "service":
                    results = self._run_service(jobs)
                else:
                    results = self._run_serial(jobs)
        if obs.enabled:
            obs.metrics().counter(
                "executor_jobs_total", backend=backend
            ).inc(len(jobs))
        return results

    # ------------------------------------------------------------------
    # Service backend lifecycle
    # ------------------------------------------------------------------
    def _run_service(self, jobs: Sequence[EvalJob]) -> list[EvalResult]:
        if self._service is None:
            from ..serve.service import EvalService

            self._service = EvalService(
                shards=self.jobs,
                search_config=self.search_config,
                policy=self.policy,
                cache=self.cache,
            ).start()
            # An executor dropped without close() must not leak shards.
            self._finalizer = weakref.finalize(self, self._service.stop)
        return [
            EvalResult(job=job, result=result, index=i)
            for i, (job, result) in enumerate(zip(jobs, self._service.map(jobs)))
        ]

    @property
    def service(self):
        """The live :class:`EvalService` of the service backend
        (``None`` until the first ``run()``, or on other backends)."""
        return self._service

    def close(self) -> None:
        """Stop the service backend's shards (idempotent; the serial
        backend starts no processes)."""
        self._service = None
        if self._finalizer is not None:
            self._finalizer()  # a no-op once it has run

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _run_serial(self, jobs: Sequence[EvalJob]) -> list[EvalResult]:
        runner = self._runner
        if (
            runner is None
            or runner.cache is not self.cache
            or runner.search_config is not self.search_config
            or runner.policy is not self.policy
        ):
            runner = self._runner = _JobRunner(
                self.search_config, self.policy, self.cache, self._axis_memo
            )
        results = list(runner.run(jobs))
        return [
            EvalResult(job=job, result=result, index=i)
            for i, (job, result) in enumerate(zip(jobs, results))
        ]
