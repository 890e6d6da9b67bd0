"""Evaluation service: worker shards pulling from one shared job queue.

:class:`EvalService` is the one parallel mechanism of the exploration
runtime — :class:`~repro.explore.executor.Executor` runs every
multi-job batch with ``jobs > 1`` through it:

* **shards** — N long-lived worker processes pulling from one shared
  job queue; they stay warm across batches, keeping their
  per-accelerator engines and mapping caches;
* **dedup** — :meth:`EvalService.map` evaluates each distinct
  :func:`job_key` of a batch once and hands its result to every
  duplicate (results are deterministic, so dedup never changes an
  answer);
* **chunks** — ``map`` queues the distinct jobs in chunks of shrinking
  size (:func:`chunk_sizes`), each accelerator's jobs together; a shard
  runs each chunk it takes as one executor batch, scoring the chunk's
  cache misses together (one pickle per chunk, so its jobs share their
  objects and engines), while the small last chunks keep the shards
  finishing together;
* **cache flow** — each shard searches against a local
  :class:`MappingCache` pre-warmed at :meth:`EvalService.start` with
  the caller cache's entries; every result carries the entries its job
  added and its hit/miss counts, which ``map`` merges into the caller's
  cache.  When the caller's cache is a
  :class:`~repro.serve.cache_server.CacheClient` (``--cache-server``),
  the shards connect to that server instead and share its table live —
  the hook for sharding across machines;
* **telemetry** — with telemetry on, every result carries its shard's
  registry delta, which ``map`` folds into the caller's registry.

``map(jobs)`` returns results in job order, bit-identical to a serial
run of the same jobs.
"""

from __future__ import annotations

import gc
import math
import multiprocessing as mp
import queue
import time
import traceback
from typing import TYPE_CHECKING, Sequence

from .. import collector, obs
from ..mapping.cache import MappingCache
from .cache_server import CacheClient

if TYPE_CHECKING:
    from ..explore.spec import EvalJob
    from ..mapping.loma import SearchConfig

#: Seconds ``map`` waits for a result before checking that every shard
#: is still alive.
_LIVENESS_INTERVAL = 0.5


class ServiceError(RuntimeError):
    """An evaluation failed inside a worker shard (or a shard died)."""


def job_key(job: "EvalJob") -> tuple:
    """Dedup identity of a job: everything that determines its result.
    ``tag`` is display metadata, so jobs differing only by tag still
    share one evaluation; object references fall back to identity, like
    the executor's per-object engine keying."""
    return (
        job.accelerator if isinstance(job.accelerator, str) else id(job.accelerator),
        job.workload if isinstance(job.workload, str) else id(job.workload),
        job.strategy,
        job.kind,
        job.stack_layers,
        job.stack_index,
        job.input_locations,
    )


def chunk_sizes(count: int, shards: int) -> list[int]:
    """Sizes of the chunks ``map`` queues for ``count`` distinct jobs
    over ``shards`` shards: each chunk takes ``1 / (2 * shards)`` of the
    jobs not yet queued (at least one), so the first chunks are large
    and the last ones single jobs (guided self-scheduling)."""
    sizes = []
    while count > 0:
        size = math.ceil(count / (2 * shards))
        sizes.append(size)
        count -= size
    return sizes


def _run_chunk(runner, jobs: list, shard_index: int) -> list[tuple]:
    """``(result, error)`` for each job of a chunk, run as one batch
    (``_JobRunner.run``).  Each job's evaluation runs with the cyclic
    collector paused (the first one's with the batch's planning and
    scoring), which may collect between jobs.  After a job fails, the
    rest of the chunk runs as a new batch: each job succeeds or fails on
    its own, as it would alone."""
    outcomes: list[tuple] = []
    while len(outcomes) < len(jobs):
        results = runner.run(jobs[len(outcomes):])
        try:
            while True:
                with collector.paused():
                    result = next(results, None)
                if result is None:
                    break
                outcomes.append((result, None))
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            detail = "".join(traceback.format_exception_only(exc)).strip()
            outcomes.append((None, f"shard {shard_index}: {detail}"))
    return outcomes


# ----------------------------------------------------------------------
# Worker-process main (module-level: must be importable after fork/spawn)
# ----------------------------------------------------------------------
def _service_worker_main(
    shard_index: int,
    job_queue,
    result_queue,
    search_config,
    policy,
    cache_source,
    obs_enabled: bool = False,
) -> None:
    """Pull ``(job_ids, jobs, submit_time)`` chunks until the ``None``
    sentinel and run each as one batch.  ``cache_source`` is either the
    caller cache's entries, which pre-warm this shard's local
    :class:`MappingCache`, or the address of the cache server whose
    table the shards share.

    Each chunk gets one result message ``(job_ids, outcomes, entries,
    lookups, telemetry)``: a ``(result, error)`` per job, the cache
    entries the chunk added (always empty against a cache server, which
    already holds them), its ``(hits, misses)`` counts, and this shard's
    registry delta since its previous chunk (``None`` with telemetry
    off).  One pickle carries the results and the entries, so a result
    arrives sharing its layer costs with the entries, as in a serial
    run.  The delta holds the evaluations' own series plus each job's
    queue wait and an equal share of the chunk's execution time
    (monotonic-clock deltas, comparable across processes on the
    platforms that matter).  The registry is cleared after every
    harvest, so no delta is shipped twice."""
    from ..explore.executor import _JobRunner

    # Objects inherited through fork belong to the parent: never collect
    # them here, or an executor the parent dropped in a reference cycle
    # would run its finalizer — and stop its service — in this shard.
    # A shard forked inside a paused batch inherits the pause: collect
    # between jobs, and pause around each one (DESIGN.md §5.6).
    gc.freeze()
    gc.enable()
    obs.worker_begin(obs_enabled)
    if isinstance(cache_source, dict):
        cache = MappingCache()
        cache.merge(cache_source)
        known = cache.keys()
    else:
        cache, known = CacheClient(cache_source), None
    runner = _JobRunner(search_config, policy, cache)
    try:
        while True:
            item = job_queue.get()
            if item is None:
                break
            job_ids, jobs, t_submit = item
            t_start = time.monotonic()
            hits, misses = cache.hits, cache.misses
            outcomes = _run_chunk(runner, jobs, shard_index)
            entries = {} if known is None else cache.delta(known)
            if entries:
                known.update(entries)
            lookups = (cache.hits - hits, cache.misses - misses)
            if obs.enabled:
                registry = obs.metrics()
                share = (time.monotonic() - t_start) / len(jobs)
                for _ in jobs:
                    registry.histogram(
                        "service_queue_wait_seconds", shard=shard_index
                    ).observe(t_start - t_submit)
                    registry.histogram(
                        "service_exec_seconds", shard=shard_index
                    ).observe(share)
                registry.counter("service_jobs_total", shard=shard_index).inc(
                    len(jobs)
                )
            telemetry = obs.harvest()
            obs.metrics().clear()
            result_queue.put((job_ids, outcomes, entries, lookups, telemetry))
    finally:
        if isinstance(cache, CacheClient):
            cache.close()
        # Results still buffered here belong to a batch the parent gave
        # up on; exiting must not wait for a reader that never comes.
        result_queue.cancel_join_thread()


class EvalService:
    """A pool of evaluation shards pulling from one shared job queue.

    Parameters
    ----------
    shards:
        Worker processes (>= 1).
    search_config, policy:
        Engine knobs, shared by every evaluation (as in ``Executor``).
    cache:
        The caller's :class:`MappingCache`: :meth:`start` pre-warms
        every shard with its entries, and :meth:`map` merges each job's
        new entries and hit/miss counts back into it.  A
        :class:`CacheClient` of an external ``repro serve`` cache server
        instead makes the shards share *that* table live (multi-machine
        mode); only the hit/miss counts are merged into the client.

    Every method runs on the thread that owns the service.
    """

    def __init__(
        self,
        shards: int = 1,
        search_config: "SearchConfig | None" = None,
        policy=None,
        cache: "MappingCache | CacheClient | None" = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.search_config = search_config
        self.policy = policy
        self.cache = cache if cache is not None else MappingCache()
        self._workers: list[mp.Process] = []  # guarded-by: <owner>
        self._job_queue = None  # guarded-by: <owner>
        self._result_queue = None  # guarded-by: <owner>
        # Job ids keep counting across batches, so a late result of an
        # abandoned batch never matches a job of the current one.
        self._next_id = 0  # guarded-by: <owner>
        self._dead_shards: set[str] = set()  # guarded-by: <owner>
        self.submitted = 0  # guarded-by: <owner>
        self.coalesced = 0  # guarded-by: <owner>
        self.completed = 0  # guarded-by: <owner>
        self.errors = 0  # guarded-by: <owner>
        self.shard_deaths = 0  # guarded-by: <owner>

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EvalService":
        if self.running:
            return self
        if isinstance(self.cache, CacheClient):
            cache_source = self.cache.address
        else:
            cache_source = self.cache.snapshot()
        context = mp.get_context()
        self._job_queue = context.Queue()
        self._result_queue = context.Queue()
        self._dead_shards = set()
        self._workers = [
            context.Process(
                target=_service_worker_main,
                args=(
                    index,
                    self._job_queue,
                    self._result_queue,
                    self.search_config,
                    self.policy,
                    cache_source,
                    obs.enabled,
                ),
                daemon=True,
                name=f"eval-shard-{index}",
            )
            for index in range(self.shards)
        ]
        for worker in self._workers:
            worker.start()
        return self

    def stop(self) -> None:
        """Sentinel the shards and join them."""
        if not self.running:
            return
        for _ in self._workers:
            self._job_queue.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)
            if worker.is_alive():  # pragma: no cover - stuck-worker safety
                worker.terminate()
                worker.join(timeout=5.0)
        self._workers = []
        self._job_queue.close()
        self._job_queue = None
        self._result_queue.close()
        self._result_queue = None

    @property
    def running(self) -> bool:
        return self._job_queue is not None

    @property
    def server_address(self) -> "tuple[str, int] | None":
        """Address of the cache server the shards share, or ``None``
        when each shard searches against its own local cache."""
        if isinstance(self.cache, CacheClient):
            return self.cache.address
        return None

    def __enter__(self) -> "EvalService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def map(self, jobs: "Sequence[EvalJob]") -> list:
        """Evaluate every job and return the results in job order.

        Each distinct :func:`job_key` is evaluated once; its duplicates
        count as ``coalesced`` and share the result.  The distinct jobs
        are queued in chunks of :func:`chunk_sizes`, each accelerator's
        jobs together, each chunk evaluated as one batch by the shard
        that takes it.  The first failed evaluation, in job order,
        raises :class:`ServiceError` once the whole batch is back.  A
        dead shard raises it as soon as a wait of ``_LIVENESS_INTERVAL``
        seconds for the next result finds it dead."""
        if not self.running:
            raise RuntimeError("EvalService.map() before start()")
        keys = [job_key(job) for job in jobs]
        ids: dict[tuple, int] = {}
        pending: dict[int, EvalJob] = {}
        queued: list[tuple[int, EvalJob, tuple]] = []
        for job, key in zip(jobs, keys):
            if key in ids:
                self.coalesced += 1
                continue
            ids[key] = self._next_id
            pending[self._next_id] = job
            queued.append((self._next_id, job, key))
            self._next_id += 1
        self.submitted += len(pending)
        # Jobs on one accelerator share its engine and can share search
        # problems (those of one workload most): queue them together,
        # accelerators and workloads in order of first appearance.
        accelerators: dict = {}
        workloads: dict = {}
        queued.sort(
            key=lambda item: (
                accelerators.setdefault(item[2][0], len(accelerators)),
                workloads.setdefault(item[2][1], len(workloads)),
            )
        )
        start = 0
        for size in chunk_sizes(len(queued), self.shards):
            chunk = queued[start : start + size]
            start += size
            self._job_queue.put(
                (
                    [job_id for job_id, _, _ in chunk],
                    [job for _, job, _ in chunk],
                    time.monotonic(),
                )
            )

        outcomes: dict[int, tuple] = {}
        while pending:
            try:
                job_ids, chunk, entries, lookups, telemetry = (
                    self._result_queue.get(timeout=_LIVENESS_INTERVAL)
                )
            except queue.Empty:
                self._check_shards(pending)
                continue
            # Every shard lookup counts once, even in a late result.
            obs.absorb(telemetry)
            if entries:
                self.cache.merge(entries)
            self.cache.hits += lookups[0]
            self.cache.misses += lookups[1]
            for job_id, outcome in zip(job_ids, chunk):
                if pending.pop(job_id, None) is None:
                    continue  # a result of an earlier, abandoned batch
                outcomes[job_id] = outcome
                if outcome[1] is None:
                    self.completed += 1
                else:
                    self.errors += 1
                    if obs.enabled:
                        obs.metrics().counter("service_errors_total").inc()

        results = []
        for key in keys:
            result, error = outcomes[ids[key]]
            if error is not None:
                raise ServiceError(error)
            results.append(result)
        return results

    def _check_shards(self, pending: "dict[int, EvalJob]") -> None:
        """Raise :class:`ServiceError` if a shard died, naming each dead
        shard and the batch's unfinished jobs; each death counts once."""
        dead = [
            (index, worker)
            for index, worker in enumerate(self._workers)
            if not worker.is_alive()
        ]
        if not dead:
            return
        fresh = [w.name for _, w in dead if w.name not in self._dead_shards]
        self._dead_shards.update(fresh)
        self.shard_deaths += len(fresh)
        if fresh and obs.enabled:
            obs.metrics().counter("service_shard_deaths_total").inc(len(fresh))
        unfinished = [job.describe() for job in pending.values()]
        shown = "; ".join(unfinished[:5])
        if len(unfinished) > 5:
            shown += f"; ... ({len(unfinished)} total)"
        shards = ", ".join(f"shard {index} ({w.name})" for index, w in dead)
        raise ServiceError(
            f"worker shard(s) died: {shards}; unfinished job(s): {shown}"
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service counters plus the caller cache's ``stats``."""
        return {
            "shards": self.shards,
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "completed": self.completed,
            "errors": self.errors,
            "shard_deaths": self.shard_deaths,
            "cache": dict(self.cache.stats),
        }
