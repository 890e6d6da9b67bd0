"""Async evaluation service: a job queue fanned out to worker shards
that share one live cache server.

Where the process backend of :class:`~repro.explore.executor.Executor`
is a *batch* machine (fork workers, run one shard list each, harvest,
tear down), :class:`EvalService` is a *long-lived* one:

* **shards** — N worker processes, each pulling from its own queue
  (jobs are assigned round-robin in submission order, so the placement
  is deterministic); workers stay warm across batches, keeping their
  per-accelerator engines and local read caches;
* **dedup / coalescing** — identical in-flight jobs resolve to the same
  :class:`ServiceFuture`: the evaluation runs once and every submitter
  gets the result (results are deterministic, so coalescing can never
  change an answer);
* **backpressure** — an optional bound on in-flight jobs; a blocking
  submit waits for a slot, a non-blocking one raises
  :class:`ServiceOverloaded` so callers can shed load;
* **shared cache** — every worker's mapping cache is a
  :class:`~repro.serve.cache_server.CacheClient`, wired either to an
  embedded :class:`CacheServer` fronting the caller's own
  :class:`MappingCache` (hits land in it live — no harvest step) or,
  when the caller's cache is itself a ``CacheClient``, to that external
  server (``repro serve``), which is the hook for sharding across
  machines.

``map(jobs)`` returns results in job order, bit-identical to a serial
run of the same jobs; ``Executor(backend="service")`` is built on it.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import threading
import time
import traceback
from typing import TYPE_CHECKING, Sequence

from .. import obs
from ..mapping.cache import MappingCache
from .cache_server import CacheClient, CacheServer

if TYPE_CHECKING:
    from ..explore.spec import EvalJob
    from ..mapping.loma import SearchConfig


class ServiceError(RuntimeError):
    """An evaluation failed inside a worker shard (or a shard died)."""


class ServiceOverloaded(RuntimeError):
    """The service's in-flight bound is reached and the submit did not
    (or could not) wait for a slot."""


def job_key(job: "EvalJob") -> tuple:
    """Coalescing identity of a job: everything that determines its
    result.  ``tag`` is display metadata, so jobs differing only by tag
    still coalesce; object references fall back to identity, like the
    executor's per-object engine keying."""
    return (
        job.accelerator if isinstance(job.accelerator, str) else id(job.accelerator),
        job.workload if isinstance(job.workload, str) else id(job.workload),
        job.strategy,
        job.kind,
        job.stack_layers,
        job.stack_index,
        job.input_locations,
    )


class ServiceFuture:
    """Pending result of one submitted (possibly coalesced) job."""

    def __init__(self, job: "EvalJob", key: tuple) -> None:
        self.job = job
        self.key = key
        #: Index of the shard the job was queued on (set by submit;
        #: lets shard-death errors name the jobs that went down with it).
        self.shard: int | None = None
        self._done = threading.Event()
        self._result = None
        self._error: str | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None):
        """The evaluation result (blocks); raises :class:`ServiceError`
        if the evaluation failed, ``TimeoutError`` on timeout."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"evaluation of {self.job.describe()} still pending"
            )
        if self._error is not None:
            raise ServiceError(self._error)
        return self._result

    # Internal: called by the collector thread only.
    def _resolve(self, result, error: str | None) -> None:
        self._result = result
        self._error = error
        self._done.set()


# ----------------------------------------------------------------------
# Worker-process main (module-level: must be importable after fork/spawn)
# ----------------------------------------------------------------------
def _service_worker_main(
    shard_index: int,
    job_queue,
    result_queue,
    search_config,
    policy,
    server_address,
    obs_enabled: bool = False,
) -> None:
    """Pull (job_id, job, submit_time) items until the ``None``
    sentinel; evaluate each against a runner whose cache is a client of
    the cache server at ``server_address``.  With telemetry on, each
    result carries the shard's queue-wait and execution time (monotonic
    clock deltas — comparable across processes on the platforms that
    matter) so the parent's registry sees per-shard load without a
    separate harvest step."""
    from ..explore.executor import _JobRunner

    obs.worker_begin(obs_enabled)
    cache = CacheClient(server_address)
    runner = _JobRunner(search_config, policy, cache)
    try:
        while True:
            item = job_queue.get()
            if item is None:
                break
            job_id, job, t_submit = item
            t_start = time.monotonic() if t_submit is not None else None
            try:
                result = runner.evaluate(job)
            except Exception as exc:  # noqa: BLE001 - shipped to the parent
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                timings = (
                    None
                    if t_start is None
                    else (
                        shard_index,
                        t_start - t_submit,
                        time.monotonic() - t_start,
                    )
                )
                result_queue.put(
                    (job_id, None, f"shard {shard_index}: {detail}", timings)
                )
                continue
            timings = (
                None
                if t_start is None
                else (shard_index, t_start - t_submit, time.monotonic() - t_start)
            )
            result_queue.put((job_id, result, None, timings))
    finally:
        cache.close()


class EvalService:
    """A pool of evaluation shards behind a deduplicating job queue.

    Parameters
    ----------
    shards:
        Worker processes.  ``0`` is allowed and means "accept jobs but
        evaluate nothing" — useful to observe queueing/backpressure
        behaviour in isolation (tests); real runs want >= 1.
    search_config, policy:
        Engine knobs, shared by every evaluation (as in ``Executor``).
    cache:
        The :class:`MappingCache` the embedded server fronts; hits and
        new entries are live in this handle during the run.  A
        :class:`CacheClient` of an external ``repro serve`` cache server
        instead makes the workers share *that* table (multi-machine
        mode), and no embedded server is started.
    max_pending:
        Bound on in-flight jobs (backpressure); ``None`` = unbounded.
    """

    def __init__(
        self,
        shards: int = 1,
        search_config: "SearchConfig | None" = None,
        policy=None,
        cache: "MappingCache | CacheClient | None" = None,
        max_pending: int | None = None,
    ) -> None:
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.shards = shards
        self.search_config = search_config
        self.policy = policy
        self.cache = cache if cache is not None else MappingCache()
        self.max_pending = max_pending
        # Lifecycle handles (<owner>): start()/stop() are called by the
        # thread that owns the service — the embedded server, workers,
        # queues and collector are created and torn down only there.
        self._server: CacheServer | None = None  # guarded-by: <owner>
        self._workers: list[mp.Process] = []  # guarded-by: <owner>
        self._job_queues: list = []  # guarded-by: <owner>
        self._result_queue = None  # guarded-by: <owner>
        self._collector: threading.Thread | None = None  # guarded-by: <owner>
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._slots = (  # guarded-by: <owner>
            threading.Semaphore(max_pending) if max_pending is not None else None
        )
        # Job bookkeeping and counters: submit(), the collector thread
        # and gather()'s shard-death reporting all touch these.
        self._inflight: dict[tuple, ServiceFuture] = {}  # guarded-by: _lock
        self._pending: dict[int, ServiceFuture] = {}  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self._next_shard = 0  # guarded-by: _lock
        self._dead_shards: set[str] = set()  # guarded-by: _lock
        self.submitted = 0  # guarded-by: _lock
        self.coalesced = 0  # guarded-by: _lock
        self.completed = 0  # guarded-by: _lock
        self.errors = 0  # guarded-by: _lock
        self.shard_deaths = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EvalService":
        if self.running:
            return self
        if isinstance(self.cache, CacheClient):
            address = self.cache.address
        else:
            self._server = CacheServer(cache=self.cache).start()
            address = self._server.address
        self._stopping.clear()
        if self.max_pending is not None:
            # Fresh slots every start: a stop() with jobs in flight
            # error-resolves their futures without releasing, so a
            # reused semaphore would leak capacity across restarts.
            self._slots = threading.Semaphore(self.max_pending)
        context = mp.get_context()
        self._result_queue = context.Queue()
        self._job_queues = [
            context.Queue() for _ in range(max(1, self.shards))
        ]
        self._workers = [
            context.Process(
                target=_service_worker_main,
                args=(
                    index,
                    self._job_queues[index],
                    self._result_queue,
                    self.search_config,
                    self.policy,
                    address,
                    obs.enabled,
                ),
                daemon=True,
                name=f"eval-shard-{index}",
            )
            for index in range(self.shards)
        ]
        for worker in self._workers:
            worker.start()
        self._collector = threading.Thread(
            target=self._collect, name="eval-service-collector", daemon=True
        )
        self._collector.start()
        return self

    def stop(self) -> None:
        """Drain nothing, stop everything: sentinel the shards, join
        them, stop the collector and the embedded server."""
        if not self.running:
            return
        for q in self._job_queues:
            q.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)
            if worker.is_alive():  # pragma: no cover - stuck-worker safety
                worker.terminate()
                worker.join(timeout=5.0)
        self._workers = []
        self._stopping.set()
        if self._collector is not None:
            self._collector.join(timeout=5.0)
            self._collector = None
        for q in self._job_queues:
            q.close()
        self._job_queues = []
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue = None
        if self._server is not None:
            self._server.stop()
            self._server = None
        # Fail anything still pending so no caller blocks forever.
        with self._lock:
            leftover = list(self._pending.values())
            self._pending.clear()
            self._inflight.clear()
        for future in leftover:
            future._resolve(None, "service stopped before the job completed")

    @property
    def running(self) -> bool:
        return self._collector is not None

    @property
    def server_address(self) -> "tuple[str, int] | None":
        """Address of the cache server the shards share (embedded or
        external); ``None`` before :meth:`start` in embedded mode."""
        if isinstance(self.cache, CacheClient):
            return self.cache.address
        return None if self._server is None else self._server.address

    def __enter__(self) -> "EvalService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        job: "EvalJob",
        block: bool = True,
        timeout: float | None = None,
    ) -> ServiceFuture:
        """Queue one evaluation; returns its future.

        An identical in-flight job coalesces: the same future is
        returned and no new work is queued.  With ``max_pending`` set,
        a fresh job needs a free slot — ``block=False`` (or a timeout)
        raises :class:`ServiceOverloaded` instead of waiting forever.
        """
        if not self.running:
            raise RuntimeError("EvalService.submit() before start()")
        key = job_key(job)
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self.coalesced += 1
                if obs.enabled:
                    obs.metrics().counter("service_coalesced_total").inc()
                return existing
        if self._slots is not None:
            if not self._slots.acquire(blocking=block, timeout=timeout):
                raise ServiceOverloaded(
                    f"{self.max_pending} evaluations already in flight"
                )
        with self._lock:
            # Re-check: another submitter may have queued the same job
            # while this one waited for a slot.
            existing = self._inflight.get(key)
            if existing is not None:
                if self._slots is not None:
                    self._slots.release()
                self.coalesced += 1
                if obs.enabled:
                    obs.metrics().counter("service_coalesced_total").inc()
                return existing
            future = ServiceFuture(job, key)
            job_id = self._next_id
            self._next_id += 1
            self._inflight[key] = future
            self._pending[job_id] = future
            shard = self._next_shard
            self._next_shard = (self._next_shard + 1) % len(self._job_queues)
            self.submitted += 1
            future.shard = shard
            depth = len(self._pending)
        if obs.enabled:
            obs.metrics().counter("service_submitted_total").inc()
            obs.metrics().gauge("service_in_flight").set(depth)
        self._job_queues[shard].put(
            (job_id, job, time.monotonic() if obs.enabled else None)
        )
        return future

    def gather(self, futures: Sequence[ServiceFuture]) -> list:
        """Results for ``futures`` in order, watching shard liveness so
        a dead worker surfaces as :class:`ServiceError`, not a hang.

        The error names each dead shard and the in-flight jobs that
        were queued on it, so a crash log identifies both the casualty
        and the work it took down."""
        results = []
        for future in futures:
            while not future.wait(0.5):
                dead = [
                    (index, worker)
                    for index, worker in enumerate(self._workers)
                    if not worker.is_alive()
                ]
                if dead and not future.done():
                    raise ServiceError(self._report_dead_shards(dead))
            results.append(future.result())
        return results

    def _report_dead_shards(
        self, dead: "list[tuple[int, mp.Process]]"
    ) -> str:
        """Count newly dead shards and build the error message naming
        each shard id and its last in-flight job keys."""
        with self._lock:
            fresh = [
                (index, worker)
                for index, worker in dead
                if worker.name not in self._dead_shards
            ]
            for _, worker in fresh:
                self._dead_shards.add(worker.name)
            self.shard_deaths += len(fresh)
            pending = list(self._pending.values())
        if fresh and obs.enabled:
            obs.metrics().counter("service_shard_deaths_total").inc(len(fresh))
        details = []
        for index, worker in dead:
            stranded = [
                f.job.describe() for f in pending if f.shard == index
            ]
            if stranded:
                shown = "; ".join(stranded[:5])
                if len(stranded) > 5:
                    shown += f"; ... ({len(stranded)} total)"
                details.append(
                    f"shard {index} ({worker.name}) with in-flight "
                    f"job(s): {shown}"
                )
            else:
                details.append(
                    f"shard {index} ({worker.name}) with no in-flight jobs"
                )
        return "worker shard(s) died: " + "; ".join(details)

    def map(self, jobs: "Sequence[EvalJob]") -> list:
        """Submit every job and return their results in job order."""
        return self.gather([self.submit(job) for job in jobs])

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        """Collector thread: resolve futures as shards report back."""
        while not self._stopping.is_set():
            try:
                job_id, result, error, timings = self._result_queue.get(
                    timeout=0.2
                )
            except queue_module.Empty:
                continue
            except (OSError, ValueError):  # pragma: no cover - queue closed
                break
            with self._lock:
                future = self._pending.pop(job_id, None)
                depth = len(self._pending)
                if future is not None:
                    self._inflight.pop(future.key, None)
                    if error is None:
                        self.completed += 1
                    else:
                        self.errors += 1
                        if obs.enabled:
                            obs.metrics().counter(
                                "service_errors_total"
                            ).inc()
            if timings is not None and obs.enabled:
                shard, queue_wait, exec_time = timings
                registry = obs.metrics()
                registry.histogram(
                    "service_queue_wait_seconds", shard=shard
                ).observe(queue_wait)
                registry.histogram(
                    "service_exec_seconds", shard=shard
                ).observe(exec_time)
                registry.counter("service_jobs_total", shard=shard).inc()
                registry.gauge("service_in_flight").set(depth)
            if future is not None:
                if self._slots is not None:
                    self._slots.release()
                future._resolve(result, error)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service counters plus the shared cache server's view."""
        with self._lock:
            data = {
                "shards": self.shards,
                "max_pending": self.max_pending,
                "submitted": self.submitted,
                "coalesced": self.coalesced,
                "completed": self.completed,
                "errors": self.errors,
                "shard_deaths": self.shard_deaths,
                "in_flight": len(self._pending),
            }
        if self._server is not None:
            data["cache"] = dict(self._server.cache.stats)
            data["cache"]["requests"] = dict(self._server.requests)
        return data
