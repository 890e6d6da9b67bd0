"""Evaluation service: a live shared-cache server and sharded job
execution on top of the exploration runtime.

The batch runtime (PR 1) shares mapping-cache hits only between runs or
at batch edges; this subsystem turns it into a long-lived service:

* :class:`CacheServer` / :class:`CacheClient` — one live mapping-cache
  table served over TCP (JSON lines); every worker of a run reads and
  writes it, so hits propagate *during* the run.  ``repro serve`` runs
  a standalone server; ``--cache-server HOST:PORT`` points executors at
  it.  Periodic snapshots keep the persistent JSON cache format
  unchanged.
* :class:`EvalService` — N long-lived worker shards pulling from one
  shared job queue; its synchronous ``map()`` evaluates each distinct
  job of a batch once (duplicates share the result) and returns the
  results in job order.  ``Executor(jobs=N, backend="service")`` runs
  every batch through it, with results bit-identical to serial.

Quick start::

    from repro.explore import Executor, SweepSpec

    spec = SweepSpec.tile_grid("meta_proto_like_df", "fsrcnn",
                               [(4, 4), (16, 18), (60, 72)])
    with Executor(jobs=4, backend="service") as executor:
        results = executor.run(spec)   # workers share cache hits live
"""

from .cache_server import (
    AUTH_TOKEN_ENV,
    CacheClient,
    CacheServer,
    CacheServerError,
    format_address,
    parse_address,
)
from .service import EvalService, ServiceError, job_key

__all__ = [
    "AUTH_TOKEN_ENV",
    "CacheClient",
    "CacheServer",
    "CacheServerError",
    "EvalService",
    "ServiceError",
    "format_address",
    "job_key",
    "parse_address",
]
