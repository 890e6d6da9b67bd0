"""Evaluation service: sharded job execution and a live shared-cache
server on top of the exploration runtime.

* :class:`EvalService` — N long-lived worker shards pulling from one
  shared job queue; its synchronous ``map()`` evaluates each distinct
  job of a batch once (duplicates share the result) and returns the
  results in job order.  Each shard searches against a local mapping
  cache pre-warmed from the caller's, and every job's new entries and
  hit/miss counts are merged back.  ``Executor(jobs=N)`` runs every
  multi-job batch through it, with results bit-identical to serial.
* :class:`CacheServer` / :class:`CacheClient` — one live mapping-cache
  table served over TCP (JSON lines); every client of a run reads and
  writes it, so hits propagate between machines *during* the run.
  ``repro serve`` runs a standalone server; ``--cache-server
  HOST:PORT`` points executors (and their shards) at it.  On one host
  the shard-local caches are faster: each remote lookup is a TCP round
  trip.  Periodic snapshots keep the persistent JSON cache format
  unchanged.

Quick start::

    from repro.explore import Executor, SweepSpec

    spec = SweepSpec.tile_grid("meta_proto_like_df", "fsrcnn",
                               [(4, 4), (16, 18), (60, 72)])
    with Executor(jobs=4) as executor:
        results = executor.run(spec)   # 4 shards, one shared job queue
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
