"""Exploration runtime: declarative sweeps, parallel execution, and
persistent mapping caching.

The paper's experiments are large grids of independent cost-model
evaluations.  This subsystem runs them as first-class batches:

* :class:`SweepSpec` / :class:`EvalJob` — declarative job lists for the
  tile-grid, multi-strategy, per-stack, multi-workload and
  multi-architecture sweep shapes;
* :class:`Executor` — in-process evaluation, or (``jobs > 1``) the
  shards of a long-lived :class:`~repro.serve.service.EvalService`,
  with deterministic, backend-independent results;
* :class:`MappingCache` — the shareable (and optionally disk-backed)
  store of LOMA search results that lets warm sweeps skip the mapping
  search entirely (re-exported from :mod:`repro.mapping.cache`).

Quick parallel sweep::

    from repro.explore import Executor, SweepSpec

    spec = SweepSpec.tile_grid("meta_proto_like_df", "fsrcnn",
                               [(4, 4), (16, 18), (60, 72)])
    with Executor(jobs=4, cache=MappingCache("loma.json")) as executor:
        results = executor.run(spec)   # 4 service shards
    best = min(results, key=lambda r: r.score("energy"))
"""

from ..mapping.cache import MappingCache
from .executor import BACKENDS, EvalResult, Executor
from .spec import DEFAULT_MODES, EvalJob, SweepSpec

__all__ = [
    "BACKENDS",
    "DEFAULT_MODES",
    "EvalJob",
    "EvalResult",
    "Executor",
    "MappingCache",
    "SweepSpec",
]
