"""Frontier-quality metrics: hypervolume and additive epsilon.

A Pareto frontier is a *set*, so "is this run converging?" needs set
metrics, not per-point ones.  Two standard indicators are provided (all
objectives minimized):

* **Hypervolume** — the volume of objective space dominated by the
  frontier, bounded above by a *reference point* that must be strictly
  worse than every frontier point in every objective.  Larger is better;
  with a fixed reference it is monotone non-decreasing as points are
  offered to a frontier, which makes it the per-generation convergence
  signal of the :class:`~repro.dse.runner.DSERunner`.  Exact in 1D/2D
  (sweep), Monte-Carlo estimated in 3D+ (seeded, hence deterministic).
* **Additive epsilon** — the smallest ``eps`` such that shifting the
  approximation set by ``eps`` in every objective makes it weakly
  dominate the reference set.  Smaller is better; 0 means the
  approximation covers the reference set.

Both work on plain value tuples, so they serve the DSE runner, the
property-test suite and ad-hoc analysis alike.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from .pareto import dominates

#: Monte-Carlo sample count for 3D+ hypervolume (fixed => deterministic).
DEFAULT_HV_SAMPLES = 4096
#: Monte-Carlo samples drawn and tested per block.
_HV_BLOCK = 1024


def reference_point(
    values: Iterable[Sequence[float]], margin: float = 0.1
) -> tuple[float, ...]:
    """A reference point strictly worse than every vector in ``values``.

    Per objective: the maximum plus ``margin`` times the observed span
    (or a magnitude-scaled pad when the objective is constant), so the
    boundary points contribute non-zero hypervolume.
    """
    if margin <= 0.0:
        raise ValueError(f"margin must be > 0, got {margin}")
    rows = [tuple(float(v) for v in row) for row in values]
    if not rows:
        raise ValueError("reference_point needs at least one value vector")
    dims = len(rows[0])
    ref = []
    for m in range(dims):
        column = [row[m] for row in rows]
        lo, hi = min(column), max(column)
        span = hi - lo
        if span <= 0.0:
            span = abs(hi) if hi != 0.0 else 1.0
        ref.append(hi + margin * span)
    return tuple(ref)


def _clean(
    points: Iterable[Sequence[float]], reference: Sequence[float]
) -> list[tuple[float, ...]]:
    """Validate arity, drop points not strictly inside the reference box
    (they bound zero volume), and drop dominated duplicates."""
    ref = tuple(float(r) for r in reference)
    inside: list[tuple[float, ...]] = []
    for row in points:
        vec = tuple(float(v) for v in row)
        if len(vec) != len(ref):
            raise ValueError(
                f"point arity {len(vec)} != reference arity {len(ref)}"
            )
        if all(v < r for v, r in zip(vec, ref)):
            inside.append(vec)
    kept: list[tuple[float, ...]] = []
    for vec in inside:
        if vec in kept or any(dominates(other, vec) for other in inside):
            continue
        kept.append(vec)
    return kept


def hypervolume(
    points: Iterable[Sequence[float]],
    reference: Sequence[float],
    samples: int = DEFAULT_HV_SAMPLES,
    seed: int = 0,
) -> float:
    """Hypervolume dominated by ``points`` up to ``reference``.

    1D/2D are computed exactly; 3D+ falls back to seeded Monte-Carlo
    over the bounding box (``samples`` uniform draws), so repeated calls
    with the same arguments return the same estimate.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    ref = tuple(float(r) for r in reference)
    front = _clean(points, ref)
    if not front:
        return 0.0
    dims = len(ref)
    if dims == 1:
        return ref[0] - min(vec[0] for vec in front)
    if dims == 2:
        # Sweep left to right; each point owns the horizontal strip from
        # its x to the reference, between its y and the best y so far.
        volume = 0.0
        cur_y = ref[1]
        for x, y in sorted(front):
            if y < cur_y:
                volume += (ref[0] - x) * (cur_y - y)
                cur_y = y
        return volume
    # Monte-Carlo: fraction of the (ideal, reference) box dominated.
    lows = tuple(min(vec[m] for vec in front) for m in range(dims))
    box = 1.0
    for lo, hi in zip(lows, ref):
        box *= hi - lo
    if box <= 0.0:
        return 0.0
    # The draws are ``lo + u * (hi - lo)`` per objective, ``u`` taken
    # from one seeded stream sample by sample, in float64 as in Python;
    # a draw counts when some front point is <= it everywhere.  Blocks
    # of samples keep the arrays small.
    rng = random.Random(seed)
    lo = np.array(lows)
    span = np.array(ref) - lo
    hits = 0
    for start in range(0, samples, _HV_BLOCK):
        count = min(_HV_BLOCK, samples - start) * dims
        u = np.fromiter((rng.random() for _ in range(count)), float, count)
        draws = lo + u.reshape(-1, dims) * span
        dominated = np.zeros(len(draws), dtype=bool)
        for vec in front:
            dominated |= (draws >= vec).all(axis=1)
        hits += int(np.count_nonzero(dominated))
    return box * hits / samples


def additive_epsilon(
    approximation: Iterable[Sequence[float]],
    reference_set: Iterable[Sequence[float]],
) -> float:
    """Additive epsilon indicator of ``approximation`` vs ``reference_set``.

    The smallest ``eps`` such that for every reference vector some
    approximation vector is within ``eps`` of it in *every* objective
    (all minimized).  0 means the approximation weakly dominates the
    reference set; ``inf`` means the approximation is empty while the
    reference set is not.
    """
    approx = [tuple(float(v) for v in row) for row in approximation]
    refs = [tuple(float(v) for v in row) for row in reference_set]
    if not refs:
        return 0.0
    if not approx:
        return float("inf")
    arities = {len(row) for row in approx} | {len(row) for row in refs}
    if len(arities) != 1:
        raise ValueError(f"mixed vector arities: {sorted(arities)}")
    worst = 0.0
    for ref in refs:
        best = min(
            max(a - r for a, r in zip(vec, ref)) for vec in approx
        )
        worst = max(worst, best)
    return worst
