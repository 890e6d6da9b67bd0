"""Unit tests for the frontier-quality metrics (hypervolume, additive
epsilon, reference points)."""

import random

import pytest

from repro.dse import additive_epsilon, hypervolume, reference_point
from repro.dse.metrics import _clean


class TestReferencePoint:
    def test_strictly_worse_than_every_vector(self):
        rows = [(1.0, 8.0), (3.0, 2.0), (2.0, 5.0)]
        ref = reference_point(rows)
        for row in rows:
            assert all(v < r for v, r in zip(row, ref))

    def test_constant_objective_still_padded(self):
        ref = reference_point([(5.0, 0.0), (5.0, 0.0)])
        assert ref[0] > 5.0
        assert ref[1] > 0.0

    def test_rejects_empty_and_bad_margin(self):
        with pytest.raises(ValueError):
            reference_point([])
        with pytest.raises(ValueError):
            reference_point([(1.0,)], margin=0.0)


class TestHypervolume1D:
    def test_single_objective_is_gap_to_reference(self):
        assert hypervolume([(3.0,), (7.0,)], (10.0,)) == 7.0

    def test_points_beyond_reference_contribute_nothing(self):
        assert hypervolume([(12.0,)], (10.0,)) == 0.0
        assert hypervolume([], (10.0,)) == 0.0


class TestHypervolume2D:
    def test_single_point_rectangle(self):
        assert hypervolume([(2.0, 3.0)], (10.0, 10.0)) == 8.0 * 7.0

    def test_two_point_staircase(self):
        # Union of (2,6)->(10,10) and (6,2)->(10,10): 32 + 32 - 16 = 48.
        assert hypervolume([(2.0, 6.0), (6.0, 2.0)], (10.0, 10.0)) == 48.0

    def test_dominated_point_changes_nothing(self):
        base = hypervolume([(2.0, 6.0), (6.0, 2.0)], (10.0, 10.0))
        more = hypervolume(
            [(2.0, 6.0), (6.0, 2.0), (7.0, 7.0)], (10.0, 10.0)
        )
        assert more == base

    def test_duplicates_change_nothing(self):
        assert hypervolume(
            [(2.0, 6.0), (2.0, 6.0)], (10.0, 10.0)
        ) == hypervolume([(2.0, 6.0)], (10.0, 10.0))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            hypervolume([(1.0, 2.0, 3.0)], (10.0, 10.0))


class TestHypervolumeMonteCarlo:
    def test_single_point_box_estimate(self):
        # One 3D point: the exact dominated volume is the full box, so
        # the Monte-Carlo estimate must be exact whatever the samples.
        exact = 8.0 * 7.0 * 6.0
        estimate = hypervolume([(2.0, 3.0, 4.0)], (10.0, 10.0, 10.0))
        assert estimate == pytest.approx(exact)

    def test_two_point_union_within_tolerance(self):
        # Inclusion-exclusion: 8*8*4 + 4*8*8 - 4*8*4 = 384.
        points = [(2.0, 2.0, 6.0), (6.0, 2.0, 2.0)]
        exact = 256.0 + 256.0 - 128.0
        estimate = hypervolume(points, (10.0, 10.0, 10.0), samples=20000)
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_fixed_seed_is_deterministic(self):
        points = [(1.0, 2.0, 3.0), (3.0, 2.0, 1.0)]
        a = hypervolume(points, (5.0, 5.0, 5.0), seed=7)
        b = hypervolume(points, (5.0, 5.0, 5.0), seed=7)
        assert a == b
        assert hypervolume(points, (5.0, 5.0, 5.0), samples=1) >= 0.0

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            hypervolume([(1.0, 1.0, 1.0)], (2.0, 2.0, 2.0), samples=0)


def loop_hypervolume(points, reference, samples=4096, seed=0):
    """The Monte-Carlo estimate one draw at a time: the reference the
    vectorized estimate must equal exactly."""
    ref = tuple(float(r) for r in reference)
    front = _clean(points, ref)
    if not front:
        return 0.0
    lows = tuple(min(vec[m] for vec in front) for m in range(len(ref)))
    box = 1.0
    for lo, hi in zip(lows, ref):
        box *= hi - lo
    if box <= 0.0:
        return 0.0
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        draw = tuple(lo + rng.random() * (hi - lo) for lo, hi in zip(lows, ref))
        if any(all(v <= d for v, d in zip(vec, draw)) for vec in front):
            hits += 1
    return box * hits / samples


class TestHypervolumeMatchesTheLoop:
    @pytest.mark.parametrize(
        "points",
        [
            # duplicates
            [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (3.0, 2.0, 1.0)],
            # ties in every objective
            [(1.0, 2.0, 2.0), (2.0, 1.0, 2.0), (2.0, 2.0, 1.0), (2.0, 2.0, 2.0)],
            # on the box edge: at the reference (dropped) and at the lows
            [(0.0, 4.0, 4.0), (4.0, 0.0, 4.0), (4.0, 4.0, 0.0), (5.0, 1.0, 1.0)],
            # a degenerate box: one objective constant
            [(1.0, 2.0, 3.0), (2.0, 1.0, 3.0)],
            # four objectives
            [(1.0, 2.0, 3.0, 4.0), (4.0, 3.0, 2.0, 1.0), (2.5, 2.5, 2.5, 2.5)],
        ],
    )
    def test_edge_cases(self, points):
        ref = (5.0,) * len(points[0])
        for samples, seed in ((4096, 0), (1, 3), (1500, 7)):
            assert hypervolume(points, ref, samples, seed) == loop_hypervolume(
                points, ref, samples, seed
            )

    def test_random_fronts(self):
        rng = random.Random(11)
        for trial in range(40):
            dims = rng.choice((3, 3, 4))
            points = [
                [rng.choice((rng.random(), round(rng.random(), 1), 1.0)) for _ in range(dims)]
                for _ in range(rng.randint(1, 25))
            ]
            ref = (1.0,) * dims if trial % 2 else (1.1,) * dims
            assert hypervolume(points, ref, seed=trial) == loop_hypervolume(
                points, ref, seed=trial
            )


class TestAdditiveEpsilon:
    def test_zero_when_weakly_dominating(self):
        approx = [(1.0, 4.0), (4.0, 1.0)]
        assert additive_epsilon(approx, approx) == 0.0
        assert additive_epsilon([(0.5, 0.5)], approx) == 0.0

    def test_uniform_shift_measured_exactly(self):
        ref = [(1.0, 4.0), (4.0, 1.0)]
        shifted = [(2.0, 5.0), (5.0, 2.0)]
        assert additive_epsilon(shifted, ref) == 1.0

    def test_empty_sets(self):
        assert additive_epsilon([], []) == 0.0
        assert additive_epsilon([], [(1.0,)]) == float("inf")
        assert additive_epsilon([(1.0,)], []) == 0.0

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError, match="arities"):
            additive_epsilon([(1.0, 2.0)], [(1.0,)])
