"""Unit tests for the search strategies, driven with synthetic
objective values (no cost-model evaluations)."""

import random

import pytest

from repro.core.strategy import OverlapMode
from repro.dse import (
    DesignSpace,
    ExhaustiveSearch,
    GeneticSearch,
    RandomSearch,
    create_strategy,
)


def space(**overrides):
    base = dict(
        accelerators=("meta_proto_like_df",),
        tile_x=(1, 4, 16, 60),
        tile_y=(1, 4, 18, 72),
        modes=tuple(OverlapMode),
        fuse_depths=(None, 2),
    )
    base.update(overrides)
    return DesignSpace(**base)


def fake_values(point):
    """A deterministic two-objective landscape: small tiles are 'fast',
    big tiles are 'efficient', so the front is a real trade-off."""
    area = point.tile_x * point.tile_y
    return (1e6 / (area + 1), float(area))


def drive(strategy, sp, seed=0, max_rounds=50):
    """Run a strategy against the synthetic landscape; returns the
    proposal batches."""
    rng = random.Random(seed)
    strategy.reset(sp, rng)
    batches = []
    for _ in range(max_rounds):
        batch = strategy.propose()
        if not batch:
            break
        batches.append(batch)
        unique = {p.key(): p for p in batch}
        strategy.observe(
            [(p, fake_values(p), 0.0) for p in unique.values()]
        )
    return batches


class ScriptedDraws(random.Random):
    """A random source whose ``randrange`` returns scripted values."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = iter(draws)

    def randrange(self, stop):
        draw = next(self.draws)
        assert 0 <= draw < stop
        return draw


class TestExhaustive:
    def test_proposes_entire_space_once(self):
        sp = space()
        batches = drive(ExhaustiveSearch(), sp)
        assert len(batches) == 1
        assert batches[0] == list(sp.enumerate())


class TestRandom:
    def test_samples_without_replacement(self):
        sp = space()
        batches = drive(RandomSearch(samples=20), sp)
        assert len(batches) == 1
        keys = [p.key() for p in batches[0]]
        assert len(keys) == 20 and len(set(keys)) == 20
        assert all(p in sp for p in batches[0])

    def test_caps_at_space_size(self):
        sp = space(tile_x=(4,), tile_y=(4,), fuse_depths=(None,))
        (batch,) = drive(RandomSearch(samples=99), sp)
        assert len(batch) == sp.size

    def test_seed_determinism(self):
        sp = space()
        a = drive(RandomSearch(samples=10), sp, seed=3)
        b = drive(RandomSearch(samples=10), sp, seed=3)
        c = drive(RandomSearch(samples=10), sp, seed=4)
        assert a == b
        assert a != c

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            RandomSearch(samples=0)


class TestGenetic:
    def test_generation_count_and_batch_size(self):
        sp = space()
        batches = drive(GeneticSearch(population=6, generations=4), sp)
        assert len(batches) == 4
        assert all(len(batch) == 6 for batch in batches)

    def test_offspring_stay_inside_space(self):
        sp = space()
        for batch in drive(GeneticSearch(population=8, generations=5), sp):
            assert all(p in sp for p in batch)

    def test_seed_determinism(self):
        sp = space()
        a = drive(GeneticSearch(population=6, generations=4), sp, seed=0)
        b = drive(GeneticSearch(population=6, generations=4), sp, seed=0)
        assert a == b

    def test_different_seeds_diverge(self):
        sp = space()
        a = drive(GeneticSearch(population=6, generations=4), sp, seed=0)
        b = drive(GeneticSearch(population=6, generations=4), sp, seed=1)
        assert a != b

    def test_selection_prefers_nondominated(self):
        """After convergence pressure, the surviving pool should be
        enriched in low-rank (near-front) designs of the landscape."""
        sp = space()
        strategy = GeneticSearch(population=6, generations=6)
        drive(strategy, sp, seed=0)
        # The pool is the elite; every member must be evaluated and
        # bounded by the population size.
        assert 0 < len(strategy._pool) <= 6

    def test_tournament_keeps_the_earlier_draw(self):
        """A binary tournament returns whichever of its two uniform
        draws comes first in the selection order (rank, then crowding),
        so breeding favours the fitter parent."""
        sp = space()
        strategy = GeneticSearch(population=6, generations=2)
        drive(strategy, sp, seed=0)
        ordered = list(strategy._ordered)
        assert len(set(ordered)) == 6
        pairs = [(0, 5), (5, 0), (3, 3), (4, 1), (2, 5)]
        strategy.rng = ScriptedDraws(i for pair in pairs for i in pair)
        picks = [strategy._tournament() for _ in pairs]
        assert picks == [ordered[min(pair)] for pair in pairs]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GeneticSearch(population=1)
        with pytest.raises(ValueError):
            GeneticSearch(generations=0)
        with pytest.raises(ValueError):
            GeneticSearch(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GeneticSearch(mutation_rate=-0.1)


class TestGeneticOverPartitionGenes:
    """The first variable-length axis: partition-aware breeding must
    stay deterministic and only ever produce valid genomes."""

    def partition_space(self, **overrides):
        from repro.dse import PartitionAxis

        base = dict(
            accelerators=("meta_proto_like_df",),
            tile_x=(1, 4, 16),
            tile_y=(1, 4, 18),
            modes=(OverlapMode.FULLY_CACHED, OverlapMode.FULLY_RECOMPUTE),
            partitions=PartitionAxis(segments=5),
        )
        base.update(overrides)
        return DesignSpace(**base)

    def test_offspring_stay_inside_space(self):
        sp = self.partition_space()
        for batch in drive(GeneticSearch(population=8, generations=5), sp):
            assert all(p in sp for p in batch)
            for p in batch:
                assert p.fuse_depth is None

    def test_search_recombines_partitions(self):
        """Across a run the search must actually explore the partition
        axis, not just the auto rule."""
        sp = self.partition_space()
        batches = drive(GeneticSearch(population=8, generations=6), sp)
        partitions = {p.partition for batch in batches for p in batch}
        assert len(partitions) > 2

    def test_seed_determinism(self):
        sp = self.partition_space()
        a = drive(GeneticSearch(population=6, generations=4), sp, seed=0)
        b = drive(GeneticSearch(population=6, generations=4), sp, seed=0)
        c = drive(GeneticSearch(population=6, generations=4), sp, seed=1)
        assert a == b
        assert a != c

    def test_candidates_mode(self):
        from repro.dse import PartitionAxis

        sp = self.partition_space(
            partitions=PartitionAxis(
                segments=5, candidates=(None, (1,), (2, 4))
            )
        )
        batches = drive(GeneticSearch(population=6, generations=4), sp)
        for batch in batches:
            for p in batch:
                assert p.partition in (None, (1,), (2, 4))

    def test_random_and_exhaustive_cover_partition_space(self):
        sp = self.partition_space(
            tile_x=(4,), tile_y=(4,), modes=(OverlapMode.FULLY_CACHED,)
        )
        (batch,) = drive(ExhaustiveSearch(), sp)
        assert len(batch) == sp.size
        assert len({p.key() for p in batch}) == sp.size
        (sampled,) = drive(RandomSearch(samples=10), sp, seed=3)
        assert len(sampled) == 10
        assert all(p in sp for p in sampled)


class TestCreateStrategy:
    def test_by_name(self):
        assert isinstance(create_strategy("exhaustive"), ExhaustiveSearch)
        assert isinstance(create_strategy("random", samples=5), RandomSearch)
        genetic = create_strategy("genetic", population=4, generations=2)
        assert isinstance(genetic, GeneticSearch)
        assert genetic.population == 4 and genetic.generations == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            create_strategy("annealing")
