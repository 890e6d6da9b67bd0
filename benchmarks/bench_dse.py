"""Multi-objective DSE benchmarks.

Three checks tie the new subsystem back to the paper:

* a degenerate single-objective **exhaustive** DSE reproduces case study
  2's ``best_single_strategy`` point for ResNet-18 on the DepFiN-like
  architecture — the frontier of a one-objective search *is* the classic
  argmin;
* the same degenerate run over several architectures reproduces case
  study 3's best-architecture choice;
* a **genetic** frontier search over ResNet-18 across the hardware zoo
  demonstrates the new capability (energy/latency trade-off curve) and
  must be bit-identical between serial and parallel execution — the
  determinism contract CI checks on every push.

Set ``REPRO_FULL=1`` for paper-sized grids; the defaults are a smoke
configuration sized for CI.
"""

from repro import DepthFirstEngine, get_accelerator, get_workload
from repro.analysis import frontier_csv, frontier_table
from repro.core.optimizer import best_point, best_single_strategy, sweep
from repro.core.strategy import OverlapMode
from repro.dse import DesignSpace, DSERunner, ExhaustiveSearch, GeneticSearch
from repro.explore import Executor, MappingCache
from repro.mapping import SearchConfig

from .conftest import FULL, JOBS, write_output

#: Candidate tiles: the paper grid, or a reduced smoke slice.
TILE_X = (1, 4, 16, 60, 240, 960) if FULL else (4, 16, 60)
TILE_Y = (1, 4, 18, 72, 270, 540) if FULL else (4, 18, 72)
MODES = (
    tuple(OverlapMode)
    if FULL
    else (OverlapMode.FULLY_CACHED, OverlapMode.H_CACHED_V_RECOMPUTE)
)

#: The CS3-style architecture menu for the frontier demonstration.
ZOO = (
    (
        "meta_proto_like_df",
        "tpu_like_df",
        "edge_tpu_like_df",
        "ascend_like_df",
        "tesla_npu_like_df",
        "depfin_like",
    )
    if FULL
    else ("meta_proto_like_df", "edge_tpu_like_df", "depfin_like")
)


def _config() -> SearchConfig:
    return SearchConfig(lpf_limit=6, budget=150) if FULL else SearchConfig(
        lpf_limit=5, budget=60
    )


def test_dse_exhaustive_reproduces_cs2_best(benchmark):
    """Single-objective exhaustive DSE == ``best_single_strategy`` for
    ResNet-18 on DepFiN (the acceptance criterion)."""
    config = _config()
    cache = MappingCache()
    workload = get_workload("resnet18")
    tiles = tuple((tx, ty) for tx in TILE_X for ty in TILE_Y)

    def run():
        engine = DepthFirstEngine(
            get_accelerator("depfin_like"), config, cache=cache
        )
        expected = best_single_strategy(
            engine, workload, tiles, MODES, "energy", jobs=JOBS
        )

        space = DesignSpace(
            accelerators=("depfin_like",),
            tile_x=TILE_X,
            tile_y=TILE_Y,
            modes=MODES,
        )
        runner = DSERunner(
            space,
            "resnet18",
            objectives=("energy",),
            executor=Executor(jobs=JOBS, search_config=config, cache=cache),
            seed=0,
        )
        return expected, runner.run(ExhaustiveSearch())

    expected, result = benchmark.pedantic(run, rounds=1, iterations=1)

    best = result.frontier.best("energy")
    assert best.values[0] == expected.result.total.energy_pj
    assert best.point.strategy() == expected.strategy
    write_output(
        "dse_cs2_degenerate.txt",
        f"resnet18 on depfin_like, {result.evaluations} designs:\n"
        f"  classic best_single_strategy: {expected.strategy.describe()} "
        f"E={expected.result.energy_mj:.3f} mJ\n"
        f"  exhaustive 1-objective DSE:   {best.point.describe()} "
        f"E={best.values[0] / 1e9:.3f} mJ",
    )


def test_dse_exhaustive_reproduces_cs3_architecture_choice(benchmark):
    """Adding the hardware axis and keeping one objective reproduces the
    CS3-style best (architecture, DF point) choice."""
    config = _config()
    cache = MappingCache()
    workload = get_workload("fsrcnn")
    accelerators = ZOO[:2]
    tiles = tuple((tx, ty) for tx in TILE_X for ty in TILE_Y)

    def run():
        classic = []
        for name in accelerators:
            engine = DepthFirstEngine(
                get_accelerator(name), config, cache=cache
            )
            point = best_point(
                sweep(engine, workload, tiles, MODES, jobs=JOBS), "energy"
            )
            classic.append((name, point))
        expected_name, expected = min(
            classic, key=lambda np: np[1].result.total.energy_pj
        )

        space = DesignSpace(
            accelerators=accelerators,
            tile_x=TILE_X,
            tile_y=TILE_Y,
            modes=MODES,
        )
        runner = DSERunner(
            space,
            "fsrcnn",
            objectives=("energy",),
            executor=Executor(jobs=JOBS, search_config=config, cache=cache),
            seed=0,
        )
        return expected_name, expected, runner.run(ExhaustiveSearch())

    expected_name, expected, result = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    best = result.frontier.best("energy")
    assert best.point.accelerator == expected_name
    assert best.values[0] == expected.result.total.energy_pj
    write_output(
        "dse_cs3_degenerate.txt",
        f"fsrcnn across {', '.join(accelerators)}:\n"
        f"  classic per-arch best: {expected_name} "
        f"{expected.strategy.describe()}\n"
        f"  joint-space DSE best:  {best.point.describe()}",
    )


def test_dse_genetic_frontier_across_zoo(benchmark):
    """The new capability: an energy/latency Pareto frontier for
    ResNet-18 across the hardware zoo, bit-identical serial vs parallel."""
    config = _config()
    cache = MappingCache()
    space = DesignSpace(
        accelerators=ZOO,
        tile_x=TILE_X,
        tile_y=TILE_Y,
        modes=MODES,
        fuse_depths=(None, 2) if FULL else (None,),
    )
    population, generations = (16, 6) if FULL else (6, 2)

    def run(jobs):
        runner = DSERunner(
            space,
            "resnet18",
            objectives=("energy", "latency"),
            executor=Executor(jobs=jobs, search_config=config, cache=cache),
            seed=0,
        )
        return runner.run(
            GeneticSearch(population=population, generations=generations)
        )

    serial = benchmark.pedantic(run, args=(1,), rounds=1, iterations=1)
    parallel = run(2)

    # The determinism contract: parallel evaluation never changes the
    # frontier, only the wall-clock.
    assert [(e.point, e.values) for e in serial.frontier.entries] == [
        (e.point, e.values) for e in parallel.frontier.entries
    ]
    assert serial.evaluations == parallel.evaluations
    assert len(serial.frontier) >= 1

    write_output("dse_frontier_resnet18.txt", frontier_table(serial.frontier))
    write_output("dse_frontier_resnet18.csv", frontier_csv(serial.frontier))


def test_dse_partition_genes_smoke(benchmark):
    """The PR-5 acceptance smoke: explicit stack-partition genes.

    Three checks:

    * a **degenerate** run whose partition axis is constrained to the
      weights-fit rule reproduces the fuse-depth-only frontier
      bit-identically;
    * the **full cut-subset space** yields bit-identical frontiers
      serially and in parallel (2 service shards);
    * the searched partition frontier **covers** (dominates or ties)
      the fuse-depth-only frontier — whether the domination is strict
      (the fuse-only frontier cannot cover it back) is reported in the
      benchmark output.  Under the fully-recompute mode, splitting
      mccnn's tail off the fused stack buys latency the fuse-depth cap
      cannot reach, so the set-level domination is strict.
    """
    from repro.dse import PartitionAxis, workload_segments
    from repro.dse.metrics import additive_epsilon

    config = _config()
    cache = MappingCache()
    segments = len(workload_segments("mccnn"))
    grid = dict(
        accelerators=("meta_proto_like_df",),
        tile_x=TILE_X[:2],
        tile_y=TILE_Y[:2],
        modes=(OverlapMode.FULLY_RECOMPUTE,),
    )
    fuse_space = DesignSpace(**grid)
    partition_space = DesignSpace(
        **grid, partitions=PartitionAxis(segments=segments)
    )

    def run(space, jobs=1):
        with Executor(jobs=jobs, search_config=config, cache=cache) as executor:
            runner = DSERunner(
                space,
                "mccnn",
                objectives=("energy", "latency"),
                executor=executor,
                seed=0,
            )
            return runner.run(ExhaustiveSearch())

    fuse = benchmark.pedantic(
        lambda: run(fuse_space), rounds=1, iterations=1
    )

    # Degenerate equivalence: constrained to the weights-fit rule, the
    # partition-gened DSE *is* today's fuse-depth DSE.
    degenerate = run(
        DesignSpace(
            **grid,
            partitions=PartitionAxis(segments=segments, candidates=(None,)),
        )
    )
    assert [(e.point, e.values) for e in degenerate.frontier.entries] == [
        (e.point, e.values) for e in fuse.frontier.entries
    ]

    # Backend identity: serial == parallel, bit for bit.
    serial = run(partition_space)
    parallel = run(partition_space, jobs=2)
    assert [(e.point, e.values) for e in serial.frontier.entries] == [
        (e.point, e.values) for e in parallel.frontier.entries
    ]
    assert serial.evaluations == parallel.evaluations

    # Coverage: the partition space contains every auto point, so its
    # exhaustive frontier can never be worse than the fuse-depth one.
    # Strictness is set-level: the partition frontier covers the
    # fuse-only one (epsilon <= 0) *and* holds points the fuse-only
    # frontier cannot cover back (reverse epsilon > 0).
    partition_values = [e.values for e in serial.frontier.entries]
    fuse_values = [e.values for e in fuse.frontier.entries]
    epsilon = additive_epsilon(partition_values, fuse_values)
    reverse = additive_epsilon(fuse_values, partition_values)
    assert epsilon <= 0.0
    strict = reverse > 0.0
    write_output(
        "dse_partition_frontier.txt",
        f"mccnn partition-genes DSE ({segments} branch-free segments, "
        f"{partition_space.size} designs vs {fuse_space.size} fuse-only):\n"
        f"  searched partition frontier "
        f"{'STRICTLY DOMINATES' if strict else 'ties'} the fuse-depth-only "
        f"frontier (epsilon {epsilon:.6g}, reverse epsilon "
        f"{reverse:.6g})\n\n"
        + frontier_table(serial.frontier)
        + "\n\nfuse-depth-only frontier:\n"
        + frontier_table(fuse.frontier),
    )


def test_dse_constrained_scenario_smoke(benchmark):
    """The PR-3 acceptance smoke: a 3-workload scenario under an
    on-chip memory-budget constraint produces an all-feasible frontier
    whose per-generation hypervolume is bit-identical between serial
    and parallel execution."""
    from repro.dse import MemoryBudgetConstraint, Scenario
    from repro.dse import GeneticSearch as GS

    config = _config()
    cache = MappingCache()
    space = DesignSpace(
        accelerators=ZOO[:2],
        tile_x=TILE_X,
        tile_y=TILE_Y,
        modes=MODES,
    )
    scenario = Scenario.parse("resnet18,fsrcnn,mccnn")
    population, generations = (8, 4) if FULL else (4, 2)

    def run(jobs):
        runner = DSERunner(
            space,
            scenario,
            objectives=("energy", "latency"),
            executor=Executor(jobs=jobs, search_config=config, cache=cache),
            constraints=(MemoryBudgetConstraint(),),
            seed=0,
        )
        return runner.run(GS(population=population, generations=generations))

    serial = benchmark.pedantic(run, args=(1,), rounds=1, iterations=1)
    parallel = run(4)

    assert all(e.feasible for e in serial.frontier.entries) or not any(
        v == 0.0 for _, _, v in serial.evaluated.values()
    )
    assert [
        (e.point, e.values, e.violation) for e in serial.frontier.entries
    ] == [(e.point, e.values, e.violation) for e in parallel.frontier.entries]
    hv_serial = [g.hypervolume for g in serial.generations]
    hv_parallel = [g.hypervolume for g in parallel.generations]
    assert hv_serial == hv_parallel
    assert hv_serial == sorted(hv_serial)  # monotone convergence

    from repro.analysis import convergence_table

    write_output(
        "dse_scenario_frontier.txt",
        f"scenario {scenario.describe()} on {', '.join(space.accelerators)}, "
        f"{serial.evaluations} designs "
        f"({len(serial.infeasible)} infeasible):\n"
        + frontier_table(serial.frontier)
        + "\n\n"
        + convergence_table(serial.generations),
    )
