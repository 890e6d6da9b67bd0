"""Workload definitions and output checks shared by the benchmark's
runner (``run.py``), its one-pass worker (``worker.py``) and the
reference recorder (``record_reference.py``).

Four workloads, each chosen to stress a different layer (the full
layer -> metric -> workload map is in ``layers.json``):

``sweep_cold``
    Table I zoo cross-product (5 workloads x 5 accelerators x 3 tiles,
    ``fully_cached``, lpf 6 / budget 150), fresh in-memory mapping
    cache, serial: 75 evaluations dominated by LOMA search.
``sweep_warm``
    The paper's Fig. 12 grid (fsrcnn on ``meta_proto_like_df``, 6x6
    tiles x 3 overlap modes): 108 evaluations against a mapping cache
    file written by a separate priming process, so every search hits
    and back-calculation dominates.
``dse_scenario``
    ``repro dse``: genetic search over a 2-workload scenario on 3
    accelerators with partition genes and the memory-fit constraint.
``sweep_service``
    ``sweep_cold``'s job list through the service backend with 2
    shards: identical work, so any difference is fan-out.

The benchmark seed permutes sweep job order, which changes no work.
``dse_scenario`` keeps the genetic seed at ``DSE_GENETIC_SEED``: genetic
seeds 0-7 run 3,992 to 5,337 searches, and that spread would show up as
a throughput change between runs of one commit.

Everything that needs ``repro`` imports it inside functions: the runner
must start (and refuse to run) in a checkout without ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("sweep_cold", "sweep_warm", "dse_scenario", "sweep_service")
#: Workloads whose per-layer counts must repeat exactly (no fan-out race).
SERIAL_WORKLOADS = ("sweep_cold", "sweep_warm", "dse_scenario")

SWEEP_DNNS = ("fsrcnn", "dmcnn_vd", "mccnn", "mobilenet_v1", "resnet18")
SWEEP_ACCELERATORS = (
    "ascend_like",
    "edge_tpu_like",
    "meta_proto_like",
    "tesla_npu_like",
    "tpu_like",
)
COLD_TILES = ((16, 18), (60, 72), (240, 270))
SWEEP_LPF_LIMIT = 6
SWEEP_BUDGET = 150
SERVICE_SHARDS = 2

WARM_ACCELERATOR = "meta_proto_like_df"
WARM_DNN = "fsrcnn"

DSE_GENETIC_SEED = 0
DSE_DNNS = ("mobilenet_v1", "resnet18")
DSE_ACCELERATORS = ("meta_proto_like_df", "edge_tpu_like", "tpu_like")
DSE_OBJECTIVES = ("energy", "latency", "offchip_traffic")

#: Objectives of every frontier_hv computation (sweeps and DSE alike).
HV_OBJECTIVES = DSE_OBJECTIVES
#: Reference point = this factor x the largest reference value.
HV_MARGIN = 1.1

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def dse_argv(workdir: Path) -> list[str]:
    """The ``repro dse`` command line of ``dse_scenario``; checkpoint,
    output and run ledger live in ``workdir``, which must be fresh (a
    leftover checkpoint would resume with 0 evaluations)."""
    return [
        "dse",
        "--workloads", ",".join(DSE_DNNS),
        "--accelerators", ",".join(DSE_ACCELERATORS),
        "--strategy", "genetic",
        "--population", "16",
        "--generations", "10",
        "--budget", "40",
        "--lpf-limit", "5",
        "--objectives", ",".join(DSE_OBJECTIVES),
        "--partition-genes",
        "--memory-budget", "fit",
        "--seed", str(DSE_GENETIC_SEED),
        "--checkpoint", str(workdir / "checkpoint.json"),
        "--output", str(workdir / "output.json"),
        "--runs-dir", str(workdir / "runs"),
    ]


def search_config():
    from repro.mapping import SearchConfig

    return SearchConfig(lpf_limit=SWEEP_LPF_LIMIT, budget=SWEEP_BUDGET)


def cold_jobs(seed: int, accelerators: dict, dnns: dict) -> list:
    """``sweep_cold``'s 75 jobs in the seed's order; ``accelerators``
    and ``dnns`` map zoo names to already-built zoo objects."""
    from repro.core import DFStrategy, OverlapMode
    from repro.explore import EvalJob

    jobs = [
        EvalJob(
            accelerator=accelerators[accel],
            workload=dnns[dnn],
            strategy=DFStrategy(
                tile_x=tx, tile_y=ty, mode=OverlapMode.FULLY_CACHED
            ),
        )
        for dnn in SWEEP_DNNS
        for accel in SWEEP_ACCELERATORS
        for tx, ty in COLD_TILES
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def warm_jobs(seed: int, accelerator, dnn) -> list:
    """``sweep_warm``'s 108 Fig. 12 jobs in the seed's order."""
    from repro.core.optimizer import PAPER_TILE_GRID_X, PAPER_TILE_GRID_Y
    from repro.explore import SweepSpec

    tiles = [(x, y) for x in PAPER_TILE_GRID_X for y in PAPER_TILE_GRID_Y]
    jobs = list(SweepSpec.tile_grid(accelerator, dnn, tiles).jobs)
    random.Random(seed).shuffle(jobs)
    return jobs


def build_jobs(workload: str, seed: int) -> list:
    """Build the zoo objects and the job list of a sweep workload."""
    from repro.hardware.zoo import get_accelerator
    from repro.workloads.zoo import get_workload

    if workload == "sweep_warm":
        return warm_jobs(
            seed, get_accelerator(WARM_ACCELERATOR), get_workload(WARM_DNN)
        )
    accelerators = {name: get_accelerator(name) for name in SWEEP_ACCELERATORS}
    dnns = {name: get_workload(name) for name in SWEEP_DNNS}
    return cold_jobs(seed, accelerators, dnns)


# ----------------------------------------------------------------------
# Simulated outputs and their reference
# ----------------------------------------------------------------------
def job_key(job) -> str:
    return f"{job.workload_name}|{job.accelerator_name}|{job.strategy.describe()}"


def job_outputs(job, result) -> dict:
    """The simulated totals the reference pins for one evaluation."""
    from repro.analysis import access_breakdown
    from repro.mapping.cost import resolve_objective

    total = result.total
    return {
        "energy_pj": result.energy_pj,
        "latency_cycles": result.latency_cycles,
        "mac_count": result.mac_count,
        "accesses_by_tier": access_breakdown(job.accelerator, total).by_tier(),
        "objectives": [resolve_objective(o)(total) for o in HV_OBJECTIVES],
    }


def design_key(point_json) -> str:
    """Short stable identity of a DSE design (its canonical JSON)."""
    text = json.dumps(point_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def dse_outputs(checkpoint: dict) -> dict:
    """Per-design (objective values..., violation) from a checkpoint's
    ``evaluated`` list, keyed by :func:`design_key`."""
    return {
        design_key(point): [*values, violation]
        for point, values, violation in checkpoint["evaluated"]
    }


def digest(outputs) -> str:
    """Digest of simulated outputs (traced == untraced identity)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def hv_reference_points(reference: dict) -> dict:
    """Fixed frontier_hv reference point per frontier group: the sweep
    DNNs and ``dse_scenario``, each HV_MARGIN x the largest reference
    value of every objective."""
    groups: dict[str, list] = {}
    for key, out in reference["jobs"].items():
        groups.setdefault(key.split("|", 1)[0], []).append(out["objectives"])
    rows = [values[:-1] for values in reference["dse"].values()]
    groups["dse_scenario"] = rows
    return {
        name: [HV_MARGIN * max(col) for col in zip(*values)]
        for name, values in groups.items()
    }


def frontier_hv(groups: dict, points: dict) -> float:
    """Mean over frontier groups of the hypervolume that group's
    objective vectors dominate inside its fixed reference box,
    normalized to the box (so each group contributes a value in
    (0, 1]).  3-D hypervolume is the library's seeded Monte-Carlo
    estimate, so it repeats exactly."""
    from repro.dse.metrics import hypervolume

    values = []
    for name, rows in sorted(groups.items()):
        ref = points[name]
        scaled = [[v / r for v, r in zip(row, ref)] for row in rows]
        values.append(hypervolume(scaled, [1.0] * len(ref)))
    return sum(values) / len(values)
