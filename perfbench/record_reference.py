"""Regenerate ``reference.json``: the simulated outputs every benchmark
pass is checked against.

It holds, for every sweep job of ``sweep_cold``/``sweep_service`` and
``sweep_warm``, the energy, latency, MAC count, per-tier accesses and
frontier objectives, and for every design ``dse_scenario`` evaluates,
the objective values and constraint violation.  Record it once at a
commit whose cost model is trusted; a later commit that changes a
simulated output then shows up as failed evaluations.  From the
repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path


def main() -> int:
    import suite
    import repro.cli
    from repro.explore import Executor, MappingCache

    jobs_out: dict = {}
    for workload in ("sweep_cold", "sweep_warm"):
        jobs = suite.build_jobs(workload, 0)
        executor = Executor(
            search_config=suite.search_config(), cache=MappingCache()
        )
        for job, r in zip(jobs, executor.run(jobs)):
            jobs_out[suite.job_key(job)] = suite.job_outputs(job, r.result)

    scratch = Path(".perfbench")
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        if repro.cli.main(suite.dse_argv(workdir)) != 0:
            raise SystemExit("repro dse failed")
        checkpoint = json.loads((workdir / "checkpoint.json").read_text())
    finally:
        shutil.rmtree(workdir)
    dse_out = suite.dse_outputs(checkpoint)

    suite.REFERENCE_PATH.write_text(
        json.dumps({"jobs": jobs_out, "dse": dse_out}, sort_keys=True) + "\n"
    )
    print(
        f"wrote {suite.REFERENCE_PATH}: {len(jobs_out)} sweep jobs, "
        f"{len(dse_out)} DSE designs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
