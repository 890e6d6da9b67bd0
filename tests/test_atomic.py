"""Every file a later run reads back is written atomically.

A frontier, a DSE checkpoint, a run record and a mapping cache file go
through ``repro.atomic.write_text``: when the replace fails, the
previous file stays as it was and no scratch file is left beside it,
and the scratch file is named for the writing process.
"""

import os
from pathlib import Path

import pytest

from repro.core.strategy import OverlapMode
from repro.dse import DesignSpace, DSERunner
from repro.dse.pareto import ParetoFrontier
from repro.explore import MappingCache
from repro.obs import ledger

from .conftest import make_tiny_workload


def frontier(directory):
    path = directory / "frontier.json"
    ParetoFrontier(("energy",)).save(path)
    return path, lambda: ParetoFrontier(("energy", "latency")).save(path)


def checkpoint(directory):
    path = directory / "dse.json"
    space = DesignSpace(
        accelerators=("meta_proto_like_df",),
        tile_x=(4,),
        tile_y=(4,),
        modes=(OverlapMode.FULLY_CACHED,),
    )
    runner = DSERunner(space, make_tiny_workload(), checkpoint=path)
    runner._save_checkpoint({}, 0, [], None)
    return path, lambda: runner._save_checkpoint({}, 1, [], None)


def run_record(directory):
    handle = ledger.begin_run("dse", ["dse"], directory=directory)
    handle.finish()

    def rewrite():
        handle.record["status"] = "crashed"
        handle._write()

    return handle.path, rewrite


def mapping_cache(directory):
    path = directory / "cache.json"
    cache = MappingCache()
    cache.save(path)

    def rewrite():
        cache.get("absent")  # one more miss: the saved stats differ
        cache.save(path)

    return path, rewrite


@pytest.mark.parametrize("writer", [frontier, checkpoint, run_record, mapping_cache])
def test_a_failed_replace_keeps_the_previous_file_and_no_scratch(
    writer, tmp_path, monkeypatch
):
    path, rewrite = writer(tmp_path)
    before = path.read_bytes()
    listing = sorted(tmp_path.iterdir())
    scratches = []

    def failing(src, dst):
        scratches.append(Path(src))
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="replace failed"):
        rewrite()
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == listing
    (scratch,) = scratches
    assert scratch.parent == path.parent
    assert scratch.name == f"{path.name}.{os.getpid()}.tmp"
    rewrite()
    assert path.read_bytes() != before
    assert sorted(tmp_path.iterdir()) == listing
