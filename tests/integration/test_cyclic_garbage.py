"""An evaluation leaves no cyclic garbage.

Everything a serial sweep builds is freed by reference counting once the
last reference goes, so the collector finds none of the model's objects:
no frame or traceback of a caught search failure, no ``AllocationError``,
no object of a ``repro`` class, and no cycle holding one.
"""

import gc
import types
from collections import Counter

from repro import DFStrategy, OverlapMode
from repro.explore import Executor, SweepSpec
from repro.mapping import SearchConfig, loma
from repro.mapping.allocation import AllocationError


def is_model_object(obj):
    return isinstance(
        obj, (types.FrameType, types.TracebackType, AllocationError)
    ) or type(obj).__module__.partition(".")[0] == "repro"


def test_serial_sweep_leaves_no_cyclic_garbage(monkeypatch):
    """resnet18 at 240x72 fully_recompute on meta_proto_like_df sends
    layer-tiles to raised tops (the fallback path); the cached sweep
    point does not."""
    fallbacks = []
    raised = loma.raised_tops

    def counting(accel, tops):
        fallbacks.append(tops)
        return raised(accel, tops)

    monkeypatch.setattr(loma, "raised_tops", counting)
    spec = SweepSpec.strategies(
        "meta_proto_like_df",
        "resnet18",
        [
            DFStrategy(tile_x=240, tile_y=72, mode=OverlapMode.FULLY_RECOMPUTE),
            DFStrategy(tile_x=16, tile_y=18, mode=OverlapMode.FULLY_CACHED),
        ],
    )
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        Executor(search_config=SearchConfig(lpf_limit=5, budget=40)).run(spec)
        gc.collect()
        held = Counter(
            type(obj).__qualname__
            for obj in gc.garbage
            if any(map(is_model_object, (obj, *gc.get_referents(obj))))
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert fallbacks
    assert not held, held
