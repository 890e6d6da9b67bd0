"""The evaluation path's one cyclic-garbage-collector policy.

Evaluations, cache-file decoding and the service parent's result
handling allocate many tracked objects and leave no cyclic garbage, so
the collections those allocations trigger walk live objects and free
nothing.  :func:`paused` switches the collector off around such a
block; DESIGN.md §5.6 lists where it is used, why that is safe and what
it saves on each benchmark workload.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def paused() -> Iterator[None]:
    """Switch the cyclic garbage collector off for the block, if it is
    on, and back on on every way out.  A nested block, or one entered
    with the collector off, leaves the collector as it found it."""
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
