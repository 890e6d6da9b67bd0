"""Host-speed sampling, which makes pass times comparable on a shared host.

The benchmark's host shares its cores with other tenants: its speed
swings up to 2x from one second to the next and drifts by a third over
minutes, so a pass's wall time says as much about the neighbours as
about the program.  A :class:`Sampler` thread times a fixed pure-Python
kernel every ``INTERVAL_S`` through a pass.  Each sample gives the
host's speed at that moment relative to ``KERNEL_REF_S``, the kernel's
time on the unloaded host, and :meth:`Sampler.seconds` turns a wall
interval into seconds of that unloaded host: the interval minus the
kernel's own time, times the mean sampled speed inside it.

On 8 fresh ``sweep_cold`` passes in a row this cut the spread of pass
throughput (interquartile range over median) from 0.14 to 0.03, and its
max/min from 1.33 to 1.05.  The kernel shares no code with the program,
so a change to the program moves the normalized time as much as the
wall time.
"""

from __future__ import annotations

import threading
import time

#: Seconds between samples.  With a ~1 ms kernel about 5% of a pass
#: goes to sampling, on both sides of any comparison.
INTERVAL_S = 0.02
KERNEL_LOOPS = 10_000
#: The kernel's time on the unloaded host (its fast-phase median).
KERNEL_REF_S = 0.001


def kernel() -> int:
    """Fixed pure-Python work: integer arithmetic and dict stores."""
    acc = 0
    table = {}
    for i in range(KERNEL_LOOPS):
        acc = (acc * 33 + i) & 0xFFFFF
        table[i & 255] = acc
    return acc


class Sampler:
    """Times :func:`kernel` every ``INTERVAL_S`` on a daemon thread,
    from :meth:`start` until :meth:`stop`; read it after :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-hostspeed", daemon=True
        )

    def start(self) -> Sampler:
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.monotonic
        while not self._stop.wait(INTERVAL_S):
            start = clock()
            kernel()
            self.samples.append((start, clock()))

    def seconds(self, start: float, end: float) -> float:
        """Unloaded-host seconds of the work done between two
        ``time.monotonic`` readings (wall seconds without samples)."""
        inside = [e - s for s, e in self.samples if start <= s and e <= end]
        if not inside:
            return end - start
        speed = sum(KERNEL_REF_S / k for k in inside) / len(inside)
        return (end - start - sum(inside)) * speed
