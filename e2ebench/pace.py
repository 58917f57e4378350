"""Host-speed probe: scales a measured host time to a reference speed.

Other tenants of a shared host slow every process on it, by up to half,
in spells that last from under a second to minutes.  A :class:`Pacer`
runs a fixed pure-Python loop (:func:`probe`) from a ``SIGALRM`` handler
every ``INTERVAL_S`` of wall time, so the loop's mean duration over a
window tracks the average slowdown the measured code saw in that window.
The window's host time, less the probes' own time, times
``REFERENCE_PROBE_S`` over that mean, is the time the window would have
taken at the reference speed.  The mean, not the median: a window's
time is the sum of its slow and fast stretches, and the probes sample
them in proportion.

The loop allocates nothing (every integer it makes is a cached small
one) and touches no program state, so the program's allocator state does
not reach it, and it cannot change what the program computes.  It does
run in the caches the program leaves behind, as the program does: that
is what makes it track the host, and ``selfcheck.py`` measures that a
larger program footprint does not slow it.
"""

from __future__ import annotations

import signal
import time
from array import array
from typing import Any, Tuple

#: Wall time between probes.
INTERVAL_S = 0.010

#: Duration of one probe on the reference host (a 2-vCPU x86-64 KVM
#: guest, Intel Xeon at 2.1 GHz, CPython 3.11) while no other tenant is
#: busy.  It fixes the unit of the scaled times, not their ratios.
REFERENCE_PROBE_S = 43e-6

_TABLE = {i: (i * 37) & 63 for i in range(64)}
_STEPS = tuple(range(64)) * 10


def probe() -> int:
    """The fixed loop: dict lookups and small-integer arithmetic, with
    every value below 256."""
    table = _TABLE
    acc = 0
    for i in _STEPS:
        acc = table[(acc ^ i) & 63] + (i & 7)
    return acc


class Pacer:
    """Times :func:`probe` every ``INTERVAL_S`` from a timer signal."""

    def __init__(self) -> None:
        self.starts: array = array("d")
        self.ends: array = array("d")

    def start(self) -> "Pacer":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum: int, _frame: Any) -> None:
        began = time.monotonic()
        probe()
        self.starts.append(began)
        self.ends.append(time.monotonic())

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """``(probe_s, slowdown)`` of the ``time.monotonic`` window
        ``[start, end]``: the probes' total time inside it, and their mean
        duration over ``REFERENCE_PROBE_S``."""
        durations = [e - s for s, e in zip(self.starts, self.ends) if s >= start and e <= end]
        if not durations:
            raise RuntimeError(f"no speed probe ran in a {end - start:.3f} s window")
        total = sum(durations)
        return total, total / len(durations) / REFERENCE_PROBE_S

    def scaled(self, start: float, end: float, host_s: float) -> float:
        """``host_s`` spent in ``[start, end]``, less the probes' time,
        at the reference speed."""
        probe_s, slowdown = self.window(start, end)
        return (host_s - probe_s) / slowdown
