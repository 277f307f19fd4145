"""Host-speed normalisation of the timed intervals of one round.

The machine this benchmark runs on shares its cores, so its speed moves
by tens of percent over seconds and minutes while the program's work
stays the same.  :class:`SpeedProbe` measures that speed while the
program runs: a ``SIGALRM`` interval timer fires every ``INTERVAL_S``
and the handler times :func:`calibrate`, a fixed pure-Python loop that
touches none of the program's state.  Python runs the handler between
two bytecodes of the main thread (or when a long C call returns), so a
probe lies wholly inside or wholly outside any interval the benchmark
times.

:meth:`SpeedProbe.scaled` turns a measured interval into seconds at the
nominal speed: the interval minus the probes inside it, times
``NOMINAL_S`` over the mean probe time within ``WINDOW_S`` of it.  On a
host running at its nominal speed a scaled time equals the wall time; a
program that does more work reads slower however fast the host is.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from typing import List, Sequence

#: Time between two probes.
INTERVAL_S = 0.02
#: Probes within this distance of an interval set its speed.
WINDOW_S = 0.25
#: Fewest probes a speed is taken from (the nearest ones, if the window
#: holds fewer).
MIN_PROBES = 8
#: Reads per calibration and the table they read from,
#: larger than a core's private caches like the program's own arrays.
CAL_READS = 1500
CAL_TABLE = 1 << 19
#: Mean probe time on the reference host (README.md) at its usual speed:
#: about 0.55 ms in the handler, against 0.37 ms in a tight loop, whose
#: caches stay warm.  Scaled times are in seconds of that host.
NOMINAL_S = 0.00055


_TABLE = array("q", range(CAL_TABLE))  # 4 MiB
_INDEX = [(i * 2654435761) % CAL_TABLE for i in range(CAL_READS)]


def calibrate() -> int:
    """Fixed interpreter work: scattered reads from a 4 MiB table, small
    dict updates and integer arithmetic."""
    table = _TABLE
    counts = {}
    total = 0
    for i in _INDEX:
        value = table[i]
        key = value & 63
        counts[key] = counts.get(key, 0) + 1
        total += value % 7
    return total + len(counts)


class SpeedProbe:
    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self._prefix: List[float] = [0.0]

    def _tick(self, _signum, _frame) -> None:
        t = time.perf_counter()
        calibrate()
        self.starts.append(t)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        prefix = self._prefix = [0.0]
        for s, e in zip(self.starts, self.ends):
            prefix.append(prefix[-1] + (e - s))

    def __len__(self) -> int:
        return len(self.starts)

    def busy(self, a: float, b: float) -> float:
        """Probe time inside ``[a, b]``."""
        i, j = bisect_left(self.starts, a), bisect_left(self.starts, b)
        return self._prefix[j] - self._prefix[i]

    def probe_s(self, a: float, b: float) -> float:
        """Mean probe time around ``[a, b]``."""
        i = bisect_left(self.starts, a - WINDOW_S)
        j = bisect_right(self.starts, b + WINDOW_S)
        if j - i < MIN_PROBES:
            mid = (i + j) // 2
            i = max(0, min(mid - MIN_PROBES // 2, len(self.starts) - MIN_PROBES))
            j = min(len(self.starts), i + MIN_PROBES)
        return (self._prefix[j] - self._prefix[i]) / (j - i)

    def scaled(self, a: float, b: float) -> float:
        """``[a, b]`` without its probes, in seconds at nominal speed."""
        return (b - a - self.busy(a, b)) * NOMINAL_S / self.probe_s(a, b)

    def scaled_each(self, starts: Sequence[float], ends: Sequence[float]) -> List[float]:
        return [self.scaled(a, b) for a, b in zip(starts, ends)]
