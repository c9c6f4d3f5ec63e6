"""Host-speed probe: a fixed piece of work timed all through the timed work.

On a shared host the same work can take half as long again from one
second to the next. While a Sampler is active, a SIGALRM handler runs the
probe every INTERVAL_S seconds of wall time, in the middle of whatever the
workload is doing. A timed piece of work is then accounted as its time
minus the probe time that fell inside it, rescaled by PROBE_REF_S over the
median probe time around it: seconds at the host speed where the probe
takes PROBE_REF_S. The probe is code of the benchmark's own, never
mmcplace's, so a change to the program leaves it untouched.
"""

from __future__ import annotations

import signal
import statistics
import time

# about the median probe time on the 2-core virtual machine of README.md
PROBE_REF_S = 0.007
INTERVAL_S = 0.2
PAD_S = 0.5        # probes this close to a piece of work count for its speed

_CELLS = {c: (c % 13 - 6, c // 13 - 6) for c in range(169)}


def _hops(c1: int, c2: int) -> int:
    q1, r1 = _CELLS[c1]
    q2, r2 = _CELLS[c2]
    dq, dr = q1 - q2, r1 - r2
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def _kernel() -> int:
    """Interpreter-bound work like the workloads' hot loops: small
    function calls on tuples held in a dict, and dict updates. A probe of
    small numpy operations tracked the workloads' speed less well."""
    tally: dict[int, int] = {}
    for c1 in range(0, 169, 3):
        for c2 in range(169):
            h = _hops(c1, c2)
            tally[h] = tally.get(h, 0) + c2
    for i in range(16_000):
        k = i % 977
        tally[k] = tally.get(k, 0) + i
    return sum(tally.values())


class Sampler:
    """Runs the probe every INTERVAL_S seconds while active (a context
    manager) and accounts timed work against the probe times."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        # the first probe at once, so that the first piece of work has one
        signal.setitimer(signal.ITIMER_REAL, 1e-3, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def account(self, start: float, end: float,
                seconds: float | None = None) -> tuple[float, float | None]:
        """(seconds of work in [start, end] net of the probes inside it,
        median probe time within PAD_S of it or else the nearest probe
        time, None if the sampler never ran).

        `seconds` is the work's own time when the program measured it
        itself inside [start, end]; otherwise it is end - start.
        """
        if seconds is None:
            seconds = end - start
        if not self.samples:
            return seconds, None
        inside = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples
                if start - PAD_S <= t < end + PAD_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return seconds - inside, statistics.median(near)
