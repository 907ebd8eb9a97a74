"""Speed probe: converts a time measured on a shared machine to reference seconds.

On a machine shared with other tenants, the same Python work can take 1.5 to
2 times longer for stretches of seconds to minutes, and those stretches do
not show as run-queue or steal time: the processor itself runs slower.  The
benchmark therefore runs a fixed pure-Python probe (``probe``) just before,
every ``INTERVAL_S`` during, and just after each timed region, and reports

    normalised = (wall - time spent in probes inside the region) * mean(REF_S / probe)

that is, the region's time at the speed where the probe takes ``REF_S``.
``REF_S`` is close to the probe's time on an uncontended 2-vCPU Intel Xeon
sandbox, so normalised and raw figures agree when nothing else is running.
The raw wall times are kept next to the normalised ones in every results file.
"""

from __future__ import annotations

import signal
import time

REF_S = 0.003
INTERVAL_S = 0.2
_ITERATIONS = 8000


def probe() -> float:
    """Duration of a fixed piece of dict, tuple and complex arithmetic work."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(_ITERATIONS):
        key = (i % 7, i % 5, 0, 0, i % 3)
        acc[key] = acc.get(key, 0j) + (i * 0.5 + 1j)
    return time.perf_counter() - start


class SpeedMeter:
    """Times one region and probes around and, through SIGALRM, during it.

    Use as ``with SpeedMeter() as meter: ...``; then ``meter.wall_s`` is the
    region's raw time and ``meter.normalised_s`` its time in reference seconds.
    """

    def __init__(self):
        self.outside: list[float] = []
        self.inside: list[tuple[float, float]] = []  # (end time, duration)
        self.wall_s = 0.0

    def _on_alarm(self, signum, frame):
        d = probe()
        self.inside.append((time.perf_counter(), d))

    def __enter__(self) -> "SpeedMeter":
        self.outside.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start
        self.inside = [(t, d) for t, d in self.inside if t <= end]
        self.outside.append(probe())

    @property
    def normalised_s(self) -> float:
        probes = self.outside + [d for _, d in self.inside]
        speed = sum(REF_S / p for p in probes) / len(probes)
        return (self.wall_s - sum(d for _, d in self.inside)) * speed
