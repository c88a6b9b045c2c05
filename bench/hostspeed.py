"""Host-speed probe: scales a repetition's host times to a reference
speed, so that the benchmark's figures follow the program and not the
shared host's drift.

On a host shared with other tenants, one CPU-bound Python loop runs at
anything from half to full speed, switching every few seconds, and the
drift moves CPU time as much as wall time.  The probe samples that
speed while the program runs: every ``INTERVAL_S`` of wall time a
``SIGALRM`` handler times one of two fixed loops of about a tenth of a
millisecond, taking turns, about 0.4 % of the repetition's time.
Probes are spaced evenly in wall time, so the mean of
``REFERENCE_S[kind] / duration`` over the probes of one kind that fall
inside a phase is the host's mean speed during that phase, relative to
the reference.  A phase's scaled time is its measured time times that
speed: the time it would have taken at the reference speed.

The host's slow state does not slow every kind of interpreter work
alike, so each phase is scaled by the loop that does its kind of work:

- ``dispatch`` does in small what the simulator's kernel does: it
  queues event tuples on a heap, pops them in time order and
  dispatches each to a method of a slotted node object.  It scales
  ``simulate``.
- ``format`` does the same and also formats each event as a CSV field
  with a float ``repr``, as the exports, the CSV re-read and the
  analytics' number crunching do more of.  It scales every other phase.

Scaled by the ``dispatch`` loop alone, the export and classify times
kept most of their spread; scaled by the ``format`` loop, the simulate
time overshot the other way.  Neither loop allocates an object the
garbage collector tracks, beyond one list per probe, so a probe never
pays for a collection of the program's objects.

``REFERENCE_S`` fixes only the scale: each entry is that loop's typical
duration, while the program runs, on the 2-core shared host with
Python 3.11 that the benchmark's first numbers come from, so scaled
seconds read close to that host's wall seconds.
"""

from __future__ import annotations

import bisect
import signal
from heapq import heappop, heappush
from time import perf_counter

INTERVAL_S = 0.025
KINDS = ("dispatch", "format")
REFERENCE_S = {"dispatch": 8.0e-5, "format": 1.5e-4}
MIN_PROBES = 5  # a shorter phase borrows the probes nearest to it

# (time, sequence, node, payload), queued out of time order
_EVENTS = [(float(i * 3 % 67), seq, i % 64, (i,))
           for seq, i in enumerate((i * 37) % 67 for i in range(67))]


class _Node:
    __slots__ = ("nid", "count", "last")

    def __init__(self, nid: int):
        self.nid = nid
        self.count = 0
        self.last = 0.0

    def handle(self, at: float, payload: tuple) -> int:
        self.count += 1
        self.last = at
        return payload[0] + 1


_NODES = [_Node(i) for i in range(64)]


def _dispatch_work() -> int:
    heap: list[tuple] = []
    for event in _EVENTS:
        heappush(heap, event)
    total = 0
    while heap:
        at, _, nid, payload = heappop(heap)
        total += _NODES[nid].handle(at, payload)
    return total


def _format_work() -> int:
    heap: list[tuple] = []
    for event in _EVENTS:
        heappush(heap, event)
    total = 0
    while heap:
        at, _, nid, payload = heappop(heap)
        total += _NODES[nid].handle(at, payload)
        total += len(f"{nid},{at * 1.37!r}")
    return total


_WORK = {"dispatch": _dispatch_work, "format": _format_work}


class SpeedProbe:
    """Times the probe loops in turn on a wall-clock timer from
    ``start`` to ``stop``; ``speed(t0, t1, kind)`` gives the host's mean
    speed in that ``perf_counter`` window, relative to the reference,
    as loop ``kind`` saw it."""

    def __init__(self):
        self._turn = 0
        self.at: dict[str, list[float]] = {k: [] for k in KINDS}  # probe start times, ascending
        self.speeds: dict[str, list[float]] = {k: [] for k in KINDS}  # reference / duration

    def _on_alarm(self, signum, frame) -> None:
        kind = KINDS[self._turn]
        self._turn = 1 - self._turn
        t0 = perf_counter()
        _WORK[kind]()
        self.speeds[kind].append(REFERENCE_S[kind] / (perf_counter() - t0))
        self.at[kind].append(t0)

    def start(self) -> None:
        for _ in range(20):  # warm the loops' code and data
            for work in _WORK.values():
                work()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0: float, t1: float, kind: str) -> float:
        at, speeds = self.at[kind], self.speeds[kind]
        while len(at) < MIN_PROBES:  # only just started: keep busy until they come
            perf_counter()
        lo = bisect.bisect_left(at, t0)
        hi = bisect.bisect_right(at, t1)
        if hi - lo < MIN_PROBES:
            mid = bisect.bisect_left(at, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_PROBES // 2, len(at) - MIN_PROBES))
            hi = min(len(at), lo + MIN_PROBES)
        window = speeds[lo:hi]
        return sum(window) / len(window)

    def scaled(self, t0: float, t1: float, kind: str) -> float:
        """The wall time of [t0, t1] scaled to the reference speed."""
        return (t1 - t0) * self.speed(t0, t1, kind)
