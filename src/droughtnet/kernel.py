"""Deterministic discrete-event kernel.

Virtual clock in whole seconds, an event queue dispatching in
(fire_at, seq) order, and per-entity seeded random streams
(``stream(seed, label)``).  ``Kernel.schedule`` is the one way to queue
an event; its target is the entity object itself, whose ``handle`` gets
the payload and whose ``str`` names it in the trace, as the payload's
``tag`` names the event.  Two runs with the same scenario and seed
produce identical event sequences; determinism rests only on
``random.Random.random()``, whose output for a fixed seed is guaranteed
stable across Python versions.

The queue is a calendar queue with one bucket per second (Brown,
"Calendar queues", CACM 31(10), 1988): a whole-second clock puts several
events on most pending seconds, so each second keeps its events in a
FIFO list, which is seq order, and only the distinct pending seconds go
through a heap.
"""

from __future__ import annotations

import hashlib
import random
from heapq import heappop, heappush
from typing import Any


class SchedulingInPast(Exception):
    """An event was scheduled before the current clock - a protocol bug."""


class Message:
    """A node-to-node link delivery: the ``LinkPacket`` or ``BroadcastFan``
    in ``body`` and the node that sent it in ``src``.  It stays because
    those bodies do not carry their sender, which the receiver needs for
    its gradients and reinforcements; the trace names it by its body."""

    __slots__ = ("src", "body")

    def __init__(self, src: Any, body: Any):
        self.src = src
        self.body = body

    @property
    def tag(self) -> str:
        return self.body.tag


def stream(seed: int, label: str):
    """The ``random()`` of a deterministic random stream scoped to one
    entity.

    The same (seed, label) always yields the same draw sequence, and
    streams never share state, so adding or removing entities does not
    perturb anyone else's draws.
    """
    digest = hashlib.sha256(f"{seed}\x1f{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big")).random


class Kernel:
    """Single-threaded event loop owning all entity state it dispatches to.

    Pending events live in per-second buckets: ``_buckets[fire_at]`` is
    a list of (seq, target, payload) tuples in scheduling
    order, and ``_times`` is a heap of the seconds that have a bucket.
    seq is unique and increases with every schedule, so appending keeps
    each bucket in seq order, and an event scheduled for the running
    second joins the tail of the bucket being dispatched.  Dispatch
    order is therefore the strict total order (fire_at, seq).
    """

    def __init__(self, trace: list[str] | None = None):
        self.now: int = 0
        self.processed: int = 0
        self.trace = trace
        self._buckets: dict[int, list] = {}
        self._times: list[int] = []
        self._seq: int = 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, fire_at: int, target: Any, payload: Any) -> None:
        """Queue ``target.handle(payload)``; raises SchedulingInPast if
        fire_at < clock."""
        if fire_at < self.now:
            raise SchedulingInPast(f"fire_at {fire_at} < clock {self.now}")
        bucket = self._buckets.get(fire_at)
        if bucket is None:
            self._buckets[fire_at] = [(self._seq, target, payload)]
            heappush(self._times, fire_at)
        else:
            bucket.append((self._seq, target, payload))
        self._seq += 1

    def pending(self) -> int:
        """Events queued and not yet dispatched: every schedule made one
        seq, and every dispatch counts one processed."""
        return self._seq - self.processed

    # -- execution ---------------------------------------------------------

    def run_until(self, horizon: int) -> int:
        """Process every event with fire_at <= horizon in (fire_at, seq) order.

        Returns the number of events processed.  The clock ends at the
        last processed event's time (unchanged if none fired); it never
        runs ahead to the horizon on an empty queue.  If a handler
        raises, the events of its second that already fired, the raising
        one included, leave the queue, and the next call resumes with
        the rest of that second.
        """
        times = self._times
        buckets = self._buckets
        trace = self.trace
        start = self.processed
        while times and times[0] <= horizon:
            fire_at = times[0]
            self.now = fire_at
            bucket = buckets[fire_at]
            before = self.processed
            try:
                # iterating the list itself also reaches events that
                # handlers append to this second's bucket
                for seq, target, payload in bucket:
                    self.processed += 1
                    if trace is not None:
                        trace.append(f"{fire_at}\t{seq}\t{target}\t{payload.tag}")
                    target.handle(payload)
            except BaseException:
                # drop the fired events, and the second if none is left
                del bucket[:self.processed - before]
                if not bucket:
                    del buckets[heappop(times)]
                raise
            del buckets[heappop(times)]
        return self.processed - start
