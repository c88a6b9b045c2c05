"""Deterministic discrete-event kernel.

Virtual clock in whole seconds, a priority event queue ordered by
(fire_at, seq), per-entity seeded random streams and delayed message
delivery between registered entities.  Two runs with the same scenario
and seed produce identical event sequences; determinism rests only on
``random.Random.random()``, whose output for a fixed seed is guaranteed
stable across Python versions.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from enum import Enum
from typing import Any


class KernelError(Exception):
    pass


class SchedulingInPast(KernelError):
    """An event was scheduled before the current clock - a protocol bug."""


class UnknownEntity(KernelError):
    pass


class EntityKind(Enum):
    SENSOR_NODE = "SensorNode"
    LOCAL_BASE_STATION = "LocalBaseStation"
    REMOTE_BASE_STATION = "RemoteBaseStation"
    ENVIRONMENT = "Environment"


class EntityId:
    """Stable handle for a simulated entity, unique across a scenario.

    Immutable and interned: EntityId(kind, index) returns the one object
    for that pair, so equality and hashing are the built-in identity
    ones.  Ids are dict keys on every schedule, send and neighbour
    lookup, where a field-wise hash through the Enum's Python-level
    __hash__ would cost about a tenth of simulate time.
    """

    __slots__ = ("kind", "index")
    _interned: dict[tuple[EntityKind, int], "EntityId"] = {}

    def __new__(cls, kind: EntityKind, index: int) -> "EntityId":
        eid = cls._interned.get((kind, index))
        if eid is None:
            eid = object.__new__(cls)
            object.__setattr__(eid, "kind", kind)
            object.__setattr__(eid, "index", index)
            eid = cls._interned.setdefault((kind, index), eid)
        return eid

    def __setattr__(self, name, value):
        raise AttributeError(f"EntityId is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EntityId is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (EntityId, (self.kind, self.index))

    def __repr__(self) -> str:
        return f"EntityId(kind={self.kind!r}, index={self.index!r})"

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.index}"


class Message:
    """Delayed delivery wrapper carrying the sender for provenance."""

    __slots__ = ("src", "body")

    def __init__(self, src: EntityId, body: Any):
        self.src = src
        self.body = body

    @property
    def tag(self) -> str:
        return getattr(self.body, "tag", type(self.body).__name__)


class RngStream:
    """Deterministic random stream scoped to one entity.

    The same (seed, stream_label) always yields the same draw sequence,
    and streams never share state, so adding or removing entities does
    not perturb anyone else's draws.  Every method is built on the
    stable ``random()`` primitive only.
    """

    __slots__ = ("seed", "stream_label", "_random")

    def __init__(self, seed: int, stream_label: str):
        self.seed = seed
        self.stream_label = stream_label
        digest = hashlib.sha256(f"{seed}\x1f{stream_label}".encode()).digest()
        self._random = random.Random(int.from_bytes(digest[:8], "big")).random

    def random(self) -> float:
        return self._random()

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self._random()

    def randint(self, a: int, b: int) -> int:
        """Integer in [a, b] inclusive."""
        return a + int(self._random() * (b - a + 1))

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        # Box-Muller, always two underlying draws per call.
        u1 = self._random()
        u2 = self._random()
        if u1 <= 0.0:
            u1 = 5e-324
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def expovariate(self, lambd: float) -> float:
        u = self._random()
        return -math.log(1.0 - u) / lambd


class Kernel:
    """Single-threaded event loop owning all entity state it dispatches to.

    Events are stored as (fire_at, seq, target, handler, payload) tuples;
    seq is unique, so (fire_at, seq) is a strict total order.
    """

    def __init__(self, seed: int, trace: list[str] | None = None):
        self.seed = seed
        self.now: int = 0
        self.processed: int = 0
        self.trace = trace
        self._heap: list = []
        self._seq: int = 0
        self._entities: dict[EntityId, Any] = {}

    # -- entities ----------------------------------------------------------

    def register(self, entity: Any) -> None:
        eid = entity.entity_id
        if eid in self._entities:
            raise ValueError(f"entity already registered: {eid}")
        self._entities[eid] = entity

    def entity(self, eid: EntityId) -> Any:
        try:
            return self._entities[eid]
        except KeyError:
            raise UnknownEntity(str(eid)) from None

    def stream(self, label: str) -> RngStream:
        return RngStream(self.seed, label)

    # -- scheduling --------------------------------------------------------

    def schedule(self, fire_at: int, target: EntityId, payload: Any) -> None:
        """Queue an event; raises SchedulingInPast if fire_at < clock."""
        if fire_at < self.now:
            raise SchedulingInPast(f"fire_at {fire_at} < clock {self.now}")
        try:
            handler = self._entities[target].handle
        except KeyError:
            raise UnknownEntity(str(target)) from None
        heapq.heappush(self._heap, (fire_at, self._seq, target, handler, payload))
        self._seq += 1

    def send_delayed(self, src: EntityId, dst: EntityId, payload: Any, delay_s: int) -> None:
        """Deliver payload to dst at clock + delay_s, carrying src."""
        if delay_s < 0:
            raise ValueError(f"negative delay: {delay_s}")
        if src not in self._entities:
            raise UnknownEntity(str(src))
        self.schedule(self.now + delay_s, dst, Message(src, payload))

    def pending(self) -> int:
        return len(self._heap)

    # -- execution ---------------------------------------------------------

    def run_until(self, horizon: int) -> int:
        """Process every event with fire_at <= horizon in (fire_at, seq) order.

        Returns the number of events processed.  The clock ends at the
        last processed event's time (unchanged if none fired); it never
        runs ahead to the horizon on an empty queue.
        """
        heap = self._heap
        pop = heapq.heappop
        trace = self.trace
        count = 0
        while heap and heap[0][0] <= horizon:
            fire_at, seq, target, handler, payload = pop(heap)
            self.now = fire_at
            if trace is not None:
                tag = getattr(payload, "tag", None) or type(payload).__name__
                trace.append(f"{fire_at}\t{seq}\t{target}\t{tag}")
            handler(payload)
            count += 1
        self.processed += count
        return count
