import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtnet.kernel import (
    EntityId,
    EntityKind,
    Kernel,
    SchedulingInPast,
    UnknownEntity,
    stream,
)

from helpers import ReferenceHeapKernel, ReferenceStream


class Recorder:
    """Minimal entity that records (time, payload) in processing order."""

    def __init__(self, kernel, index=0):
        self.entity_id = EntityId(EntityKind.SENSOR_NODE, index)
        self.kernel = kernel
        self.log = []

    def handle(self, payload):
        self.log.append((self.kernel.now, payload))


def make_kernel(n_entities=1):
    k = Kernel()
    recs = [Recorder(k, i) for i in range(n_entities)]
    for r in recs:
        k.register(r)
    return k, recs


def test_entity_ids_compare_by_kind_and_index():
    a = EntityId(EntityKind.SENSOR_NODE, 3)
    b = EntityId(EntityKind.SENSOR_NODE, 3)
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert a != EntityId(EntityKind.LOCAL_BASE_STATION, 3)
    assert a != EntityId(EntityKind.SENSOR_NODE, 4)
    assert str(a) == "SensorNode:3"
    assert str(EntityId(EntityKind.REMOTE_BASE_STATION, 0)) == "RemoteBaseStation:0"
    with pytest.raises(AttributeError):
        a.index = 4
    with pytest.raises(AttributeError):
        del a.kind
    assert (a.kind, a.index) == (EntityKind.SENSOR_NODE, 3)
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_zero_delay_event_fires_first():
    k, (r,) = make_kernel()
    k.schedule(5, r.entity_id, "later")
    k.schedule(0, r.entity_id, "wake")
    assert k.run_until(10) == 2
    assert r.log == [(0, "wake"), (5, "later")]


def test_simultaneous_events_fire_in_seq_order():
    k, (r,) = make_kernel()
    k.schedule(1800, r.entity_id, "a")
    k.schedule(1800, r.entity_id, "b")
    k.run_until(1800)
    assert r.log == [(1800, "a"), (1800, "b")]


def test_scheduling_in_past_rejected():
    k, (r,) = make_kernel()
    k.schedule(10, r.entity_id, "x")
    k.run_until(10)
    assert k.now == 10
    with pytest.raises(SchedulingInPast):
        k.schedule(5, r.entity_id, "too late")


def test_schedule_to_unknown_target():
    k, _ = make_kernel()
    with pytest.raises(UnknownEntity):
        k.schedule(0, EntityId(EntityKind.SENSOR_NODE, 99), "x")


def test_run_until_empty_queue_leaves_clock():
    k, _ = make_kernel()
    assert k.run_until(100) == 0
    assert k.now == 0


def test_run_until_horizon_cut():
    k, (r,) = make_kernel()
    for t in (1, 2, 3):
        k.schedule(t, r.entity_id, t)
    assert k.run_until(2) == 2
    assert [t for t, _ in r.log] == [1, 2]
    assert k.pending() == 1
    assert k.run_until(3) == 1


class Relay:
    """Forwards each received message to the next entity after a fixed delay."""

    def __init__(self, kernel, index, nxt, delay):
        self.entity_id = EntityId(EntityKind.SENSOR_NODE, index)
        self.kernel = kernel
        self.nxt = nxt
        self.delay = delay
        self.received_at = None

    def handle(self, payload):
        self.received_at = self.kernel.now
        if self.nxt is not None:
            self.kernel.schedule(self.kernel.now + self.delay, self.nxt, payload)


def test_three_hop_chain_delay_sum():
    # oracle: arrival time is the plain sum of per-hop delays
    d = 4
    k = Kernel()
    ids = [EntityId(EntityKind.SENSOR_NODE, i) for i in range(4)]
    relays = []
    for i in range(3, -1, -1):
        nxt = ids[i + 1] if i + 1 < 4 else None
        relays.insert(0, Relay(k, i, nxt, d))
    for r in relays:
        k.register(r)
    k.schedule(d, ids[1], "pkt")
    k.run_until(1000)
    assert relays[3].received_at == 3 * d


def test_trace_lines_format():
    trace = []
    k = Kernel(trace=trace)
    r = Recorder(k)
    k.register(r)
    k.schedule(3, r.entity_id, "ping")
    k.run_until(3)
    assert trace == ["3\t0\tSensorNode:0\tstr"]


# -- ordering property ------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200),
)
def test_processing_order_matches_sort_oracle(times):
    k, (r,) = make_kernel()
    for i, t in enumerate(times):
        k.schedule(t, r.entity_id, i)
    k.run_until(max(times))
    oracle = sorted(range(len(times)), key=lambda i: (times[i], i))
    assert [p for _, p in r.log] == oracle
    # causality: processed times never decrease
    fired = [t for t, _ in r.log]
    assert all(a <= b for a, b in zip(fired, fired[1:]))


class Token:
    __slots__ = ("ident",)

    def __init__(self, ident):
        self.ident = ident

    @property
    def tag(self):
        return f"t{self.ident}"


class Spawner:
    """Logs (clock, token id, pending events) for every token it handles
    and queues the follow-ups that ``script[token id]`` lists, each as
    (delay, target index)."""

    def __init__(self, kernel, index, script, log, ids):
        self.entity_id = EntityId(EntityKind.SENSOR_NODE, index)
        self.kernel = kernel
        self.script = script
        self.log = log
        self.ids = ids

    def handle(self, token):
        k = self.kernel
        self.log.append((k.now, token.ident, k.pending()))
        steps = self.script[token.ident] if token.ident < len(self.script) else ()
        for delay, target in steps:
            k.schedule(k.now + delay, EntityId(EntityKind.SENSOR_NODE, target),
                       Token(next(self.ids)))


def run_script(kernel_cls, initial, script, cuts, traced=True):
    """Run one scripted event program; returns the handlers' log, the
    trace lines (None untraced) and (fired, clock, pending) after every
    run_until."""
    trace = [] if traced else None
    k = kernel_cls(trace=trace)
    log = []
    ids = itertools.count()
    for i in range(3):
        k.register(Spawner(k, i, script, log, ids))
    for t, target in initial:
        k.schedule(t, EntityId(EntityKind.SENSOR_NODE, target), Token(next(ids)))
    states = []
    for horizon, extra in cuts:
        states.append((k.run_until(horizon), k.now, k.pending()))
        # queued from outside between cuts: at the clock itself, whose
        # second has already run, or before seconds queued earlier
        for delay, target in extra:
            k.schedule(k.now + delay, EntityId(EntityKind.SENSOR_NODE, target),
                       Token(next(ids)))
    states.append((k.run_until(10**6), k.now, k.pending()))
    return log, trace, states


follow_ups = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 2)), max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    initial=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2)), min_size=1, max_size=30),
    script=st.lists(follow_ups, max_size=80),
    cuts=st.lists(
        st.tuples(st.integers(0, 60),
                  st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2)), max_size=3)),
        max_size=5),
)
def test_dispatch_matches_one_heap_reference(initial, script, cuts):
    # traced and untraced alike
    for traced in (True, False):
        got = run_script(Kernel, initial, script, cuts, traced)
        want = run_script(ReferenceHeapKernel, initial, script, cuts, traced)
        assert got == want
        assert got[2][-1][2] == 0


class Flaky:
    """Logs every payload; raises on "boom", and queues "echo" into the
    running second on "spawn"."""

    def __init__(self, kernel):
        self.entity_id = EntityId(EntityKind.SENSOR_NODE, 0)
        self.kernel = kernel
        self.log = []

    def handle(self, payload):
        self.log.append((self.kernel.now, payload, self.kernel.pending()))
        if payload == "spawn":
            self.kernel.schedule(self.kernel.now, self.entity_id, "echo")
        if payload.startswith("boom"):
            raise RuntimeError(payload)


def test_raising_handler_leaves_no_fired_event_queued():
    # traced and untraced alike
    for trace in ([], None):
        k = Kernel(trace=trace)
        f = Flaky(k)
        k.register(f)
        for p in ("spawn", "boom", "c", "d"):
            k.schedule(5, f.entity_id, p)
        k.schedule(6, f.entity_id, "e")
        with pytest.raises(RuntimeError, match="boom"):
            k.run_until(10)
        assert f.log == [(5, "spawn", 4), (5, "boom", 4)]
        assert (k.now, k.pending()) == (5, 4)
        assert k.run_until(10) == 4
        assert f.log[2:] == [(5, "c", 3), (5, "d", 2), (5, "echo", 1), (6, "e", 0)]
        if trace is not None:
            assert [line.split("\t")[1] for line in trace] == ["0", "1", "2", "3", "5", "4"]
        assert k.pending() == 0
        # the raising event was the last of its second: the second is
        # gone, and an event queued at the clock afterwards still fires
        k.schedule(7, f.entity_id, "boom-last")
        with pytest.raises(RuntimeError):
            k.run_until(10)
        assert k.pending() == 0
        k.schedule(7, f.entity_id, "after")
        assert k.run_until(7) == 1
        assert f.log[-1] == (7, "after", 0)
        assert k.processed == 8


# -- rng streams ------------------------------------------------------------


def test_stream_is_reproducible():
    a = stream(42, "node:1")
    b = stream(42, "node:1")
    assert [a() for _ in range(20)] == [b() for _ in range(20)]


def test_streams_are_independent():
    a = stream(42, "node:1")
    b = stream(42, "node:2")
    first_b = b()
    # draining a does not move b
    for _ in range(100):
        a()
    assert stream(42, "node:2")() == first_b


def test_stream_draw_helpers_in_range():
    s = ReferenceStream(7, "x")
    for _ in range(200):
        v = s.randint(1, 16)
        assert 1 <= v <= 16
    for _ in range(200):
        u = s.uniform(-2.0, 3.0)
        assert -2.0 <= u <= 3.0
    vals = [s.gauss(0.0, 1.0) for _ in range(500)]
    assert abs(sum(vals) / len(vals)) < 0.2
