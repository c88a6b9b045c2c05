import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtnet.kernel import Kernel, SchedulingInPast, stream

from helpers import ReferenceHeapKernel, ReferenceStream


class Note:
    """A payload that its ``tag`` names in the trace, as every payload of
    the simulator is named."""

    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag


class Recorder:
    """Minimal entity that records (time, payload) in processing order."""

    def __init__(self, kernel, index=0):
        self.index = index
        self.kernel = kernel
        self.log = []

    def __str__(self):
        return f"Recorder:{self.index}"

    def handle(self, payload):
        self.log.append((self.kernel.now, payload))


def make_kernel(n_entities=1):
    k = Kernel()
    return k, [Recorder(k, i) for i in range(n_entities)]


def test_zero_delay_event_fires_first():
    k, (r,) = make_kernel()
    k.schedule(5, r, "later")
    k.schedule(0, r, "wake")
    assert k.run_until(10) == 2
    assert r.log == [(0, "wake"), (5, "later")]


def test_simultaneous_events_fire_in_seq_order():
    k, (r,) = make_kernel()
    k.schedule(1800, r, "a")
    k.schedule(1800, r, "b")
    k.run_until(1800)
    assert r.log == [(1800, "a"), (1800, "b")]


def test_scheduling_in_past_rejected():
    k, (r,) = make_kernel()
    k.schedule(10, r, "x")
    k.run_until(10)
    assert k.now == 10
    with pytest.raises(SchedulingInPast):
        k.schedule(5, r, "too late")


def test_run_until_empty_queue_leaves_clock():
    k, _ = make_kernel()
    assert k.run_until(100) == 0
    assert k.now == 0


def test_run_until_horizon_cut():
    k, (r,) = make_kernel()
    for t in (1, 2, 3):
        k.schedule(t, r, t)
    assert k.run_until(2) == 2
    assert [t for t, _ in r.log] == [1, 2]
    assert k.pending() == 1
    assert k.run_until(3) == 1


class Relay:
    """Forwards each received message to the next entity after a fixed delay."""

    def __init__(self, kernel, nxt, delay):
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
    relays = [Relay(k, None, d)]
    for _ in range(3):
        relays.insert(0, Relay(k, relays[0], d))
    k.schedule(d, relays[1], "pkt")
    k.run_until(1000)
    assert relays[3].received_at == 3 * d


def test_trace_lines_format():
    trace = []
    k = Kernel(trace=trace)
    r = Recorder(k)
    k.schedule(3, r, Note("ping"))
    k.run_until(3)
    assert trace == ["3\t0\tRecorder:0\tping"]


# -- ordering property ------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200),
)
def test_processing_order_matches_sort_oracle(times):
    k, (r,) = make_kernel()
    for i, t in enumerate(times):
        k.schedule(t, r, i)
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
    (delay, index of the target in ``peers``)."""

    def __init__(self, kernel, index, script, log, ids, peers):
        self.index = index
        self.kernel = kernel
        self.script = script
        self.log = log
        self.ids = ids
        self.peers = peers

    def __str__(self):
        return f"Spawner:{self.index}"

    def handle(self, token):
        k = self.kernel
        self.log.append((k.now, token.ident, k.pending()))
        steps = self.script[token.ident] if token.ident < len(self.script) else ()
        for delay, target in steps:
            k.schedule(k.now + delay, self.peers[target], Token(next(self.ids)))


def run_script(kernel_cls, initial, script, cuts, traced=True):
    """Run one scripted event program; returns the handlers' log, the
    trace lines (None untraced) and (fired, clock, pending) after every
    run_until."""
    trace = [] if traced else None
    k = kernel_cls(trace=trace)
    log = []
    ids = itertools.count()
    spawners = []
    spawners += [Spawner(k, i, script, log, ids, spawners) for i in range(3)]
    for t, target in initial:
        k.schedule(t, spawners[target], Token(next(ids)))
    states = []
    for horizon, extra in cuts:
        states.append((k.run_until(horizon), k.now, k.pending()))
        # queued from outside between cuts: at the clock itself, whose
        # second has already run, or before seconds queued earlier
        for delay, target in extra:
            k.schedule(k.now + delay, spawners[target], Token(next(ids)))
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
    """Logs every payload's tag; raises on "boom", and queues "echo" into
    the running second on "spawn"."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.log = []

    def handle(self, payload):
        tag = payload.tag
        self.log.append((self.kernel.now, tag, self.kernel.pending()))
        if tag == "spawn":
            self.kernel.schedule(self.kernel.now, self, Note("echo"))
        if tag.startswith("boom"):
            raise RuntimeError(tag)


def test_raising_handler_leaves_no_fired_event_queued():
    # traced and untraced alike
    for trace in ([], None):
        k = Kernel(trace=trace)
        f = Flaky(k)
        for p in ("spawn", "boom", "c", "d"):
            k.schedule(5, f, Note(p))
        k.schedule(6, f, Note("e"))
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
        k.schedule(7, f, Note("boom-last"))
        with pytest.raises(RuntimeError):
            k.run_until(10)
        assert k.pending() == 0
        k.schedule(7, f, Note("after"))
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
