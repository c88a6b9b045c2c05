import pytest

from droughtnet.config import BackboneParams
from droughtnet.kernel import Kernel, stream
from droughtnet.stack import TransportLink


class TxHost:
    """Entity that only participates in transport exchanges."""

    def __init__(self):
        self.got = []
        self.acked = []

    def handle(self, ev):
        ev.fire(ev)

    def receive(self, payload):
        self.got.append(payload)


class SendAt:
    """Entity whose events are payloads to send over ``link`` when they fire."""

    def __init__(self, link):
        self.link = link

    def handle(self, payload):
        self.link.send(payload)


def make_link(loss=0.0, latency=0, max_retries=20, seed=5, label="uplink:1", ack_timeout=2):
    k = Kernel()
    a, b = TxHost(), TxHost()
    link = TransportLink(
        k, a, b, b.receive, stream(seed, label),
        BackboneParams(loss_prob=loss, latency_s=latency, max_retries=max_retries,
                       ack_timeout_s=ack_timeout),
        on_acked=a.acked.append,
    )
    return k, a, b, link


def test_reliable_retransmits_match_rng_replay_oracle():
    seed, label = 5, "uplink:1"
    k, a, b, link = make_link(loss=0.5, latency=1, seed=seed, label=label)
    link.send("record")
    k.run_until(10_000)

    # replay the seeded loss draws: attempts fail while draw < 0.5
    replay = stream(seed, label)
    failures = 0
    while replay() < 0.5:
        failures += 1
    assert link.transmissions == failures + 1
    assert b.got == ["record"]
    assert a.acked == ["record"]


def test_reliable_abandons_after_max_retries():
    k, a, b, link = make_link(loss=1.0, latency=1, max_retries=3)
    link.send("doomed")
    k.run_until(10_000)
    assert b.got == []
    assert link.abandoned == 1
    assert link.transmissions == 4  # first try + 3 retries


def test_reliable_fast_path_is_synchronous():
    k, a, b, link = make_link(loss=0.0, latency=0)
    link.send("now")
    assert b.got == ["now"]
    assert a.acked == ["now"]
    assert k.pending() == 0


def test_reliable_with_latency_single_delivery():
    k, a, b, link = make_link(loss=0.0, latency=3)
    link.send("one")
    k.run_until(1000)
    assert b.got == ["one"]
    assert a.acked == ["one"]
    assert link.transmissions == 1
    assert link.abandoned == 0


@pytest.mark.parametrize("max_retries", [0, 3])
@pytest.mark.parametrize("ack_timeout", [1, 30])
@pytest.mark.parametrize("latency", [0, 1, 7])
@pytest.mark.parametrize("loss", [0.3, 0.7, 1.0])
def test_each_payload_is_delivered_and_acked_at_most_once(loss, latency, ack_timeout,
                                                          max_retries):
    """Only data draws a loss, and a delivered send's ack lands at twice
    the latency, before its timeout at twice the latency plus the ack
    timeout: no timeout retransmits what was delivered, so no payload
    arrives or is acked twice, and each is either delivered or abandoned."""
    k, a, b, link = make_link(loss, latency, max_retries, ack_timeout=ack_timeout,
                              label=f"grid:{loss}:{latency}:{ack_timeout}:{max_retries}")
    sent = [f"record {i}" for i in range(12)]
    for i, payload in enumerate(sent):
        k.schedule(3 * i, SendAt(link), payload)
    k.run_until(10**6)
    assert k.pending() == 0
    assert len(set(b.got)) == len(b.got)
    assert a.acked == b.got
    assert len(b.got) + link.abandoned == len(sent)
    assert set(b.got) <= set(sent)
