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


def make_link(loss=0.0, latency=0, max_retries=20, seed=5, label="uplink:1"):
    k = Kernel()
    a, b = TxHost(), TxHost()
    link = TransportLink(
        k, a, b, b.receive, stream(seed, label),
        BackboneParams(loss_prob=loss, latency_s=latency, max_retries=max_retries),
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
