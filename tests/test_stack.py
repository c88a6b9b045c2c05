import pytest

from droughtnet.energy import EnergyParams
from droughtnet.environment import SensorReading
from droughtnet.stack import (
    KIND_DATA,
    Interest,
    LinkPacket,
    RoutingMode,
    UnknownInterest,
    report_signature,
)

from helpers import (
    BINARY_TREE_10,
    CLUSTER_10,
    DIAMOND,
    ReferenceStream,
    build_net,
    rx_cost_mj,
    spy_enqueue,
    tx_cost_mj,
)


def make_reading(t=0, **over):
    vals = dict(
        timestamp=t,
        temperature_c=20.0,
        precipitation_mm=0.5,
        humidity_pct=60.0,
        pressure_hpa=1013.0,
        wind_speed_ms=3.0,
        wind_dir_deg=45.0,
        groundwater_m=10.0,
    )
    vals.update(over)
    return SensorReading(**vals)


def make_interest(origin, iid=1, hop_limit=5):
    return Interest(interest_id=iid, duration_s=10**7, hop_limit=hop_limit, origin=origin)


# -- fragmentation -----------------------------------------------------------


def test_fragmentation_splits_with_remainder():
    # a 64-byte report over 40-byte frames: one full frame plus a remainder
    net = build_net([(0.0, 0.0), (1.0, 0.0)], RoutingMode.TREE, tree_parents={1: 0})
    node = net.nodes[1]
    assert node.data_frames == 2
    node._emit_reading(make_reading(t=0))
    assert node.frames_sent == 2
    assert node.channel.busy_until == 2


def test_small_packet_single_frame():
    # a 32-byte interest and a 16-byte reinforcement fit one 40-byte frame
    net, sink, a, b, x = diamond_net()
    assert sink.interest_frames == sink.reinforce_frames == 1
    sink.launch_interest(make_interest(origin=sink))
    assert sink.frames_sent == 1


# -- energy model ---------------------------------------------------------------


def test_zero_byte_transmission_costs_nothing():
    assert tx_cost_mj(EnergyParams(), 0, 5.0) == 0.0


def test_tx_exceeds_rx_at_any_positive_distance():
    p = EnergyParams()
    for d in (0.1, 1.0, 3.6, 10.0):
        assert tx_cost_mj(p, 64, d) > rx_cost_mj(p, 64)
    assert tx_cost_mj(p, 64, 0.0) == rx_cost_mj(p, 64)


# -- tree reporting ---------------------------------------------------------------


def test_binary_tree_day_delivers_432_reports():
    # 9 non-sink nodes x 48 half-hour cycles, lossless
    net = build_net(
        CLUSTER_10,
        RoutingMode.TREE,
        tree_parents=BINARY_TREE_10,
        with_samplers=True,
        sampling_horizon=86_400,
    )
    net.run(86_400 + 3600)
    assert len(net.received) == 9 * 48 == 432
    assert net.counters.originated == 432
    assert net.counters.delivered == 432
    c = net.counters
    assert c.rf_losses + c.queue_losses + c.sleep_losses == 0
    # per-period receipts equal the non-sink node count, exactly
    by_period = {}
    for _, msg in net.received:
        by_period.setdefault(msg.reading.timestamp, 0)
        by_period[msg.reading.timestamp] += 1
    assert set(by_period.values()) == {9}


def test_depth_three_leaf_delay_sum():
    # staggered wakes keep the channel contention-free, so each hop takes
    # exactly (frames - 1) + delay seconds
    delay = 4
    net = build_net(
        CLUSTER_10,
        RoutingMode.TREE,
        tree_parents=BINARY_TREE_10,
        with_samplers=True,
        sampling_horizon=3600,
        staggers=[i * 60 for i in range(10)],
        delay=delay,
    )
    net.run(7200)
    depth = {}
    for child in BINARY_TREE_10:
        d, node = 0, child
        while node != 0:
            node = BINARY_TREE_10[node]
            d += 1
        depth[child] = d
    assert max(depth.values()) == 3
    per_hop = (2 - 1) + delay
    for arrived_at, msg in net.received:
        assert arrived_at - msg.reading.timestamp == depth[msg.origin_index] * per_hop


def test_sink_emits_no_self_report():
    net = build_net(
        CLUSTER_10,
        RoutingMode.TREE,
        tree_parents=BINARY_TREE_10,
        with_samplers=True,
        sampling_horizon=1800,
    )
    net.run(5000)
    assert net.sink.reports_originated == 0
    assert net.counters.originated == 9


def test_energy_ledgers_monotone_and_consistent():
    net = build_net(
        CLUSTER_10,
        RoutingMode.TREE,
        tree_parents=BINARY_TREE_10,
        with_samplers=True,
        sampling_horizon=7200,
    )
    net.run(10_000)
    for n in net.nodes:
        for v in (n.tx_mJ, n.rx_mJ, n.idle_mJ, n.sensing_mJ):
            assert v >= 0.0
    assert net.sink.rx_mJ > 0
    assert net.nodes[9].tx_mJ > 0


# -- MAC contention ----------------------------------------------------------------


def test_two_node_contention_matches_backoff_replay():
    # nodes 1 and 2 wake at the same tick; the replayed MAC algorithm
    # predicts both delivery times exactly
    net = build_net(
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
        RoutingMode.TREE,
        tree_parents={1: 0, 2: 0},
        with_samplers=True,
        sampling_horizon=1800,
        delay=1,
        seed=1,
    )
    net.run(4000)
    assert len(net.received) == 2

    # replay: node 1 wakes first (registration order), seizes [0, 2);
    # node 2 backs off from t=0 until it finds the channel idle
    rng = ReferenceStream(1, "node:2:mac")
    t, busy_until = 0, 2
    while True:
        t += rng.randint(1, 16)
        if t >= busy_until:
            break
    predicted = {1: 0 + 1 + 1, 2: t + 1 + 1}
    actual = {msg.origin_index: at for at, msg in net.received}
    assert actual == predicted

    # one 64-byte packet sent per node, both received by the sink
    p = EnergyParams()
    sink, n1, n2 = net.nodes
    assert n1.tx_mJ == pytest.approx(1 * tx_cost_mj(p, 64, 1.0), rel=1e-12)
    assert n2.tx_mJ == pytest.approx(1 * tx_cost_mj(p, 64, 2.0), rel=1e-12)
    assert sink.rx_mJ == pytest.approx(2 * rx_cost_mj(p, 64), rel=1e-12)


def test_mac_queue_overflow_drops_whole_packet():
    net = build_net(
        [(0.0, 0.0), (1.0, 0.0)],
        RoutingMode.TREE,
        tree_parents={1: 0},
        queue_cap=3,
    )
    node = net.nodes[1]
    node.channel.busy_until = 10**6  # hold the channel shut
    msg1 = make_reading(t=0)
    msg2 = make_reading(t=1800)
    for r in (msg1, msg2):
        node._emit_reading(r)
    # first packet (2 frames) queued; second exceeds the 3-frame cap
    assert len(node.mac_queue) == 1
    assert node.frames_dropped == 2
    assert net.counters.queue_losses == 1


# -- duplicate suppression -----------------------------------------------------------


def test_second_copy_of_signature_dropped():
    # combined mode, where tree reports share the duplicate cache with
    # diffusion copies; pure tree mode keeps no cache
    net = build_net(CLUSTER_10, RoutingMode.COMBINED, tree_parents=BINARY_TREE_10)
    relay = net.nodes[1]
    src = net.nodes[3]
    msg = relay._make_report(make_reading(t=0), interest_id=0)
    relay.receive_data(msg, src)
    before = relay.reports_forwarded
    relay.receive_data(msg, src)
    assert relay.reports_forwarded == before
    assert net.counters.duplicate_relay_drops == 1


def test_distinct_timestamps_both_forwarded():
    net = build_net(CLUSTER_10, RoutingMode.TREE, tree_parents=BINARY_TREE_10)
    relay = net.nodes[1]
    src = net.nodes[3]
    for t in (0, 1800):
        relay.receive_data(
            relay._make_report(make_reading(t=t), interest_id=0), src
        )
    assert relay.reports_forwarded == 2


def test_cache_fifo_eviction_matches_list_oracle():
    net = build_net(DIAMOND, RoutingMode.DIFFUSION, link_range=1.5, data_cache_cap=3)
    node = net.nodes[1]
    model = []
    for sig in (11, 22, 33, 44):
        if sig not in model:
            if len(model) == 3:
                model.pop(0)
            model.append(sig)
        node._cache_signature(sig)
    assert list(node.data_cache) == model == [22, 33, 44]
    # evicted signature is treated as new again
    assert node._cache_signature(11) is True


def test_signature_is_stable_arithmetic():
    assert report_signature(3, 1800, 1) == (1 << 64) | (3 << 36) | 1800
    assert report_signature(3, 1800, 1) != report_signature(3, 1800, 2)
    assert report_signature(3, 1800) != report_signature(4, 1800)


def test_signature_keeps_every_interest_id():
    # region ids span [-128, 127], so a config may hold 256 regions and
    # the last one's diffusion interest is id 256
    sigs = {report_signature(3, 1800, iid) for iid in range(257)}
    assert len(sigs) == 257
    assert report_signature(3, 1800, 256) != report_signature(3, 1800, 0)
    assert report_signature(3, 1800, 1 << 20) != report_signature(3, 1800, 0)


# -- directed diffusion ----------------------------------------------------------------


def diamond_net(**kw):
    net = build_net(DIAMOND, RoutingMode.DIFFUSION, link_range=1.5, **kw)
    sink, a, b, x = net.nodes
    return net, sink, a, b, x


def queued_by(node, reading):
    """The packets node queues, as spy_enqueue logs them, when it sends
    its matching data for reading."""
    log = []
    with spy_enqueue(log):
        node.send_matching_data(reading)
    return log


def test_interest_flood_sets_up_gradients():
    net, sink, a, b, x = diamond_net()
    interest = make_interest(origin=sink, hop_limit=5)
    sink.launch_interest(interest)
    net.run(500)
    # the source holds one gradient per interest neighbour, each pointing
    # at the node the interest arrived from
    assert {g.toward for g in x.gradients[1]} == {a, b}
    assert sink in {g.toward for g in a.gradients[1]}
    assert sink in {g.toward for g in b.gradients[1]}
    assert len(a.interest_cache) == len(x.interest_cache) == 1


def test_interest_cache_idempotent_same_neighbor():
    net, sink, a, b, x = diamond_net()
    interest = make_interest(origin=sink)
    for _ in range(5):
        a.receive_interest(interest, 5, sink)
    assert len(a.interest_cache) == 1
    assert len(a.gradients[1]) == 1
    assert a.gradients[1][0].toward == sink


def test_exhausted_hop_limit_drops_without_state():
    net, sink, a, b, x = diamond_net()
    a.receive_interest(make_interest(origin=sink), 0, sink)
    assert not a.interest_cache
    assert not a.gradients


def test_exploratory_then_reinforced_path():
    net, sink, a, b, x = diamond_net()
    sink.launch_interest(make_interest(origin=sink))
    net.run(500)

    # exploratory: one copy along each gradient
    queued = queued_by(x, make_reading(t=1000))
    assert sorted(dst.node_index for *_, dst in queued) == [a.node_index, b.node_index]
    net.run(2000)
    assert net.counters.delivered == 1  # duplicate copy suppressed at the sink
    assert net.counters.duplicate_relay_drops >= 1

    reinforced_at_x = [g for g in x.gradients[1] if g.reinforced]
    assert len(reinforced_at_x) == 1
    winner = reinforced_at_x[0].toward
    assert winner in (a, b)
    winner_node = a if winner == a else b
    assert any(g.reinforced and g.toward == sink for g in winner_node.gradients[1])

    # post-reinforcement: single copy on the winning path, loser starves
    loser = b if winner == a else a
    forwarded_before = loser.reports_forwarded
    assert [dst for *_, dst in queued_by(x, make_reading(t=2800))] == [winner]
    net.run(4000)
    assert net.counters.delivered == 2
    assert loser.reports_forwarded == forwarded_before


def test_line_topology_reinforcement_is_routing_noop():
    net = build_net([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], RoutingMode.DIFFUSION, link_range=1.5)
    sink, m, x = net.nodes
    sink.launch_interest(make_interest(origin=sink))
    net.run(200)
    assert [dst for *_, dst in queued_by(x, make_reading(t=300))] == [m]
    net.run(600)
    assert net.counters.delivered == 1
    assert [g.reinforced for g in x.gradients[1]] == [True]
    assert any(g.reinforced for g in m.gradients[1])
    # still exactly one copy per report afterwards
    assert [dst for *_, dst in queued_by(x, make_reading(t=2100))] == [m]


def test_no_matching_interest_no_emission():
    net, sink, a, b, x = diamond_net()
    assert queued_by(x, make_reading()) == []
    assert net.counters.delivered == 0


def test_reinforce_unknown_interest_raises():
    net, sink, a, b, x = diamond_net()
    with pytest.raises(UnknownInterest):
        a.receive_reinforcement(99, sink, ())


def test_gradient_expiry_is_lazy():
    net, sink, a, b, x = diamond_net()
    interest = Interest(1, 100, 5, sink)
    x.receive_interest(interest, 3, a)
    assert x._live_gradients(1, now=50)
    assert x._live_gradients(1, now=150) == []


# -- flooding -----------------------------------------------------------------------


def test_flooding_delivers_once_and_rebroadcasts_once_per_node():
    net = build_net(CLUSTER_10, RoutingMode.FLOODING, link_range=10.0)
    sink = net.sink
    sink.launch_interest(make_interest(origin=sink, hop_limit=8))
    net.run(500)
    log = []
    with spy_enqueue(log):
        net.nodes[5].send_matching_data(make_reading(t=600))
        sig = report_signature(5, 600, 1)
        assert log == [(5, KIND_DATA, sig, None)]  # one broadcast
        net.run(3000)
    assert net.counters.delivered == 1
    relays = [entry for entry in log if entry[1] == KIND_DATA and entry[2] == sig]
    nodes_that_sent = [e[0] for e in relays]
    assert len(set(nodes_that_sent)) == len(nodes_that_sent), "a node re-transmitted a signature"
    assert len(relays) <= 10


def test_sleeping_node_drops_frames():
    net = build_net(CLUSTER_10, RoutingMode.TREE, tree_parents=BINARY_TREE_10)
    node = net.nodes[4]
    node._sleep()
    msg = node._make_report(make_reading(t=0), interest_id=0)
    rx_before = node.rx_mJ
    node.receive_link(LinkPacket(KIND_DATA, msg, node, 64, 2), net.nodes[9])
    assert net.counters.sleep_losses == 1
    assert node.rx_mJ == rx_before


# -- flooding vs diffusion energy (small topology) -------------------------------------


def test_diffusion_cheaper_than_flooding_small_topology():
    def run_mode(mode):
        net = build_net(
            CLUSTER_10,
            mode,
            link_range=10.0,
            with_samplers=True,
            sampling_horizon=6 * 1800,
            seed=7,
        )
        sink = net.sink
        sink.launch_interest(
            make_interest(origin=sink, hop_limit=8)
        )
        net.run(6 * 1800 + 3600)
        energy = sum(n.tx_mJ + n.rx_mJ for n in net.nodes)
        return energy, net.counters.delivered

    e_diff, d_diff = run_mode(RoutingMode.DIFFUSION)
    e_flood, d_flood = run_mode(RoutingMode.FLOODING)
    assert d_diff == d_flood > 0
    assert e_diff <= e_flood
