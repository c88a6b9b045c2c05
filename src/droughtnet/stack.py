"""Per-node layered protocol stack.

Application (periodic sampling), reliable acknowledged transport,
network (binary-tree convergecast, directed diffusion with
interests/gradients/reinforcement along the recorded reverse path, or
plain flooding), MAC (queue, idle-channel check with random backoff) and
a shared per-region channel with per-hop delay.  A node holds the counts
and energy of what it sees; ``geometry.links`` gives it its links.

MAC model: a packet of n bytes is ceil(n / max_frame_bytes) frames,
which transmit as a back-to-back burst after a single idle check,
holding the channel one second per frame; the packet is delivered whole
when the last frame lands.  Link loss is drawn once per packet per hop,
so a report either arrives or is counted lost exactly once.

Duplicate suppression: every report carries a signature, and a node
drops a report whose signature it has seen recently (a FIFO cache of
``data_cache_cap`` signatures).  Directed diffusion's exploratory
multipath and flooding's rebroadcasts deliver copies of one report
along several paths, so diffusion, flooding and combined mode keep the
cache.  Pure tree mode keeps none: a tree report crosses each hop once,
by unicast to the node's one parent, with no link-layer retransmission,
so no node can receive its signature twice.

Events: a node's timers and a sink's ``Interest`` are scheduled as
themselves, a link delivery in a ``kernel.Message`` naming the sending
node, and a transport event to the entity at its end, whose ``handle``
fires it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .environment import NodeSampler, SensorReading
from .kernel import Kernel, Message, stream

KIND_DATA = 0
KIND_INTEREST = 1
KIND_REINFORCE = 2

INTEREST_BYTES = 32
REINFORCE_BYTES = 16


class StackError(Exception):
    pass


class OrphanNode(StackError):
    """A non-sink tree node with no parent cannot report."""


class UnknownInterest(StackError):
    pass


class RoutingMode(Enum):
    TREE = "tree"
    DIFFUSION = "diffusion"
    FLOODING = "flooding"
    COMBINED = "combined"


@dataclass(frozen=True, slots=True)
class LinkParams:
    delay_s: int = 1
    loss_prob: float = 0.0


@dataclass(frozen=True, slots=True)
class MacParams:
    max_frame_bytes: int = 40
    queue_cap_frames: int = 128
    backoff_slots: int = 16


@dataclass(frozen=True, slots=True)
class Interest:
    """Directed-diffusion task: every live interest draws every reading."""

    interest_id: int
    duration_s: int
    hop_limit: int
    origin: SensorNode
    tag = "launch_interest"  # scheduled to its sink, it launches itself


@dataclass(slots=True)
class GradientEntry:
    """Direction state toward the neighbour an interest arrived from."""

    toward: SensorNode
    expires_at: int
    reinforced: bool = False


class DataMessage:
    """One report flowing toward a sink; signature deduplicates copies."""

    __slots__ = (
        "signature",
        "origin_index",
        "reading",
        "interest_id",
        "battery_mj",
        "frames_dropped",
        "route",
    )

    def __init__(self, signature, origin_index, reading, interest_id=0,
                 battery_mj=0.0, frames_dropped=0, route=()):
        self.signature = signature
        self.origin_index = origin_index
        self.reading = reading
        self.interest_id = interest_id
        self.battery_mj = battery_mj
        self.frames_dropped = frames_dropped
        self.route = route

    def fork(self):
        return DataMessage(
            self.signature, self.origin_index, self.reading, self.interest_id,
            self.battery_mj, self.frames_dropped, self.route,
        )


def report_signature(origin_index: int, timestamp: int, interest_id: int = 0) -> int:
    """Arithmetic signature of (source, reading timestamp, interest id);
    stable across processes, unlike hash() of strings.  The timestamp
    fills 36 bits, the origin index the next 28 and the interest id every
    bit above them, so no two interests share a signature."""
    return (interest_id << 64) | (origin_index << 36) | timestamp


class LinkPacket:
    """One network packet on the wire for one hop."""

    __slots__ = ("kind", "body", "dst", "nbytes", "nframes", "ttl")

    def __init__(self, kind, body, dst, nbytes, nframes, ttl=0):
        self.kind = kind
        self.body = body
        self.dst = dst
        self.nbytes = nbytes
        self.nframes = nframes
        self.ttl = ttl

    @property
    def tag(self):
        return ("data", "interest", "reinforce")[self.kind]


class _Timer:
    """An event that its ``tag`` names in the trace: a node's own timer,
    or the base of a transport event."""

    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag


WAKE = _Timer("wake")
MAC_RETRY = _Timer("mac_retry")


class BroadcastFan:
    """In-flight broadcast: fans a packet to its receivers on arrival."""

    __slots__ = ("pkt", "receivers")
    tag = "broadcast"

    def __init__(self, pkt, receivers):
        self.pkt = pkt
        self.receivers = receivers


class ReinforceMsg:
    """Reinforcement of an interest back along a delivery path, which
    makes each hop's gradient toward its sender the only one it uses.

    path is the remaining reverse route (node indices, origin first);
    an empty tuple means this receiver is the origin.
    """

    __slots__ = ("interest_id", "path")

    def __init__(self, interest_id, path):
        self.interest_id = interest_id
        self.path = path


class Channel:
    """Shared medium for one region; busy while any burst is on the air."""

    __slots__ = ("busy_until",)

    def __init__(self):
        self.busy_until = 0


MODE_SLEEPING = 0
MODE_ACTIVE = 1


class SensorNode:
    """One mote: sensing, protocol stack, radio, and the counts and energy
    of what it sees, set up from the run's ``ScenarioConfig``."""

    __slots__ = (
        "kernel", "node_index", "region_id", "is_sink", "channel",
        "tx_mJ", "rx_mJ", "idle_mJ", "sensing_mJ", "battery_mj",
        "_delay_s", "_loss_prob", "_queue_cap",
        "payload_bytes", "data_frames", "interest_frames",
        "reinforce_frames", "link_range_km",
        "mode", "active_since",
        "neighbors", "neighbor_dist",
        "tree_parent", "_tree_route", "descendants_expected",
        "_cycle_forwarded", "_own_sent",
        "sampler", "period_s", "stagger_s", "sampling_horizon_s",
        "mac_queue", "_queued_frames", "_mac_random", "_backoff_slots", "_link_random",
        "interest_cache", "gradients", "_sink_reinforced",
        "data_cache", "_cache_set", "data_cache_cap",
        "collector",
        "frames_sent", "frames_dropped", "reports_originated", "reports_forwarded",
        "reports_delivered", "rf_losses", "queue_losses", "sleep_losses",
        "duplicate_relay_drops",
        "_tree_on", "_diff_on", "_flood_on", "_dedup", "_drain_sleep",
        "_e_bit_mj", "_amp_bit_mj", "_sense_mj", "_idle_mj_s",
    )

    def __init__(
        self,
        kernel: Kernel,
        cfg,
        node_index: int,
        region_id: int,
        is_sink: bool,
        channel: Channel,
        sampler: NodeSampler | None = None,
        stagger_s: int = 0,
    ):
        self.kernel = kernel
        self.node_index = node_index
        self.region_id = region_id
        self.is_sink = is_sink
        self.channel = channel
        self.tx_mJ = 0.0
        self.rx_mJ = 0.0
        self.idle_mJ = 0.0
        self.sensing_mJ = 0.0
        self.battery_mj = cfg.energy.battery_mj
        self._delay_s = cfg.link.delay_s
        self._loss_prob = cfg.link.loss_prob
        self._queue_cap = cfg.mac.queue_cap_frames
        self.payload_bytes = cfg.payload_bytes
        self.data_frames = -(-cfg.payload_bytes // cfg.mac.max_frame_bytes)
        self.interest_frames = -(-INTEREST_BYTES // cfg.mac.max_frame_bytes)
        self.reinforce_frames = -(-REINFORCE_BYTES // cfg.mac.max_frame_bytes)
        self.link_range_km = cfg.link_range_km()
        # sinks stay active: they are co-located with the powered base station
        self.mode = MODE_ACTIVE
        self.active_since = 0
        self.neighbors = []
        self.neighbor_dist = {}
        self.tree_parent = None
        self._tree_route = (-1,)  # (parent index,): a tree report's route
        self.descendants_expected = 0
        self._cycle_forwarded = 0
        self._own_sent = False
        self.sampler = sampler
        self.period_s = cfg.reporting_period_s
        self.stagger_s = stagger_s
        self.sampling_horizon_s = cfg.horizon_s
        self.mac_queue = deque()
        self._queued_frames = 0
        label = f"node:{node_index}"
        self._mac_random = stream(cfg.seed, label + ":mac")
        self._backoff_slots = cfg.mac.backoff_slots
        self._link_random = stream(cfg.seed, label + ":link")
        self.interest_cache = {}
        self.gradients = {}
        self._sink_reinforced = set()
        self.data_cache = deque()
        self._cache_set = set()
        self.data_cache_cap = cfg.data_cache_cap
        self.collector = None
        self.frames_sent = 0
        self.frames_dropped = 0
        self.reports_originated = 0
        self.reports_forwarded = 0
        self.reports_delivered = 0
        self.rf_losses = 0
        self.queue_losses = 0
        self.sleep_losses = 0
        self.duplicate_relay_drops = 0
        self._tree_on = cfg.routing_mode in (RoutingMode.TREE, RoutingMode.COMBINED)
        self._diff_on = cfg.routing_mode in (RoutingMode.DIFFUSION, RoutingMode.COMBINED)
        self._flood_on = cfg.routing_mode is RoutingMode.FLOODING
        # pure tree mode cannot make duplicates (see the module docstring);
        # combined mode keeps the cache for tree reports too, because they
        # share its FIFO with diffusion signatures, so dropping them would
        # change which diffusion copies are caught
        self._dedup = cfg.routing_mode is not RoutingMode.TREE
        self._drain_sleep = cfg.routing_mode is RoutingMode.TREE and not is_sink
        self._e_bit_mj = cfg.energy.elec_mj_per_bit
        self._amp_bit_mj = cfg.energy.amp_mj_per_bit_km2
        self._sense_mj = cfg.energy.sense_mj
        self._idle_mj_s = cfg.energy.idle_mj_per_s

    def __str__(self) -> str:
        return f"SensorNode:{self.node_index}"

    # -- wiring -------------------------------------------------------------

    def set_tree_parent(self, parent: "SensorNode", descendants: int) -> None:
        self.tree_parent = parent
        self._tree_route = (parent.node_index,)
        self.descendants_expected = descendants

    def start(self) -> None:
        """Schedule the first sampling wake; sinks idle until traffic."""
        if not self.is_sink and self.sampler is not None:
            first = self.stagger_s
            if first < self.sampling_horizon_s:
                if self._drain_sleep:
                    self._sleep()
                self.kernel.schedule(first, self, WAKE)

    # -- event dispatch -------------------------------------------------------

    def handle(self, payload) -> None:
        # most frequent payload first: busy-channel backoff polls
        if payload is MAC_RETRY:
            if self.mode == MODE_SLEEPING:
                return
            self._mac_attempt()
            if self._drain_sleep and not self.mac_queue:
                self._maybe_sleep()
            return
        if type(payload) is Message:  # its body is a LinkPacket or a BroadcastFan
            body = payload.body
            if type(body) is BroadcastFan:
                # in-flight radio waves: delivered regardless of the
                # sender's current power state
                for nb in body.receivers:
                    nb.receive_link(body.pkt, payload.src)
                return
            self.receive_link(body, payload.src)
            return
        if payload is WAKE:
            self._on_wake()
            return
        self.launch_interest(payload)  # the one other payload a node gets: its Interest

    # -- power --------------------------------------------------------------

    def _sleep(self) -> None:
        if self.mode == MODE_ACTIVE:
            self.idle_mJ += self._idle_mj_s * (self.kernel.now - self.active_since)
        self.mode = MODE_SLEEPING

    def _wake_up(self) -> None:
        if self.mode == MODE_SLEEPING:
            self.mode = MODE_ACTIVE
            self.active_since = self.kernel.now

    def finalize(self, end_time: int) -> None:
        """Charge the trailing idle span at end of run."""
        if self.mode == MODE_ACTIVE:
            self.idle_mJ += self._idle_mj_s * (end_time - self.active_since)
            self.active_since = end_time

    def _maybe_sleep(self) -> None:
        # drain-aware, and called only on drain-sleep nodes whose MAC
        # queue is empty: sleep once the own report is sent and every
        # descendant report forwarded
        if (
            self.mode == MODE_ACTIVE
            and self._own_sent
            and self._cycle_forwarded >= self.descendants_expected
        ):
            self._sleep()

    # -- application --------------------------------------------------------

    def _on_wake(self) -> None:
        now = self.kernel.now
        self._wake_up()
        self._cycle_forwarded = 0
        self._own_sent = False
        if now < self.sampling_horizon_s and self.sampler is not None:
            reading = self.sampler.sample(now)
            self.sensing_mJ += self._sense_mj
            self.reports_originated += 1
            self._emit_reading(reading)
            nxt = now + self.period_s
            if nxt < self.sampling_horizon_s:
                self.kernel.schedule(nxt, self, WAKE)
        self._own_sent = True
        if self._drain_sleep and not self.mac_queue:
            self._maybe_sleep()

    def _emit_reading(self, reading: SensorReading) -> None:
        if self._tree_on:
            msg = self._make_report(reading, 0, self._tree_route)
            if self._dedup:
                self._cache_signature(msg.signature)
            self._enqueue(LinkPacket(KIND_DATA, msg, self.tree_parent, self.payload_bytes, self.data_frames))
        if self._diff_on or self._flood_on:
            self.send_matching_data(reading)

    def _make_report(self, reading: SensorReading, interest_id: int, route=()) -> DataMessage:
        index = self.node_index
        return DataMessage(
            report_signature(index, reading.timestamp, interest_id),
            index, reading, interest_id,
            self.battery_mj - (self.tx_mJ + self.rx_mJ + self.idle_mJ + self.sensing_mJ),
            self.frames_dropped, route,
        )

    def send_matching_data(self, reading: SensorReading) -> None:
        """Emit a report for every live matching interest, exploratory along
        every gradient or only the reinforced one."""
        now = self.kernel.now
        interest: Interest
        for iid, (interest, expires_at) in list(self.interest_cache.items()):
            if now >= expires_at:
                del self.interest_cache[iid]
                self.gradients.pop(iid, None)
                continue
            msg = self._make_report(reading, interest_id=iid)
            if self._flood_on:
                self._cache_signature(msg.signature)
                self._enqueue(LinkPacket(KIND_DATA, msg, None, self.payload_bytes,
                                         self.data_frames, ttl=interest.hop_limit))
                continue
            grads = self._live_gradients(iid, now)
            if not grads:
                continue
            targets = [g for g in grads if g.reinforced] or grads
            self._cache_signature(msg.signature)
            for g in targets:
                out = msg if len(targets) == 1 else msg.fork()
                self._enqueue(LinkPacket(KIND_DATA, out, g.toward, self.payload_bytes, self.data_frames))

    # -- link reception -------------------------------------------------------

    def receive_link(self, pkt: LinkPacket, src: SensorNode) -> None:
        if self.mode == MODE_SLEEPING:
            if pkt.kind == KIND_DATA:
                self.sleep_losses += 1
            return
        self.rx_mJ += pkt.nbytes * 8 * self._e_bit_mj
        kind = pkt.kind
        if kind == KIND_DATA:
            self.receive_data(pkt.body, src, pkt.ttl)
        elif kind == KIND_INTEREST:
            self.receive_interest(pkt.body, pkt.ttl, src)
        else:
            r = pkt.body
            self.receive_reinforcement(r.interest_id, src, r.path)
        if self._drain_sleep and not self.mac_queue:
            self._maybe_sleep()

    # -- interests / gradients ------------------------------------------------

    def launch_interest(self, interest: Interest) -> None:
        """Sink-side: cache own interest and flood it to the neighbourhood."""
        now = self.kernel.now
        self.interest_cache[interest.interest_id] = (interest, now + interest.duration_s)
        self._enqueue(LinkPacket(KIND_INTEREST, interest, None, INTEREST_BYTES,
                                 self.interest_frames, ttl=interest.hop_limit))

    def receive_interest(self, interest: Interest, hops_left: int, src: SensorNode) -> None:
        """Hop-by-hop diffusion: cache unseen interests, set up the gradient
        toward the sender, rebroadcast with one hop fewer.  A repeat only
        installs or refreshes the gradient; an exhausted hop count drops."""
        if hops_left <= 0:
            return
        now = self.kernel.now
        iid = interest.interest_id
        expires_at = now + interest.duration_s
        cached = self.interest_cache.get(iid)
        if cached is not None and interest.origin is self:
            return  # own interest echoed back to the sink
        self._install_gradient(iid, src, expires_at)
        if cached is None:
            self.interest_cache[iid] = (interest, expires_at)
            self._enqueue(LinkPacket(KIND_INTEREST, interest, None, INTEREST_BYTES,
                                     self.interest_frames, ttl=hops_left - 1))

    def _install_gradient(self, iid: int, toward: SensorNode, expires_at: int) -> None:
        entries = self.gradients.setdefault(iid, [])
        for g in entries:
            if g.toward is toward:
                g.expires_at = expires_at
                return
        entries.append(GradientEntry(toward, expires_at))

    def _live_gradients(self, iid: int, now: int) -> list[GradientEntry]:
        entries = self.gradients.get(iid)
        if not entries:
            return []
        live = [g for g in entries if g.expires_at > now]
        if len(live) != len(entries):
            self.gradients[iid] = live
        return live

    def receive_reinforcement(self, iid: int, src: SensorNode, path: tuple) -> None:
        """Mark the gradient toward the reinforcing neighbour (keeping at
        most one reinforced gradient per interest) and pass the
        reinforcement on along the reverse path toward the data origin:
        its next hop, ``path[-1]``, is the neighbour the data came from."""
        entries = self.gradients.get(iid)
        if entries is None:
            raise UnknownInterest(f"reinforcement for unknown interest {iid}")
        for g in entries:
            g.reinforced = g.toward is src
        if path:  # empty path: this node is the origin, chain complete
            nxt = next(nb for nb in self.neighbors if nb.node_index == path[-1])
            self._send_reinforce(iid, path[:-1], nxt)

    def _send_reinforce(self, iid: int, path: tuple, to: SensorNode) -> None:
        self._enqueue(LinkPacket(KIND_REINFORCE, ReinforceMsg(iid, path), to,
                                 REINFORCE_BYTES, self.reinforce_frames))

    # -- data plane -----------------------------------------------------------

    def _cache_signature(self, sig: int) -> bool:
        """FIFO duplicate-suppression cache; True if sig was new."""
        if sig in self._cache_set:
            return False
        if len(self.data_cache) >= self.data_cache_cap:
            self._cache_set.discard(self.data_cache.popleft())
        self.data_cache.append(sig)
        self._cache_set.add(sig)
        return True

    def receive_data(self, msg: DataMessage, src: SensorNode, ttl: int = 0) -> None:
        if self._dedup and not self._cache_signature(msg.signature):
            self.duplicate_relay_drops += 1
            return
        if self.is_sink:
            self.reports_delivered += 1
            if self._diff_on and msg.interest_id:
                # new data: reinforce its reverse path once per source, so
                # exploratory fan-out collapses to single paths
                iid = msg.interest_id
                key = (iid, msg.origin_index)
                if key not in self._sink_reinforced and iid in self.interest_cache:
                    self._sink_reinforced.add(key)
                    full_path = (msg.origin_index, *msg.route)
                    self._send_reinforce(iid, full_path[:-1], src)
            if self.collector is not None:
                self.collector(msg)
            return
        if self._flood_on:
            if ttl > 1:
                self.reports_forwarded += 1
                self._enqueue(LinkPacket(KIND_DATA, msg, None, self.payload_bytes,
                                         self.data_frames, ttl=ttl - 1))
            return
        if self._tree_on and not msg.interest_id:
            self.reports_forwarded += 1
            self._cycle_forwarded += 1
            self._enqueue(LinkPacket(KIND_DATA, msg, self.tree_parent, self.payload_bytes, self.data_frames))
            return
        # diffusion relay: forward along live gradients, never back where
        # the data came from
        now = self.kernel.now
        iid = msg.interest_id
        grads = [g for g in self._live_gradients(iid, now) if g.toward is not src]
        if not grads:
            return
        targets = [g for g in grads if g.reinforced] or grads
        self.reports_forwarded += 1
        for g in targets:
            out = msg if len(targets) == 1 else msg.fork()
            out.route = msg.route + (self.node_index,)
            self._enqueue(LinkPacket(KIND_DATA, out, g.toward, self.payload_bytes, self.data_frames))

    # -- MAC ------------------------------------------------------------------

    def _enqueue(self, pkt: LinkPacket) -> None:
        if self._queued_frames + pkt.nframes > self._queue_cap:
            self.frames_dropped += pkt.nframes
            if pkt.kind == KIND_DATA:
                self.queue_losses += 1
            return
        self.mac_queue.append(pkt)
        self._queued_frames += pkt.nframes
        if len(self.mac_queue) == 1:
            self._mac_attempt()

    def _mac_attempt(self) -> None:
        queue = self.mac_queue
        if not queue:
            return
        now = self.kernel.now
        channel = self.channel
        if channel.busy_until > now:
            # a uniform integer in [1, backoff_slots] from the bound random()
            backoff = 1 + int(self._mac_random() * self._backoff_slots)
            self.kernel.schedule(now + backoff, self, MAC_RETRY)
            return
        pkt = queue.popleft()
        self._queued_frames -= pkt.nframes
        channel.busy_until = now + pkt.nframes
        self.frames_sent += pkt.nframes
        bits = pkt.nbytes * 8
        arrive = now + (pkt.nframes - 1) + self._delay_s
        if pkt.dst is not None:
            d = self.neighbor_dist[pkt.dst]
            self.tx_mJ += bits * (self._e_bit_mj + self._amp_bit_mj * d * d)
            if self._loss_prob and self._link_random() < self._loss_prob:
                if pkt.kind == KIND_DATA:
                    self.rf_losses += 1
            else:
                self.kernel.schedule(arrive, pkt.dst, Message(self, pkt))
        else:
            d = self.link_range_km
            self.tx_mJ += bits * (self._e_bit_mj + self._amp_bit_mj * d * d)
            lp = self._loss_prob
            if lp:
                rnd = self._link_random
                receivers = tuple(nb for nb in self.neighbors if rnd() >= lp)
            else:
                receivers = self.neighbors
            if receivers:
                self.kernel.schedule(arrive, self, Message(self, BroadcastFan(pkt, receivers)))
        if queue:
            self.kernel.schedule(channel.busy_until, self, MAC_RETRY)

    # -- reporting -------------------------------------------------------------

    def summary_row(self) -> dict:
        return {
            "node_id": self.node_index,
            "region": self.region_id,
            "tx_mJ": self.tx_mJ,
            "rx_mJ": self.rx_mJ,
            "idle_mJ": self.idle_mJ,
            "sensing_mJ": self.sensing_mJ,
            "frames_sent": self.frames_sent,
            "frames_dropped": self.frames_dropped,
            "reports_originated": self.reports_originated,
            "reports_forwarded": self.reports_forwarded,
        }


# -- transport ----------------------------------------------------------------


class _TxEvent(_Timer):
    """One transport event of a link, scheduled to the entity at the end
    it reaches: ``fire`` is the link method that entity's ``handle``
    calls with the event."""

    __slots__ = ("fire", "seqno", "payload")

    def __init__(self, tag, fire, seqno, payload=None):
        super().__init__(tag)
        self.fire = fire
        self.seqno = seqno
        self.payload = payload


class TransportLink:
    """Point-to-point transport between two entities, each of which gets
    the events for its end in its ``handle``.

    Retransmits on timeout until acknowledged, up to the backbone's
    max_retries, then records the payload abandoned.  With zero loss and
    zero latency a send short-circuits to a direct call.  ``draw`` is the
    link's stream (``kernel.stream``) and ``params`` the config's
    ``BackboneParams``.
    """

    def __init__(self, kernel: Kernel, src, dst, deliver, draw, params,
                 *, on_acked):
        self.kernel = kernel
        self.src = src
        self.dst = dst
        self.deliver = deliver  # called with the payload at the destination
        self.draw = draw
        self.params = params
        self.on_acked = on_acked
        self.transmissions = 0
        self.abandoned = 0
        self._next_seq = 0
        self._pending: dict[int, tuple] = {}

    def send(self, payload) -> None:
        if self.params.loss_prob == 0.0 and self.params.latency_s == 0:
            self.transmissions += 1
            self.deliver(payload)
            self.on_acked(payload)
            return
        seqno = self._next_seq
        self._next_seq += 1
        self._pending[seqno] = (payload, 0)
        self._transmit(seqno)

    def _transmit(self, seqno: int) -> None:
        payload = self._pending[seqno][0]
        self.transmissions += 1
        p = self.params
        now = self.kernel.now
        if not (p.loss_prob and self.draw() < p.loss_prob):
            data = _TxEvent("tx_data", self._on_data, seqno, payload)
            self.kernel.schedule(now + p.latency_s, self.dst, data)
        timeout = _TxEvent("tx_timeout", self._on_timeout, seqno)
        self.kernel.schedule(now + p.latency_s * 2 + p.ack_timeout_s, self.src, timeout)

    def _on_data(self, ev: _TxEvent) -> None:
        self.deliver(ev.payload)
        ack = _TxEvent("tx_ack", self._on_ack, ev.seqno)
        self.kernel.schedule(self.kernel.now + self.params.latency_s, self.src, ack)

    def _on_ack(self, ev: _TxEvent) -> None:
        item = self._pending.pop(ev.seqno, None)
        if item is None:
            return  # duplicate ack after a retransmit
        self.on_acked(item[0])

    def _on_timeout(self, ev: _TxEvent) -> None:
        item = self._pending.get(ev.seqno)
        if item is None:
            return  # already acked
        payload, attempt = item
        if attempt + 1 > self.params.max_retries:
            del self._pending[ev.seqno]
            self.abandoned += 1
            return
        self._pending[ev.seqno] = (payload, attempt + 1)
        self._transmit(ev.seqno)
