"""Small-topology builder, instrumentation and the reference versions of
src/ fast paths, used across the tests."""

import contextlib
import heapq
import math
from array import array
from dataclasses import replace
from types import SimpleNamespace

from droughtnet.backbone import CSV_COLUMNS, CentralDatabase
from droughtnet.config import ScenarioConfig
from droughtnet.environment import (
    SENSOR_FIELDS,
    YEAR_S,
    Climatology,
    DroughtScenario,
    NodeSampler,
)
from droughtnet.geometry import GeoPoint, links
from droughtnet.kernel import Kernel, SchedulingInPast, stream
from droughtnet.stack import (
    Channel,
    LinkParams,
    MacParams,
    RoutingMode,
    SensorNode,
)


# -- reference draws and formulas that src/ inlines on its hot paths ---------


class ReferenceStream:
    """The textbook draws built on the ``random()`` of stream(seed, label):
    the reference for the sampler's and the MAC's inlined draws, and a
    convenience for tests that need seeded numbers."""

    __slots__ = ("random",)

    def __init__(self, seed, label):
        self.random = stream(seed, label)

    def uniform(self, a, b):
        return a + (b - a) * self.random()

    def randint(self, a, b):
        """Integer in [a, b] inclusive."""
        return a + int(self.random() * (b - a + 1))

    def gauss(self, mu=0.0, sigma=1.0):
        # Box-Muller, always two underlying draws per call.
        u1 = self.random()
        u2 = self.random()
        if u1 <= 0.0:
            u1 = 5e-324
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def expovariate(self, lambd):
        u = self.random()
        return -math.log(1.0 - u) / lambd


def seasonal_temp(clim, t):
    """Seasonal normal temperature at time t, as the sampler computes it."""
    phase = 2.0 * math.pi * ((t % YEAR_S) / YEAR_S)
    return clim.mean_temp_c - clim.seasonal_amplitude_c * math.cos(phase)


def scenario_active(scen, t):
    """Whether a DroughtScenario's overrides apply at time t, as the
    sampler tests it."""
    if t < scen.active_start_s:
        return False
    return scen.active_end_s is None or t < scen.active_end_s


def tx_cost_mj(params, n_bytes, distance_km):
    """First-order radio cost of sending n_bytes over distance_km, as the
    node stack charges it."""
    bits = n_bytes * 8
    return bits * (params.elec_mj_per_bit + params.amp_mj_per_bit_km2 * distance_km * distance_km)


def rx_cost_mj(params, n_bytes):
    return n_bytes * 8 * params.elec_mj_per_bit


class MiniNet:
    def __init__(self, kernel, nodes, received):
        self.kernel = kernel
        self.nodes = nodes
        self.received = received  # [(time, DataMessage)] at the sink

    @property
    def sink(self):
        return self.nodes[0]

    @property
    def counters(self):
        """The network's report counts, each summed over the nodes that
        hold it."""
        nodes = self.nodes
        return SimpleNamespace(
            originated=sum(n.reports_originated for n in nodes),
            delivered=sum(n.reports_delivered for n in nodes),
            rf_losses=sum(n.rf_losses for n in nodes),
            queue_losses=sum(n.queue_losses for n in nodes),
            sleep_losses=sum(n.sleep_losses for n in nodes),
            duplicate_relay_drops=sum(n.duplicate_relay_drops for n in nodes),
        )

    def run(self, horizon):
        return self.kernel.run_until(horizon)


def build_net(
    positions,
    mode=RoutingMode.TREE,
    *,
    tree_parents=None,  # {child_index: parent_index}
    link_range=10.0,
    loss=0.0,
    delay=1,
    seed=1,
    period=1800,
    sampling_horizon=0,
    staggers=None,
    queue_cap=128,
    data_cache_cap=64,
    with_samplers=False,
):
    """Region-1 network with node 0 as sink at positions[0]."""
    kernel = Kernel()
    channel = Channel()
    cfg = replace(
        ScenarioConfig(),
        seed=seed,
        horizon_s=sampling_horizon,
        reporting_period_s=period,
        routing_mode=mode,
        radio_range_km=link_range / 2.0,  # nodes link at twice the radio range
        data_cache_cap=data_cache_cap,
        link=LinkParams(delay_s=delay, loss_prob=loss),
        mac=MacParams(queue_cap_frames=queue_cap),
    )
    points = [GeoPoint(x, y) for x, y in positions]
    nodes = []
    for i, pos in enumerate(points):
        sampler = None
        if with_samplers and i != 0:
            sampler = NodeSampler(cfg.env, Climatology(), DroughtScenario(),
                                  points[0], period, pos, stream(seed, f"env:{i}"))
        node = SensorNode(
            kernel, cfg, i, 1, i == 0, channel,
            sampler=sampler,
            stagger_s=staggers[i] if staggers else 0,
        )
        nodes.append(node)
    for node, near in zip(nodes, links(points, link_range)):
        node.neighbors = [nodes[v] for v, _ in near]
        node.neighbor_dist = {nodes[v]: d for v, d in near}
    if tree_parents is not None:
        children = {}
        for child, parent in tree_parents.items():
            children.setdefault(parent, []).append(child)

        def subtree_size(i):
            return 1 + sum(subtree_size(c) for c in children.get(i, []))

        for i, parent in tree_parents.items():
            nodes[i].set_tree_parent(nodes[parent], descendants=subtree_size(i) - 1)
    received = []
    nodes[0].collector = lambda msg, _received=received, _k=kernel: _received.append((_k.now, msg))
    for n in nodes:
        n.start()
    return MiniNet(kernel, nodes, received)


# complete-ish binary tree on 10 nodes, sink = 0
BINARY_TREE_10 = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 3, 9: 4}

# tight cluster: everyone in range of everyone
CLUSTER_10 = [(float(i % 4), float(i // 4)) for i in range(10)]

# diamond: sink - (A|B) - X, no sink-X or A-B link at range 1.5
DIAMOND = [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 0.0)]


@contextlib.contextmanager
def spy_enqueue(log):
    """Record every MAC enqueue as (node_index, kind, signature, dst)."""
    orig = SensorNode._enqueue

    def spy(self, pkt):
        log.append((self.node_index, pkt.kind, getattr(pkt.body, "signature", None), pkt.dst))
        orig(self, pkt)

    SensorNode._enqueue = spy
    try:
        yield
    finally:
        SensorNode._enqueue = orig


@contextlib.contextmanager
def spy_interests(log):
    """Record every interest reception as (node_index, interest_id, src)."""
    orig = SensorNode.receive_interest

    def spy(self, interest, hops_left, src):
        log.append((self.node_index, interest.interest_id, src))
        orig(self, interest, hops_left, src)

    SensorNode.receive_interest = spy
    try:
        yield
    finally:
        SensorNode.receive_interest = orig


def random_connected_positions(rng, link_range=2.0, max_nodes=12):
    """2..max_nodes positions, connected by construction: each new node
    lands within link range of some earlier one."""
    n = 2 + rng.randint(0, max_nodes - 2)
    pts = [(3.0, 3.0)]
    for _ in range(1, n):
        bx, by = pts[rng.randint(0, len(pts) - 1)]
        ang = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.3, 0.95 * link_range)
        pts.append((bx + r * math.cos(ang), by + r * math.sin(ang)))
    return pts


# -- row-wise central-db CSV codec and key check: the references ------------


def reference_to_csv_lines(rows):
    """One line per row of values in CSV_COLUMNS order, one f-string per
    record as CentralDatabase wrote rows before the block codec."""
    yield ",".join(CSV_COLUMNS)
    n_fields = len(SENSOR_FIELDS)
    for region, node, ts, x, y, route, battery, dropped, *sensors in rows:
        head = f"{region},{node},{ts},{x!r},{y!r},{route},{battery!r},{dropped}"
        raw_part = ",".join(repr(v) for v in sensors[:n_fields])
        cal_part = ",".join(repr(v) for v in sensors[n_fields:])
        yield f"{head},{raw_part},{cal_part}"


def csv_lines(db):
    """The lines, without their newlines, of the file whose bytes
    ``db.to_csv_lines()`` yields, each block of them whole lines."""
    blocks = list(db.to_csv_lines())
    assert all(type(block) is bytes and block.endswith(b"\n") for block in blocks)
    return b"".join(blocks).decode().split("\n")[:-1]


def rows_of(db):
    """The database's records as rows of values in CSV_COLUMNS order."""
    return list(zip(*db._csv_columns()))


def column_bytes(columns):
    """Each column's bytes, the routes as they are: equal only if bit-exact."""
    return [c if type(c) is list else c.tobytes() for c in columns]


class ReferenceDatabase:
    """Rows in CSV_COLUMNS order kept one at a time against a plain set of
    every stored key, as the central database kept them before its
    high-water marks."""

    def __init__(self):
        self.rows = []
        self.keys = set()
        self.duplicates_by_region = {}

    def add(self, row) -> bool:
        key = CentralDatabase._key(*row[:3])
        if key in self.keys:
            self.duplicates_by_region[row[0]] = self.duplicates_by_region.get(row[0], 0) + 1
            return False
        self.keys.add(key)
        self.rows.append(tuple(row))
        return True

    def columns(self):
        """The rows as columns, stored as CentralDatabase stores them."""
        kinds = CentralDatabase()._csv_columns()
        cols = zip(*self.rows) if self.rows else [()] * len(kinds)
        return [list(col) if type(kind) is list else array(kind.typecode, col)
                for kind, col in zip(kinds, cols)]


def reference_from_csv_lines(lines):
    """A ReferenceDatabase of the rows, read one line at a time, as rows
    were read before the block codec."""
    it = iter(lines)
    header = next(it).rstrip("\n").split(",")
    assert header == CSV_COLUMNS
    ref = ReferenceDatabase()
    for line in it:
        line = line.rstrip("\n")
        if not line:
            continue
        cells = line.split(",")
        ref.add([int(c) for c in cells[:3]] + [float(cells[3]), float(cells[4]), cells[5],
                                             float(cells[6]), int(cells[7])]
                + [float(c) for c in cells[8:]])
    return ref


# -- row-by-row analytics pass: the reference for the held-key loop -----------


def reference_aggregate(db, start, window_s):
    """``analytics._aggregate`` as it was written before it held the
    current key's sums in locals: a key tuple, a dict lookup and six
    list-item additions per row."""
    sums = {}
    region_col, ts_col = db.region, db.ts
    temp = db.cal["temperature_c"]
    precip = db.cal["precipitation_mm"]
    wdir = db.cal["wind_dir_deg"]
    wspd = db.cal["wind_speed_ms"]
    sin, cos, rad = math.sin, math.cos, math.radians
    for i in range(len(ts_col)):
        t = ts_col[i]
        if t < start:
            continue
        key = (region_col[i], (t - start) // window_s)
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = [0, 0.0, 0.0, 0.0, 0.0, 0.0, set()]
        acc[0] += 1
        acc[1] += temp[i]
        acc[2] += precip[i]
        a = rad(wdir[i])
        acc[3] += sin(a)
        acc[4] += cos(a)
        acc[5] += wspd[i]
        acc[6].add(db.node[i])
    return sums


# -- one-heap event queue: the reference for the per-second buckets ----------


class ReferenceHeapKernel(Kernel):
    """Kernel with one heap of (fire_at, seq, target, payload) events in
    place of the per-second buckets: the reference that the bucket
    queue's dispatch order, trace and pending counts are checked
    against."""

    def __init__(self, trace=None):
        super().__init__(trace)
        self._heap = []

    def schedule(self, fire_at, target, payload):
        if fire_at < self.now:
            raise SchedulingInPast(f"fire_at {fire_at} < clock {self.now}")
        heapq.heappush(self._heap, (fire_at, self._seq, target, payload))
        self._seq += 1

    def pending(self):
        return len(self._heap)

    def run_until(self, horizon):
        count = 0
        while self._heap and self._heap[0][0] <= horizon:
            fire_at, seq, target, payload = heapq.heappop(self._heap)
            self.now = fire_at
            if self.trace is not None:
                self.trace.append(f"{fire_at}\t{seq}\t{target}\t{payload.tag}")
            target.handle(payload)
            count += 1
        self.processed += count
        return count


class Unpicklable(Exception):
    """An exception holding a lambda, which does not pickle."""

    def __init__(self, message):
        super().__init__(message)
        self.check = lambda: message


# -- row-by-row truth dump: the reference for the held-day loop ---------------


def reference_truth_daily_lines(db):
    """``runner._truth_daily_lines`` as it was written before it held the
    current (region, day)'s figures in locals: a key tuple and a dict
    lookup per row."""
    days = {}
    for rid, ts, t, p in zip(db.region, db.ts, db.raw["temperature_c"],
                             db.raw["precipitation_mm"]):
        acc = days.get((rid, ts // 86_400))
        if acc is None:
            days[(rid, ts // 86_400)] = [t, t, t, 1, p]
        else:
            acc[0], acc[1] = min(acc[0], t), max(acc[1], t)
            acc[2] += t
            acc[3] += 1
            acc[4] += p
    yield "region,day,temp_min_C,temp_max_C,temp_mean_C,precip_total_mm"
    for (rid, day) in sorted(days):
        lo, hi, tot, n, p = days[(rid, day)]
        yield f"{rid},{day},{lo!r},{hi!r},{(tot / n)!r},{p!r}"
