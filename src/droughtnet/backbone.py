"""Tier-2/tier-3 entities: per-region local base stations with bounded
storage, the remote base station holding the comprehensive observational
database, calibration, and the line-of-sight backbone link budget.

Every record keeps both raw and calibrated readings plus node health,
location and a routing snapshot.  The central store is append-only and
keyed by (region, node, timestamp); duplicates are rejected and counted.
Storage is columnar so a full simulated year stays memory-light.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass

from .environment import SENSOR_FIELDS, SensorReading
from .geometry import GeoPoint
from .kernel import EntityId, EntityKind, Kernel, Message
from .stack import DataMessage, TransportLink, transport_dispatch

DEFAULT_BACKBONE_RANGE_KM = 120.0
DEFAULT_LOCAL_DB_CAPACITY = 10_000
# CentralDatabase limits, which validate() enforces on a config: region
# ids are stored as signed bytes and global node ids fill 14 key bits
REGION_ID_RANGE = (-128, 127)
MAX_NODES = 1 << 14


class BackboneError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class CalibrationMap:
    """Per-field affine map applied at ingest; identity by default."""

    coefficients: tuple = ()  # ((field, scale, offset), ...)

    def is_identity(self) -> bool:
        return all(s == 1.0 and o == 0.0 for _, s, o in self.coefficients)

    def apply(self, raw: SensorReading) -> SensorReading:
        if not self.coefficients or self.is_identity():
            return raw
        values = {f: getattr(raw, f) for f in SENSOR_FIELDS}
        for f, scale, offset in self.coefficients:
            values[f] = scale * values[f] + offset
        return SensorReading(
            node_id=raw.node_id, region_id=raw.region_id, timestamp=raw.timestamp, **values
        )


@dataclass(slots=True)
class StoredRecord:
    """One database row: raw + calibrated reading, health, location, route."""

    timestamp: int
    node_id: int
    region_id: int
    raw: SensorReading
    calibrated: SensorReading
    battery_mj_remaining: float
    frames_dropped: int
    location: GeoPoint
    route: str

    def key(self) -> tuple:
        return (self.region_id, self.node_id, self.timestamp)


CSV_COLUMNS = (
    ["region_id", "node_id", "timestamp_s", "x_km", "y_km", "route",
     "battery_mj_remaining", "frames_dropped"]
    + [f"raw_{f}" for f in SENSOR_FIELDS]
    + [f"cal_{f}" for f in SENSOR_FIELDS]
)


class CentralDatabase:
    """Append-only columnar store keyed by (region, node, timestamp)."""

    def __init__(self):
        self.region = array("b")
        self.node = array("h")
        self.ts = array("q")
        self.x = array("d")
        self.y = array("d")
        self.battery = array("d")
        self.frames_dropped = array("q")
        self.routes: list[str] = []
        self.raw = {f: array("d") for f in SENSOR_FIELDS}
        self.cal = {f: array("d") for f in SENSOR_FIELDS}
        self._raw_append = tuple(self.raw[f].append for f in SENSOR_FIELDS)
        self._cal_append = tuple(self.cal[f].append for f in SENSOR_FIELDS)
        self._keys: set[int] = set()
        self.duplicates_by_region: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.ts)

    @staticmethod
    def _key(region: int, node: int, ts: int) -> int:
        return (region << 54) | (node << 40) | ts

    def add(self, rec: StoredRecord) -> bool:
        """Append a record; False (and a counter bump) on a duplicate key."""
        k = self._key(rec.region_id, rec.node_id, rec.timestamp)
        if k in self._keys:
            self.duplicates_by_region[rec.region_id] = (
                self.duplicates_by_region.get(rec.region_id, 0) + 1
            )
            return False
        self._keys.add(k)
        self.region.append(rec.region_id)
        self.node.append(rec.node_id)
        self.ts.append(rec.timestamp)
        self.x.append(rec.location.x_km)
        self.y.append(rec.location.y_km)
        self.battery.append(rec.battery_mj_remaining)
        self.frames_dropped.append(rec.frames_dropped)
        self.routes.append(sys.intern(rec.route))
        # one bound append per column, in SENSOR_FIELDS order
        for r, (temp, precip, hum, pres, wspeed, wdir, ground) in (
            (rec.raw, self._raw_append), (rec.calibrated, self._cal_append)
        ):
            temp(r.temperature_c)
            precip(r.precipitation_mm)
            hum(r.humidity_pct)
            pres(r.pressure_hpa)
            wspeed(r.wind_speed_ms)
            wdir(r.wind_dir_deg)
            ground(r.groundwater_m)
        return True

    @property
    def duplicate_drops(self) -> int:
        return sum(self.duplicates_by_region.values())

    def region_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for r in self.region:
            counts[r] = counts.get(r, 0) + 1
        return counts

    def span(self) -> tuple[int, int]:
        if not self.ts:
            return (0, 0)
        return (min(self.ts), max(self.ts))

    # -- export / import ----------------------------------------------------

    def to_csv_lines(self):
        yield ",".join(CSV_COLUMNS)
        raw_cols = [self.raw[f] for f in SENSOR_FIELDS]
        cal_cols = [self.cal[f] for f in SENSOR_FIELDS]
        for i in range(len(self.ts)):
            head = (
                f"{self.region[i]},{self.node[i]},{self.ts[i]},"
                f"{self.x[i]!r},{self.y[i]!r},{self.routes[i]},"
                f"{self.battery[i]!r},{self.frames_dropped[i]}"
            )
            raw_part = ",".join(repr(c[i]) for c in raw_cols)
            cal_part = ",".join(repr(c[i]) for c in cal_cols)
            yield f"{head},{raw_part},{cal_part}"

    @classmethod
    def from_csv_lines(cls, lines) -> "CentralDatabase":
        it = iter(lines)
        header = next(it).rstrip("\n").split(",")
        if header != CSV_COLUMNS:
            raise BackboneError("unexpected central-db CSV header")
        db = cls()
        n_fields = len(SENSOR_FIELDS)
        for line in it:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            raw_vals = [float(v) for v in parts[8 : 8 + n_fields]]
            cal_vals = [float(v) for v in parts[8 + n_fields : 8 + 2 * n_fields]]
            region, node, ts = int(parts[0]), int(parts[1]), int(parts[2])
            raw = SensorReading(node, region, ts, *raw_vals)
            cal = SensorReading(node, region, ts, *cal_vals)
            db.add(
                StoredRecord(
                    timestamp=ts,
                    node_id=node,
                    region_id=region,
                    raw=raw,
                    calibrated=cal,
                    battery_mj_remaining=float(parts[6]),
                    frames_dropped=int(parts[7]),
                    location=GeoPoint(float(parts[3]), float(parts[4])),
                    route=parts[5],
                )
            )
        return db


@dataclass(frozen=True, slots=True)
class LinkBudget:
    in_range: bool
    distance_km: float


def backbone_link_budget(pos_a: GeoPoint, pos_b: GeoPoint,
                         range_km: float = DEFAULT_BACKBONE_RANGE_KM) -> LinkBudget:
    """High-gain line-of-sight 802.11 backbone reach check."""
    d = pos_a.distance_to(pos_b)
    return LinkBudget(in_range=d <= range_km, distance_km=d)


class RemoteBaseStation:
    """Central processing unit: owns the observational database."""

    def __init__(self, kernel: Kernel, central: CentralDatabase | None = None):
        self.entity_id = EntityId(EntityKind.REMOTE_BASE_STATION, 0)
        self.kernel = kernel
        self.central = central if central is not None else CentralDatabase()
        kernel.register(self)

    def handle(self, payload):
        if isinstance(payload, Message) and transport_dispatch(payload.body, payload.src):
            return
        raise BackboneError(f"unexpected payload at remote base station: {payload!r}")

    def receive_record(self, record: StoredRecord, src: EntityId) -> None:
        self.central.add(record)


class LocalBaseStation:
    """Tier-2 collector for one sub-network.

    Bounded local database (forward-then-evict-oldest, never evicting a
    record the central database has not acknowledged) and a reliable
    uplink to the remote base station.
    """

    def __init__(
        self,
        kernel: Kernel,
        region_id: int,
        position: GeoPoint,
        node_locations: dict[int, GeoPoint],
        calibration: CalibrationMap = CalibrationMap(),
        capacity: int = DEFAULT_LOCAL_DB_CAPACITY,
    ):
        self.entity_id = EntityId(EntityKind.LOCAL_BASE_STATION, region_id)
        self.kernel = kernel
        self.region_id = region_id
        self.position = position
        self.node_locations = node_locations
        self.calibration = calibration
        self.capacity = capacity
        self.local_db: deque[list] = deque()  # [record, acked], oldest first
        self._pending_ack: dict[tuple, list] = {}
        self._route_cache: dict[tuple, str] = {}
        self.uplink: TransportLink | None = None
        self.ingested = 0
        self.evicted = 0
        kernel.register(self)

    def attach_uplink(self, remote: RemoteBaseStation, loss_prob: float = 0.0,
                      latency_s: int = 0, max_retries: int = 20) -> None:
        self.uplink = TransportLink(
            self.kernel,
            self.entity_id,
            remote.entity_id,
            remote.receive_record,
            self.kernel.stream(f"uplink:{self.region_id}"),
            loss_prob=loss_prob,
            latency_s=latency_s,
            max_retries=max_retries,
            on_acked=self._on_uplink_ack,
        )

    def handle(self, payload):
        if isinstance(payload, Message) and transport_dispatch(payload.body, payload.src):
            return
        raise BackboneError(f"unexpected payload at base station: {payload!r}")

    # -- ingestion ------------------------------------------------------------

    def ingest(self, msg: DataMessage) -> StoredRecord:
        """Calibrate, store locally and forward on the reliable uplink."""
        raw = msg.reading
        route = self._route_cache.get(msg.route)
        if route is None:
            route = self._route_cache[msg.route] = "-".join(str(i) for i in msg.route)
        record = StoredRecord(
            timestamp=raw.timestamp,
            node_id=msg.origin_index,
            region_id=self.region_id,
            raw=raw,
            calibrated=self.calibration.apply(raw),
            battery_mj_remaining=msg.battery_mj,
            frames_dropped=msg.frames_dropped,
            location=self.node_locations.get(msg.origin_index, self.position),
            route=route,
        )
        self.ingested += 1
        entry = [record, False]
        self._store(entry)
        if self.uplink is not None:
            self._pending_ack[record.key()] = entry
            self.uplink.send(record)
        return record

    def _store(self, entry: list) -> None:
        local_db = self.local_db
        if len(local_db) >= self.capacity:
            # acks arrive in order, so the oldest acked entry is almost
            # always the head, which a deque deletes in O(1)
            for i, candidate in enumerate(local_db):
                if candidate[1]:
                    del local_db[i]
                    self.evicted += 1
                    break
            # if nothing is acked yet the store grows past capacity rather
            # than lose data silently
        local_db.append(entry)

    def _on_uplink_ack(self, record: StoredRecord) -> None:
        entry = self._pending_ack.pop(record.key(), None)
        if entry is not None:
            entry[1] = True
