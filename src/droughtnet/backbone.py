"""Tier-2/tier-3 entities: per-region local base stations with bounded
storage and the remote base station holding the comprehensive
observational database.  The line-of-sight backbone's reach is checked
by ``config.validate``.

Every record keeps both raw and calibrated readings plus node health,
location and a routing snapshot; a run stores the raw reading as the
calibrated one.  The central store is append-only and keyed by (region,
node, timestamp); duplicates are rejected and counted.  Storage is
columnar so a full simulated year stays memory-light.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import compress, islice, repeat

from .environment import SENSOR_FIELDS, SensorReading
from .geometry import GeoPoint
from .kernel import EntityId, EntityKind, Kernel, Message
from .stack import DataMessage, TransportLink, transport_dispatch

DEFAULT_LOCAL_DB_CAPACITY = 10_000
# CentralDatabase limits: region ids are stored as signed bytes, and a
# key packs the global node id into 14 bits above a 40-bit timestamp;
# validate() enforces the region and node limits on a config
REGION_ID_RANGE = (-128, 127)
MAX_NODES = 1 << 14
MAX_TIMESTAMP_S = 1 << 40
# rows per block of the central-db CSV codec; small blocks keep the
# reader's transient field strings from raising peak memory
CSV_BLOCK_ROWS = 1024


class BackboneError(Exception):
    pass


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
        self._appends = tuple(col.append for col in self._csv_columns())
        # keys of the stored records while adds may come; None once released
        self._keys: set[int] | None = set()
        self.duplicates_by_region: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.ts)

    @staticmethod
    def _key(region: int, node: int, ts: int) -> int:
        return (region << 54) | (node << 40) | ts

    def release_keys(self) -> None:
        """Free the key set, one int per record, when no more adds are
        expected; the next add rebuilds it from the columns."""
        self._keys = None

    def _known_keys(self) -> set[int]:
        keys = self._keys
        if keys is None:
            keys = self._keys = set(map(self._key, self.region, self.node, self.ts))
        return keys

    def add(self, rec: StoredRecord) -> bool:
        """Append a record; False (and a counter bump) on a duplicate key."""
        region_id = rec.region_id
        k = (region_id << 54) | (rec.node_id << 40) | rec.timestamp  # _key, inlined
        keys = self._keys
        if keys is None:
            keys = self._known_keys()
        if k in keys:
            self.duplicates_by_region[region_id] = (
                self.duplicates_by_region.get(region_id, 0) + 1
            )
            return False
        keys.add(k)
        # one bound append per column, in CSV_COLUMNS order
        (region, node, ts, x, y, route, battery, dropped,
         temp, precip, hum, pres, wspeed, wdir, ground,
         c_temp, c_precip, c_hum, c_pres, c_wspeed, c_wdir, c_ground) = self._appends
        region(region_id)
        node(rec.node_id)
        ts(rec.timestamp)
        loc = rec.location
        x(loc.x_km)
        y(loc.y_km)
        route(sys.intern(rec.route))
        battery(rec.battery_mj_remaining)
        dropped(rec.frames_dropped)
        r = rec.raw
        temp(r.temperature_c)
        precip(r.precipitation_mm)
        hum(r.humidity_pct)
        pres(r.pressure_hpa)
        wspeed(r.wind_speed_ms)
        wdir(r.wind_dir_deg)
        ground(r.groundwater_m)
        c = rec.calibrated
        c_temp(c.temperature_c)
        c_precip(c.precipitation_mm)
        c_hum(c.humidity_pct)
        c_pres(c.pressure_hpa)
        c_wspeed(c.wind_speed_ms)
        c_wdir(c.wind_dir_deg)
        c_ground(c.groundwater_m)
        return True

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

    def _csv_columns(self) -> list:
        """The storage behind each CSV column, in CSV_COLUMNS order."""
        return [
            self.region, self.node, self.ts, self.x, self.y, self.routes,
            self.battery, self.frames_dropped,
            *(self.raw[f] for f in SENSOR_FIELDS),
            *(self.cal[f] for f in SENSOR_FIELDS),
        ]

    def to_csv_lines(self):
        """Header, then one line per record (no trailing newline); every
        number as its ``repr``, rows formatted one block at a time."""
        yield ",".join(CSV_COLUMNS)
        columns = self._csv_columns()
        n_fields = len(SENSOR_FIELDS)
        first_cal = len(columns) - n_fields
        for start in range(0, len(self.ts), CSV_BLOCK_ROWS):
            stop = start + CSV_BLOCK_ROWS
            parts = [col[start:stop] for col in columns]
            cells = []
            for k, part in enumerate(parts):
                if k >= first_cal and part.tobytes() == parts[k - n_fields].tobytes():
                    cells.append(cells[k - n_fields])  # identity calibration
                elif type(part) is list:
                    cells.append(part)  # routes
                else:
                    cells.append(list(map(repr, part)))
            yield from map(",".join, zip(*cells))

    @classmethod
    def from_csv_lines(cls, lines) -> "CentralDatabase":
        """Inverse of to_csv_lines; lines may keep their newline.  Blank
        lines are skipped, a row with the wrong field count or a bad value
        raises BackboneError naming its line, and duplicate keys are
        dropped and counted as ``add`` drops them.  The key set is
        released after the last block (see ``release_keys``)."""
        it = iter(lines)
        if next(it, "").strip().split(",") != CSV_COLUMNS:
            raise BackboneError("unexpected central-db CSV header")
        db = cls()
        columns = db._csv_columns()
        lineno = 2  # of the chunk's first line
        while chunk := list(islice(it, CSV_BLOCK_ROWS)):
            parts = _parse_csv_block(chunk, columns, lineno)
            lineno += len(chunk)
            # the block's strings go before its key ints are made: made
            # among them, the ints fragment the heap and raise peak RSS
            del chunk
            if parts:
                db._extend(columns, parts)
        db.release_keys()
        return db

    def send(self, conn) -> None:
        """Send the records down a ``multiprocessing`` connection, one
        column per message so that neither end copies them all at once,
        then the duplicate counts."""
        for col in self._csv_columns():
            if type(col) is list:
                conn.send(col)  # routes
            else:
                conn.send_bytes(col)
        conn.send(self.duplicates_by_region)

    def receive(self, conn) -> None:
        """Append what ``send`` sent from a database of other regions, so
        that no key of it is stored here, and add its duplicate counts;
        releases the key set (see ``release_keys``)."""
        self.release_keys()
        for col in self._csv_columns():
            if type(col) is list:
                col.extend(conn.recv())
            else:
                col.frombytes(conn.recv_bytes())
        for region, n in conn.recv().items():
            self.duplicates_by_region[region] = self.duplicates_by_region.get(region, 0) + n

    def _extend(self, columns: list, parts: list) -> None:
        """Append one parsed block, keeping the first row of each key and
        counting the rest as ``add`` counts a duplicate."""
        region = parts[0]
        keys = list(map(self._key, region, parts[1], parts[2]))
        known = self._known_keys()
        n_known = len(known)
        if known.isdisjoint(keys):
            known.update(keys)
            if len(known) - n_known < len(keys):
                known.difference_update(keys)  # a key repeats in the block
        if len(known) - n_known < len(keys):
            # some key is not new: row by row, as add() would see them
            keep = []
            dups = self.duplicates_by_region
            for r, k in zip(region, keys):
                if k in known:
                    dups[r] = dups.get(r, 0) + 1
                    keep.append(False)
                else:
                    known.add(k)
                    keep.append(True)
            parts = [
                list(compress(p, keep)) if type(p) is list
                else array(p.typecode, compress(p, keep))
                for p in parts
            ]
        for col, part in zip(columns, parts):
            col.extend(part)


def _parse_csv_block(chunk: list, columns: list, lineno: int) -> list:
    """One block of CSV lines (the first at ``lineno``) as one array or
    list per column, like ``columns``; [] if every line is blank."""
    rows = list(filter(None, map(str.strip, chunk)))
    if not rows:
        return []
    n_cols = len(columns)
    if list(map(str.count, rows, repeat(","))).count(n_cols - 1) != len(rows):
        for i, line in enumerate(chunk):
            n = line.count(",") + 1
            if line.strip() and n != n_cols:
                raise BackboneError(
                    f"central-db CSV line {lineno + i}: {n} fields, expected {n_cols}"
                )
    flat = ",".join(rows).split(",")
    del rows
    n_fields = len(SENSOR_FIELDS)
    first_cal = n_cols - n_fields
    parts = []
    try:
        for k, col in enumerate(columns):
            cells = flat[k::n_cols]
            if k >= first_cal and cells == flat[k - n_fields::n_cols]:
                parts.append(parts[k - n_fields])  # identity calibration
            elif type(col) is list:
                parts.append(list(map(sys.intern, cells)))
            else:
                parse = float if col.typecode == "d" else int
                parts.append(array(col.typecode, map(parse, cells)))
    except (ValueError, OverflowError):
        _raise_bad_value(chunk, columns, lineno)
        raise
    for name, limit in _KEY_LIMITS.items():
        part = parts[CSV_COLUMNS.index(name)]
        if min(part) < 0 or max(part) >= limit:
            _raise_bad_value(chunk, columns, lineno)
    return parts


# key fields outside [0, limit) would spill into the key's other fields
_KEY_LIMITS = {"node_id": MAX_NODES, "timestamp_s": MAX_TIMESTAMP_S}


def _raise_bad_value(chunk: list, columns: list, lineno: int) -> None:
    """Raise BackboneError for the first cell of the block that does not
    parse, does not fit its column's storage or does not fit its key
    field."""
    for i, line in enumerate(chunk):
        line = line.strip()
        if not line:
            continue
        for name, col, cell in zip(CSV_COLUMNS, columns, line.split(",")):
            if type(col) is list:
                continue
            limit = _KEY_LIMITS.get(name)
            try:
                value = (float if col.typecode == "d" else int)(cell)
                array(col.typecode, [value])
                fits = limit is None or 0 <= value < limit
            except (ValueError, OverflowError):
                fits = False
            if not fits:
                raise BackboneError(
                    f"central-db CSV line {lineno + i}: bad {name} value {cell!r}"
                ) from None


class RemoteBaseStation:
    """Central processing unit: owns the observational database."""

    def __init__(self, kernel: Kernel, central: CentralDatabase):
        self.entity_id = EntityId(EntityKind.REMOTE_BASE_STATION, 0)
        self.kernel = kernel
        self.central = central
        kernel.register(self)

    def handle(self, payload):
        if isinstance(payload, Message) and transport_dispatch(payload.body, payload.src):
            return
        raise BackboneError(f"unexpected payload at remote base station: {payload!r}")

    def receive_entry(self, entry: list, src: EntityId) -> None:
        """Store the record of a local-store entry sent on an uplink."""
        self.central.add(entry[0])


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
        capacity: int = DEFAULT_LOCAL_DB_CAPACITY,
    ):
        self.entity_id = EntityId(EntityKind.LOCAL_BASE_STATION, region_id)
        self.kernel = kernel
        self.region_id = region_id
        self.position = position
        self.node_locations = node_locations
        self.capacity = capacity
        self.local_db: deque[list] = deque()  # [record, acked], oldest first
        self._route_cache: dict[tuple, str] = {}
        self.uplink: TransportLink | None = None
        self.ingested = 0
        self.evicted = 0
        kernel.register(self)

    def attach_uplink(self, remote: RemoteBaseStation, loss_prob: float = 0.0,
                      latency_s: int = 0, max_retries: int = 20,
                      ack_timeout_s: int = 2) -> None:
        self.uplink = TransportLink(
            self.kernel,
            self.entity_id,
            remote.entity_id,
            remote.receive_entry,
            self.kernel.stream(f"uplink:{self.region_id}"),
            loss_prob=loss_prob,
            latency_s=latency_s,
            max_retries=max_retries,
            ack_timeout_s=ack_timeout_s,
            on_acked=self._on_uplink_ack,
        )

    def handle(self, payload):
        if isinstance(payload, Message) and transport_dispatch(payload.body, payload.src):
            return
        raise BackboneError(f"unexpected payload at base station: {payload!r}")

    # -- ingestion ------------------------------------------------------------

    def ingest(self, msg: DataMessage) -> StoredRecord:
        """Store locally and forward on the reliable uplink; the raw
        reading is stored as the calibrated one."""
        raw = msg.reading
        route = self._route_cache.get(msg.route)
        if route is None:
            route = self._route_cache[msg.route] = "-".join(str(i) for i in msg.route)
        node_id = msg.origin_index
        record = StoredRecord(
            raw.timestamp, node_id, self.region_id, raw, raw,
            msg.battery_mj, msg.frames_dropped,
            self.node_locations.get(node_id, self.position), route,
        )
        self.ingested += 1
        entry = [record, False]
        local_db = self.local_db
        if len(local_db) >= self.capacity:
            self._evict_acked()
        local_db.append(entry)
        if self.uplink is not None:
            # the entry itself travels, so its ack marks it and no other
            # copy of the same reading (combined mode stores two)
            self.uplink.send(entry)
        return record

    def _evict_acked(self) -> None:
        """Make room in a full store by evicting its oldest acked entry;
        if nothing is acked yet the store grows past capacity rather than
        lose data silently."""
        local_db = self.local_db
        # acks arrive in order, so the oldest acked entry is almost
        # always the head, which a deque deletes in O(1)
        for i, candidate in enumerate(local_db):
            if candidate[1]:
                del local_db[i]
                self.evicted += 1
                return

    @staticmethod
    def _on_uplink_ack(entry: list) -> None:
        entry[1] = True
