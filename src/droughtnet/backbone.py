"""Tier-2/tier-3 entities: per-region local base stations with bounded
storage and the remote base station holding the comprehensive
observational database.  The line-of-sight backbone's reach is checked
by ``config.validate``.

The sink's ``DataMessage`` is the record, stored and uplinked as is.
Every central row keeps raw and calibrated readings, stored once as a
run calibrates as raw, plus node health, location and route.  The store
is append-only, columnar and keyed by (region, node, timestamp);
duplicates are rejected and counted.
"""

from __future__ import annotations

import codecs
import io
import os
import pickle
import sys
from array import array
from collections import Counter, deque
from functools import partial
from itertools import chain, compress, islice, repeat

from .environment import SENSOR_FIELDS, SensorReading
from .forked import forked, share_count
from .geometry import GeoPoint
from .kernel import Kernel, stream
from .stack import DataMessage, TransportLink

# CentralDatabase limits: region ids are stored as signed bytes, and a
# key packs the global node id into 14 bits above a 40-bit timestamp;
# validate() enforces the region and node limits on a config
REGION_ID_RANGE = (-128, 127)
MAX_NODES = 1 << 14
MAX_TIMESTAMP_S = 1 << 40
# rows per block of the central-db CSV codec; small blocks keep the
# reader's transient field strings from raising peak memory
CSV_BLOCK_ROWS = 1024
CSV_ROW_BYTES = 128  # about a central-db CSV row's length, to size the load's shares


class BackboneError(Exception):
    pass


CSV_COLUMNS = (
    ["region_id", "node_id", "timestamp_s", "x_km", "y_km", "route",
     "battery_mj_remaining", "frames_dropped"]
    + [f"raw_{f}" for f in SENSOR_FIELDS]
    + [f"cal_{f}" for f in SENSOR_FIELDS]
)
_BELOW_ANY_KEY = REGION_ID_RANGE[0] << 55  # a key's region field is a signed byte
_NEGATIVE_ZERO = array("d", [-0.0]).tobytes()
_DUMP_BLOCK_ITEMS = 1 << 16  # per read of a dumped column: 512 KiB of floats


class _ReprCache(dict):
    """Value -> its ``repr``, formatted at the first lookup.  NaN equals
    no key, so it is formatted at every lookup and never kept."""

    __slots__ = ()

    def __missing__(self, value):
        text = repr(value)
        if value == value:
            self[value] = text
        return text


class CentralDatabase:
    """Append-only columnar store keyed by (region, node, timestamp).

    It records a run (``add``) or holds a loaded file or a share of one
    (``from_csv_lines``); ``dump`` writes either, ``append_dump`` appends
    it to another, and ``add`` raises once the keys are released.  ``cal``
    is ``raw`` (the same arrays) unless loaded calibrated cells differ.  A
    key above its node's high-water mark, the highest key stored for its
    (region, node), is new, and one equal to it a duplicate.  The first
    key below it builds an exact set of the stored keys."""

    def __init__(self):
        self.region = array("b")
        self.node = array("h")
        self.ts = array("q")
        self.x = array("d")
        self.y = array("d")
        self.battery = array("d")
        self.frames_dropped = array("q")
        self.routes: list[str] = []
        self._route_text: dict[tuple, str] = {}  # route tuple -> its cell, one per distinct route
        self.raw = {f: array("d") for f in SENSOR_FIELDS}
        self.cal = self.raw
        self._appends = tuple(col.append for col in self._stored_columns())
        # key >> 40, i.e. (region, node) -> its highest stored key; None once released
        self._marks: dict[int, int] | None = {}
        self._lowest: dict[int, int] = {}  # key >> 40 -> its lowest loaded key, until _exact
        self._exact: set[int] | None = None  # the slow path's key set
        self.duplicates_by_region: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.ts)

    @staticmethod
    def _key(region: int, node: int, ts: int) -> int:
        return (region << 54) | (node << 40) | ts

    def release_keys(self) -> None:
        """Free the key marks and the exact key set, if any: the database
        takes no more adds."""
        self._exact = self._marks = None

    def _admit(self, k: int, pending=()) -> bool:
        """Whether key k is new, recording it if so; ``pending`` holds
        the keys admitted but not yet in the columns."""
        exact = self._exact
        if exact is None:
            marks = self._marks
            mark = marks.get(k >> 40, _BELOW_ANY_KEY)
            if k > mark:
                marks[k >> 40] = k
                return True
            if k == mark:
                return False
            exact = self._exact = set(map(self._key, self.region, self.node, self.ts))
            exact.update(pending)
        if k in exact:
            return False
        exact.add(k)
        return True

    def add(self, region_id: int, location: GeoPoint, msg: DataMessage) -> bool:
        """Append the reading of a sink's message with its node's health
        and route; False (and a counter bump) on a duplicate key."""
        marks = self._marks
        if marks is None:
            raise BackboneError("add to a central database whose keys are released")
        r: SensorReading = msg.reading
        node_id = msg.origin_index
        k = (region_id << 54) | (node_id << 40) | r.timestamp  # _key, inlined
        if self._exact is None and k > marks.get(k >> 40, _BELOW_ANY_KEY):
            marks[k >> 40] = k
        elif not self._admit(k):
            dups = self.duplicates_by_region
            dups[region_id] = dups.get(region_id, 0) + 1
            return False
        # one bound append per stored column, in CSV_COLUMNS order
        (region, node, ts, x, y, route, battery, dropped,
         temp, precip, hum, pres, wspeed, wdir, ground) = self._appends
        region(region_id)
        node(node_id)
        ts(r.timestamp)
        x(location.x_km)
        y(location.y_km)
        text = self._route_text.get(msg.route)
        if text is None:
            text = self._route_text[msg.route] = "-".join(map(str, msg.route))
        route(text)
        battery(msg.battery_mj)
        dropped(msg.frames_dropped)
        temp(r.temperature_c)
        precip(r.precipitation_mm)
        hum(r.humidity_pct)
        pres(r.pressure_hpa)
        wspeed(r.wind_speed_ms)
        wdir(r.wind_dir_deg)
        ground(r.groundwater_m)
        return True

    def region_counts(self) -> dict[int, int]:
        return dict(Counter(self.region))

    # -- export / import ----------------------------------------------------

    def _csv_columns(self) -> list:
        """The storage behind each CSV column, in CSV_COLUMNS order."""
        return [
            self.region, self.node, self.ts, self.x, self.y, self.routes,
            self.battery, self.frames_dropped,
            *(self.raw[f] for f in SENSOR_FIELDS),
            *(self.cal[f] for f in SENSOR_FIELDS),
        ]

    def _stored_columns(self) -> list:
        """The CSV columns' storage, each array once (cal only if not raw)."""
        columns = self._csv_columns()
        return columns if self.cal is not self.raw else columns[:-len(SENSOR_FIELDS)]

    def to_csv_lines(self):
        """The CSV file's UTF-8 bytes in blocks of whole lines, each ended
        by a newline: the header, then one line per record, every number
        as its ``repr``; the inverse of ``from_csv_lines``.

        With ``share_count`` of the rows at least 2, a forked child formats each
        of that many contiguous, near-equal row shares (see ``forked``), and
        this process yields their files' bytes in order, a MiB at a time,
        so that it formats nothing and builds no format caches on top of
        the run's heap.  The bytes are the same for every share count."""
        n = len(self.ts)
        header = (",".join(CSV_COLUMNS) + "\n").encode()
        if (shares := share_count(n)) < 2:
            yield header
            yield from self._format_blocks(0, n)
            return
        bounds = [n * k // shares for k in range(shares + 1)]
        with forked(list(zip(bounds, bounds[1:])), self._format_share,
                    lambda rows: f"formatting central-db rows {rows[0]} to {rows[1] - 1}",
                    BackboneError) as children:
            yield header
            for _, file in children:
                yield from iter(partial(file.read, 1 << 20), b"")

    def _format_share(self, rows: tuple[int, int], file) -> None:
        """Body of a forked child: write the lines of the (start, stop)
        rows to the binary file ``file``."""
        file.writelines(self._format_blocks(*rows))

    def _format_blocks(self, start: int, stop: int):
        """The UTF-8 lines of rows [start, stop), each ended by a newline,
        as one bytes object per block of CSV_BLOCK_ROWS rows.  Each
        distinct value of a column is formatted once per call, except in
        the routes, which are text, and the battery column: a running
        total, nearly every value distinct."""
        columns = self._stored_columns()
        caches = [None if type(col) is list or col is self.battery else _ReprCache()
                  for col in columns]
        for first in range(start, stop, CSV_BLOCK_ROWS):
            last = min(first + CSV_BLOCK_ROWS, stop)
            cells = []
            for col, cache in zip(columns, caches):
                part = col[first:last]
                if type(part) is list:
                    cells.append(part)  # routes as they are
                elif cache is None or part.typecode == "d" and _NEGATIVE_ZERO in part.tobytes():
                    # -0.0 is a key equal to 0.0: a false match costs only speed
                    cells.append(list(map(repr, part)))
                else:
                    cells.append(list(map(cache.__getitem__, part)))
            if len(cells) < len(CSV_COLUMNS):
                cells += cells[-len(SENSOR_FIELDS):]  # aliased calibration: the raw cells
            yield "\n".join(chain(map(",".join, zip(*cells)), ("",))).encode()  # "" ends the last line

    @classmethod
    def from_csv_lines(cls, lines) -> "CentralDatabase":
        """Inverse of to_csv_lines: the lines of the file it writes (a file
        opened as UTF-8 text, or strings, which may keep their newline).  Blank
        lines are skipped, a row with the wrong field count or a bad value
        raises BackboneError naming its line, and duplicate keys are
        dropped and counted as ``add`` drops them.  The keys are released
        after the last block (see ``release_keys``).  Lines that are not a
        large file, or fail to load in shares (``_load_shares``), load here."""
        try:
            if (db := cls._load_shares(lines)) is not None:
                return db
        except (OSError, ValueError, BackboneError):  # the serial load names a share's fault
            pass
        db = cls._load(lines)
        db.release_keys()
        return db

    @classmethod
    def _load(cls, lines) -> "CentralDatabase":
        """The serial load of ``from_csv_lines``, its keys kept."""
        it = iter(lines)
        if next(it, "").strip().split(",") != CSV_COLUMNS:
            raise BackboneError("unexpected central-db CSV header")
        db = cls()
        columns = db._csv_columns()  # for the cells' types only
        lineno = 2  # of the chunk's first line
        while chunk := list(islice(it, CSV_BLOCK_ROWS)):
            parts = _parse_csv_block(chunk, columns, lineno)
            lineno += len(chunk)
            # the block's strings go before its key ints are made: made
            # among them, the ints fragment the heap and raise peak RSS
            del chunk
            if parts:
                db._extend(parts)
        return db

    @classmethod
    def _load_shares(cls, file) -> "CentralDatabase | None":
        """The database of a file opened as UTF-8 text and unread, in
        ``share_count`` byte shares (none unless it is regular) ending on a
        newline, each loaded by a forked child; None for one share, or if a
        share's lowest key of a (region, node) is not above the earlier
        shares' highest.  A child raises at a CR or calibrated columns."""
        if not isinstance(file, io.TextIOWrapper) or codecs.lookup(file.encoding).name != "utf-8":
            return None
        fd = file.fileno()
        size = os.fstat(fd).st_size
        if (shares := share_count(size // CSV_ROW_BYTES)) < 2 or file.tell():
            return None
        bounds = [at + os.pread(fd, 1 << 16, at).index(b"\n") + 1
                  for at in (size * k // shares for k in range(1, shares))]

        def load(span, out):  # in the child
            db = cls._load(chain([",".join(CSV_COLUMNS)] if span[0] else [],
                                 _text_lines(fd, *span)))
            if db.cal is not db.raw:
                raise BackboneError("a share with calibrated columns of its own")
            if db._exact is not None:  # the marks stood still once a key fell below one
                keys = sorted(db._exact)
                db._lowest, db._marks = {k >> 40: k for k in reversed(keys)}, {k >> 40: k for k in keys}
            pickle.dump((db._lowest, db._marks), out)
            db.dump(out)

        db, marks = cls(), {}
        with forked(list(zip([0] + bounds, bounds + [size])), load,
                    lambda span: f"loading central-db bytes {span[0]} to {span[1] - 1}",
                    BackboneError) as children:
            for _, part in children:
                lowest, highest = pickle.load(part)
                if any(k <= marks.get(nk, _BELOW_ANY_KEY) for nk, k in lowest.items()):
                    return None
                marks.update(highest)
                db.append_dump(part)
        return db

    def dump(self, file) -> None:
        """Write a run's or a loaded share's records to a binary file: the
        row count and duplicate counts pickled, then each column's items."""
        pickle.dump((len(self), self.duplicates_by_region), file)
        for col in self._stored_columns():
            if type(col) is list:  # a block at a time, as append_dump reads it
                for first in range(0, len(self), _DUMP_BLOCK_ITEMS):
                    pickle.dump(col[first:first + _DUMP_BLOCK_ITEMS], file)
            else:
                col.tofile(file)

    def append_dump(self, file) -> None:
        """Append what ``dump`` wrote of a database (other regions, or a
        later share of the file) none of whose keys is stored here, a block
        of each column at a time; releases the keys (see ``release_keys``)."""
        self.release_keys()
        n, duplicates = pickle.load(file)
        for col in self._stored_columns():
            for first in range(0, n, _DUMP_BLOCK_ITEMS):
                if type(col) is list:
                    col.extend(pickle.load(file))
                else:
                    col.fromfile(file, min(_DUMP_BLOCK_ITEMS, n - first))
        for region, count in duplicates.items():
            self.duplicates_by_region[region] = self.duplicates_by_region.get(region, 0) + count

    def _extend(self, parts: list) -> None:
        """Append one parsed block, keeping the first row of each key and
        counting the rest as ``add`` counts a duplicate."""
        n_fields = len(SENSOR_FIELDS)
        if self.cal is self.raw:
            if any(parts[k] is not parts[k - n_fields] for k in range(-n_fields, 0)):
                self.cal = {f: self.raw[f][:] for f in SENSOR_FIELDS}  # calibrated otherwise
            else:
                parts = parts[:-n_fields]
        region = parts[0]
        keys = [(r << 54) | (n << 40) | t for r, n, t in zip(region, parts[1], parts[2])]
        ordered = sorted(keys)
        lowest = {k >> 40: k for k in reversed(ordered)}
        self._lowest = lowest | self._lowest
        marks = self._marks
        if (marks is not None and self._exact is None and len(set(ordered)) == len(ordered)
                and all(k > marks.get(nk, _BELOW_ANY_KEY) for nk, k in lowest.items())):
            marks.update({k >> 40: k for k in ordered})
        else:
            # some key is not above its mark: row by row, as add() would see them
            keep: list[bool] = []
            dups = self.duplicates_by_region
            for r, k in zip(region, keys):
                keep.append(self._admit(k, compress(keys, keep)))  # pending: kept so far
                if not keep[-1]:
                    dups[r] = dups.get(r, 0) + 1
            parts = [list(compress(p, keep)) if type(p) is list
                     else array(p.typecode, compress(p, keep)) for p in parts]
        for col, part in zip(self._stored_columns(), parts):
            col.extend(part)


def _text_lines(fd: int, start: int, stop: int):
    """The lines of bytes [start, stop) of the file fd, read up to a MiB at
    a time with ``os.pread`` (forked children share the file offset).
    Raises at a CR, which text reads as a newline, at the file's end and
    at a line over a MiB long."""
    while start < stop:
        data = os.pread(fd, min(1 << 20, stop - start), start)
        if start + len(data) < stop:
            data = data[:data.rindex(b"\n") + 1]  # whole lines; ValueError if none
        if b"\r" in data:
            raise BackboneError(f"a CR in bytes {start} to {start + len(data) - 1}")
        start += len(data)
        yield from data.decode().split("\n")


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
    """Central processing unit: stores one region's messages centrally."""

    def __init__(self, central: CentralDatabase, region_id: int,
                 node_locations: dict[int, GeoPoint]):
        self.central = central
        self.region_id = region_id
        self.node_locations = node_locations

    def __str__(self) -> str:
        return "RemoteBaseStation:0"

    def handle(self, ev):
        ev.fire(ev)  # every event here is one of the uplink's transport events

    def receive_entry(self, entry: list) -> None:
        """Store the message of a local-store entry sent on an uplink."""
        msg = entry[0]
        self.central.add(self.region_id, self.node_locations[msg.origin_index], msg)


class LocalBaseStation:
    """Tier-2 collector for one sub-network.

    Bounded local database (forward-then-evict-oldest, never evicting a
    record the central database has not acknowledged) and a reliable
    uplink to the remote base station, set up from the run's
    ``ScenarioConfig``.
    """

    def __init__(self, kernel: Kernel, cfg, region_id: int, remote: RemoteBaseStation):
        self.region_id = region_id
        self.capacity = cfg.local_db_capacity
        self.local_db: deque[list] = deque()  # [message, acked], oldest first
        self.uplink = TransportLink(
            kernel,
            self,
            remote,
            remote.receive_entry,
            stream(cfg.seed, f"uplink:{region_id}"),
            cfg.backbone,
            on_acked=self._on_uplink_ack,
        )
        self.ingested = 0
        self.evicted = 0

    def __str__(self) -> str:
        return f"LocalBaseStation:{self.region_id}"

    def handle(self, ev):
        ev.fire(ev)  # every event here is one of the uplink's transport events

    # -- ingestion ------------------------------------------------------------

    def ingest(self, msg: DataMessage) -> None:
        """Store the sink's message locally and forward it on the reliable
        uplink; centrally its raw reading is stored as the calibrated one."""
        self.ingested += 1
        entry = [msg, False]
        local_db = self.local_db
        if len(local_db) >= self.capacity:
            self._evict_acked()
        local_db.append(entry)
        # the entry itself travels, so its ack marks it and no other copy
        # of the same reading (combined mode stores two)
        self.uplink.send(entry)

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
