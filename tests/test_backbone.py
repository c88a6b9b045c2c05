import io
import math
import os
import random
import tempfile
import threading
from dataclasses import replace
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtnet import backbone

from droughtnet.backbone import (
    CSV_BLOCK_ROWS,
    CSV_COLUMNS,
    MAX_TIMESTAMP_S,
    BackboneError,
    CentralDatabase,
    LocalBaseStation,
    RemoteBaseStation,
)
from droughtnet.config import BackboneParams, ScenarioConfig, validate
from droughtnet.environment import SENSOR_FIELDS, SensorReading
from droughtnet.geometry import GeoPoint
from droughtnet.kernel import Kernel
from droughtnet.runner import build_scenario, simulate
from droughtnet.stack import DataMessage, report_signature

from helpers import (
    ReferenceDatabase,
    Unpicklable,
    column_bytes,
    csv_lines,
    reference_from_csv_lines,
    reference_to_csv_lines,
    rows_of,
)


def make_reading(t=0, temp=20.0, precip=0.5):
    return SensorReading(
        timestamp=t,
        temperature_c=temp,
        precipitation_mm=precip,
        humidity_pct=60.0,
        pressure_hpa=1013.25,
        wind_speed_ms=3.1,
        wind_dir_deg=45.2,
        groundwater_m=10.003,
    )


def make_msg(node_id=1, t=0, temp=20.0, battery=12345.6, route=(0,)):
    reading = make_reading(t=t, temp=temp)
    return DataMessage(
        signature=report_signature(node_id, t),
        origin_index=node_id,
        reading=reading,
        battery_mj=battery,
        frames_dropped=0,
        route=route,
    )


def make_station(capacity=10_000, **uplink):
    k = Kernel()
    rbs = RemoteBaseStation(CentralDatabase(), 1, {i: GeoPoint(float(i), 0.0) for i in range(10)})
    cfg = replace(ScenarioConfig(), seed=3, local_db_capacity=capacity,
                  backbone=BackboneParams(**uplink))
    lbs = LocalBaseStation(k, cfg, 1, rbs)
    return k, lbs, rbs


# -- calibration ---------------------------------------------------------------


def test_identity_calibration_stores_raw_values():
    k, lbs, rbs = make_station()
    lbs.ingest(make_msg())
    db = rbs.central
    assert db.cal is db.raw
    lines = csv_lines(db)
    cells = lines[1].split(",")
    assert cells[15:] == cells[8:15] == [repr(getattr(make_reading(), f)) for f in SENSOR_FIELDS]
    # a file whose calibrated cells equal its raw ones loads aliased too
    again = CentralDatabase.from_csv_lines(lines)
    assert again.cal is again.raw
    assert csv_lines(again) == lines


# -- central keying --------------------------------------------------------------


def test_duplicate_key_dropped_with_counter():
    k, lbs, rbs = make_station()
    lbs.ingest(make_msg(t=1800))
    lbs.ingest(make_msg(t=1800))
    assert len(rbs.central) == 1
    assert sum(rbs.central.duplicates_by_region.values()) == 1
    assert rbs.central.duplicates_by_region == {1: 1}


def receive_from(db, other):
    """``db.append_dump`` what ``other.dump`` wrote to a file."""
    with tempfile.TemporaryFile() as file:
        other.dump(file)
        file.write(b"after the dump")
        file.seek(0)
        db.append_dump(file)
        assert file.read() == b"after the dump"  # the dump is read to its end and no further


def test_add_after_key_release_raises():
    """A database records one run or holds one loaded file: once its keys
    are released, by release_keys, by append_dump or by the load, it takes
    no add."""
    k, lbs, rbs = make_station()
    for t in (0, 1800):
        lbs.ingest(make_msg(t=t))
    db = rbs.central
    lines = csv_lines(db)
    db.release_keys()
    with pytest.raises(BackboneError, match="keys are released"):
        lbs.ingest(make_msg(t=3600))
    received = CentralDatabase()
    receive_from(received, CentralDatabase())
    loaded = CentralDatabase.from_csv_lines(lines)
    for released in (db, received, loaded):
        with pytest.raises(BackboneError, match="keys are released"):
            released.add(1, GeoPoint(0.0, 0.0), make_msg(t=5400))
    assert (len(db), len(received), len(loaded)) == (2, 0, 2)
    assert csv_lines(db) == csv_lines(loaded) == lines


def test_records_accumulate_per_region():
    k, lbs, rbs = make_station()
    for t in (0, 1800, 3600):
        lbs.ingest(make_msg(t=t))
    assert rbs.central.region_counts() == {1: 3}
    assert list(rbs.central.ts) == [0, 1800, 3600]


# -- bounded local storage -------------------------------------------------------------


def test_local_db_forwards_then_evicts_oldest_acked():
    k, lbs, rbs = make_station(capacity=3)
    for t in range(5):
        lbs.ingest(make_msg(t=t * 1800))
    assert len(lbs.local_db) == 3
    assert lbs.evicted == 2
    kept = [entry[0].reading.timestamp for entry in lbs.local_db]
    assert kept == [2 * 1800, 3 * 1800, 4 * 1800]
    # everything evicted had been acknowledged centrally first
    assert len(rbs.central) == 5


def test_local_db_evicts_first_acked_behind_unacked_head():
    # with a 1 s uplink latency acks trail the sends; this stream loses
    # the first transmission (draw 0.11 < 0.15) and delivers the second,
    # so the oldest record is still unacked when the younger one is acked
    k, lbs, rbs = make_station(capacity=2, loss_prob=0.15, latency_s=1)
    lbs.ingest(make_msg(t=0))
    lbs.ingest(make_msg(t=1800))
    k.run_until(3)  # second ack lands at 2 s, first retransmit is due at 4 s
    assert [entry[1] for entry in lbs.local_db] == [False, True]
    lbs.ingest(make_msg(t=3600))
    assert [entry[0].reading.timestamp for entry in lbs.local_db] == [0, 3600]
    assert lbs.evicted == 1
    k.run_until(100)
    assert len(rbs.central) == 3
    assert all(entry[1] for entry in lbs.local_db)


def test_local_db_never_evicts_unacked():
    k, lbs, rbs = make_station(capacity=2, latency_s=1)
    for t in range(4):
        lbs.ingest(make_msg(t=t * 1800))
    # no ack has landed yet, so the store grows rather than drop data
    assert len(lbs.local_db) == 4
    assert lbs.evicted == 0


# -- csv round trip -----------------------------------------------------------------------


def test_central_csv_round_trip_bit_exact():
    k, lbs, rbs = make_station()
    for node in (1, 2):
        for t in (0, 1800):
            lbs.ingest(make_msg(node_id=node, t=t, temp=20.0 + node / 3.0))
    lines = csv_lines(rbs.central)
    again = CentralDatabase.from_csv_lines(lines)
    assert len(again) == len(rbs.central)
    assert again.cal["temperature_c"] == rbs.central.cal["temperature_c"]
    assert again.raw["pressure_hpa"] == rbs.central.raw["pressure_hpa"]
    assert again.battery == rbs.central.battery
    assert again.routes == rbs.central.routes
    assert csv_lines(again) == lines


SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf)


def special_lines(rows, seed=5, first_calibrated=0):
    """CSV lines of ``rows`` records mixing repeated and distinct values,
    signed zeros, nan and infinities.  From row ``first_calibrated`` on,
    the calibrated temperature and pressure differ from the raw ones."""
    rng = random.Random(seed)
    positions = [rng.uniform(0.0, 100.0) for _ in range(6)] + list(SPECIAL)
    records = []
    for i in range(rows):
        def value(field_index):
            if rng.random() < 0.05:
                return rng.choice(SPECIAL)
            if field_index % 2:
                return round(rng.uniform(-50.0, 50.0), 1)  # quantized, as sampled
            return rng.uniform(-1e6, 1e6)  # full precision
        raw = [value(f) for f in range(len(SENSOR_FIELDS))]
        cal = list(raw)
        if i >= first_calibrated:
            cal[0] = 1.02 * raw[0] - 0.5  # temperature_c
            cal[3] = raw[3] + 0.25  # pressure_hpa
        battery = rng.choice((rng.uniform(0.0, 2e7), -0.0, math.inf))
        dropped = rng.randrange(5)
        x, y = rng.choice(positions), rng.choice(positions)
        route = "-".join(str(rng.randrange(9)) for _ in range(rng.randrange(1, 4)))
        records.append((1 + i % 5, i % 40, 1800 * (i // 40), x, y, route, battery, dropped,
                        *raw, *cal))
    return list(reference_to_csv_lines(records))


def test_block_codec_matches_row_wise_reference():
    rows = 3 * CSV_BLOCK_ROWS + 123
    text = special_lines(rows)
    db = CentralDatabase.from_csv_lines(text)
    assert len(db) == rows
    lines = csv_lines(db)
    assert lines == text
    assert lines == list(reference_to_csv_lines(rows_of(db)))
    assert column_bytes(db._csv_columns()) == column_bytes(
        reference_from_csv_lines(text).columns())
    # blank lines, mixed line endings, a duplicate inside the first block,
    # one of an earlier block's row, one of a later block's row and one
    # straddling a block boundary
    body = [line + "\n" if i % 3 else line for i, line in enumerate(lines[1:])]
    body.insert(7, "\n")
    body.insert(11, body[4])
    body.insert(CSV_BLOCK_ROWS + 40, body[30])
    body.insert(CSV_BLOCK_ROWS - 1, "")
    body.insert(CSV_BLOCK_ROWS, body[CSV_BLOCK_ROWS + 2])
    body.insert(2 * CSV_BLOCK_ROWS + 5, body[2 * CSV_BLOCK_ROWS + 4])
    text = [lines[0]] + body
    again = CentralDatabase.from_csv_lines(text)
    ref = reference_from_csv_lines(text)
    assert column_bytes(again._csv_columns()) == column_bytes(ref.columns())
    assert again._exact is None  # released after the last block
    keys = set(map(CentralDatabase._key, again.region, again.node, again.ts))
    assert keys == ref.keys == set(map(CentralDatabase._key, db.region, db.node, db.ts))
    assert list(again.duplicates_by_region.items()) == list(ref.duplicates_by_region.items())
    assert sum(again.duplicates_by_region.values()) == 4
    assert csv_lines(again) == list(reference_to_csv_lines(ref.rows))


def test_cal_column_equal_by_value_keeps_its_own_text():
    # raw -0.0 and calibrated 0.0 compare equal but print differently
    reading = make_reading(precip=-0.0)
    raw = [getattr(reading, f) for f in SENSOR_FIELDS]
    cal = [0.0 if f == "precipitation_mm" else v for f, v in zip(SENSOR_FIELDS, raw)]
    text = list(reference_to_csv_lines(
        (1, 1, t, 0.0, 0.0, "0", 1.0, 0, *raw, *cal) for t in (0, 1800)))
    db = CentralDatabase.from_csv_lines(text)
    assert db.cal is not db.raw
    lines = csv_lines(db)
    assert lines == text == list(reference_to_csv_lines(rows_of(db)))
    assert lines[1].split(",")[9] == "-0.0" and lines[1].split(",")[16] == "0.0"


def signed_zero_rows():
    """Rows in CSV_COLUMNS order, three blocks and a partial one, whose
    columns the export formats through its per-column caches: 0.0 and
    -0.0 in one block in both orders (temperature), in alternate blocks
    (precipitation, x), repeated nan and infinities (humidity) and a
    repeated full-precision value (pressure).  The int columns hold their
    extremes: regions -128 and 127 alternating row by row in even blocks
    and block by block in odd ones, node 16383 in place of node 0,
    timestamps up to MAX_TIMESTAMP_S - 1 and frames_dropped up to the
    largest signed 64-bit int."""
    full = 0.1 + 0.2
    count = 3 * CSV_BLOCK_ROWS + 77
    rows = []
    for i in range(count):
        block = i // CSV_BLOCK_ROWS
        alternate = -0.0 if block % 2 else 0.0
        sign = -1 if block % 2 else 1  # block 0 starts with 0.0, block 1 with -0.0
        raw = [
            0.0 * sign * (-1) ** i,
            alternate,
            (math.nan, math.inf, -math.inf, 55.5)[i % 4],
            full if i % 3 else 1013.25,
            float(i % 7),
            -0.0 if i % 5 == 0 else 180.0,
            10.0 + full,
        ]
        region = (-128, 127)[(block // 2 if block % 2 else i) % 2]
        ts = MAX_TIMESTAMP_S - 1 - 1800 * ((count - 1) // 40 - i // 40)
        rows.append((region, i % 40 or 16383, ts, alternate, full, "0-1",
                     -0.0 if i % 9 else 7e6, (0, 1, (1 << 63) - 1)[i % 3], *raw, *raw))
    return rows


@pytest.mark.parametrize("own", [False, True], ids=["aliased", "own"])
def test_repr_caches_keep_every_cell_exact(own):
    rows = signed_zero_rows()
    if own:  # calibrated cells with the zeros' signs flipped
        n = len(SENSOR_FIELDS)
        rows = [row[:-n] + tuple(-v for v in row[-n:]) for row in rows]
    db = CentralDatabase.from_csv_lines(reference_to_csv_lines(rows))
    assert (db.cal is not db.raw) == own
    lines = csv_lines(db)
    assert lines == list(reference_to_csv_lines(rows_of(db))) == list(reference_to_csv_lines(rows))
    assert csv_lines(db) == lines
    cells = [line.split(",") for line in lines[1:]]
    temperature = CSV_COLUMNS.index("raw_temperature_c")
    assert [c[temperature] for c in cells[:4]] == ["0.0", "-0.0", "0.0", "-0.0"]
    first = CSV_BLOCK_ROWS
    assert [c[temperature] for c in cells[first:first + 4]] == ["-0.0", "0.0", "-0.0", "0.0"]
    assert {c[3] for c in cells[:first]} == {"0.0"}
    assert {c[3] for c in cells[first:2 * first]} == {"-0.0"}
    humidity = CSV_COLUMNS.index("raw_humidity_pct")
    assert [c[humidity] for c in cells[:8]] == ["nan", "inf", "-inf", "55.5"] * 2
    assert {c[4] for c in cells} == {"0.30000000000000004"}
    assert [c[0] for c in cells[:3]] == ["-128", "127", "-128"]
    assert [{c[0] for c in cells[k * first:(k + 1) * first]} for k in (1, 3)] == [{"-128"}, {"127"}]
    assert [c[1] for c in cells[39:42]] == ["39", "16383", "1"]
    assert cells[-1][2] == str(MAX_TIMESTAMP_S - 1)
    assert [c[7] for c in cells[:4]] == ["0", "1", str((1 << 63) - 1), "0"]


def test_calibration_first_differing_in_third_block():
    first = 2 * CSV_BLOCK_ROWS + 5
    text = special_lines(3 * CSV_BLOCK_ROWS + 10, first_calibrated=first)
    db = CentralDatabase.from_csv_lines(text)
    assert db.cal is not db.raw
    for f in SENSOR_FIELDS:
        assert db.cal[f][:first].tobytes() == db.raw[f][:first].tobytes()
    assert db.cal["temperature_c"][first:] != db.raw["temperature_c"][first:]
    assert csv_lines(db) == text
    assert column_bytes(db._csv_columns()) == column_bytes(
        reference_from_csv_lines(text).columns())
    # a loaded file takes no add, so no record is calibrated otherwise
    with pytest.raises(BackboneError, match="keys are released"):
        db.add(1, GeoPoint(0.0, 0.0), make_msg(node_id=3, t=1 << 30))
    assert len(db.cal["temperature_c"]) == len(db) == 3 * CSV_BLOCK_ROWS + 10


def test_dump_keeps_the_aliased_calibration():
    """A run's database dumps its raw columns once, and the one that
    appends them stores them after its own, its calibration still its
    raw columns."""
    text = special_lines(40, first_calibrated=40)
    other = special_lines(60, seed=6, first_calibrated=60)
    other = [other[0]] + ["9" + line[line.index(","):] for line in other[1:]]  # region 9
    here, sent = CentralDatabase.from_csv_lines(text), CentralDatabase.from_csv_lines(other)
    assert here.cal is here.raw and sent.cal is sent.raw
    receive_from(here, sent)
    assert csv_lines(here) == text + other[1:]
    assert here.cal is here.raw


@pytest.mark.parametrize("cut", [+1, -1], ids=["23-fields", "21-fields"])
def test_csv_row_with_wrong_field_count_rejected(cut):
    lines = special_lines(5)
    lines[3] = lines[3] + ",7" if cut > 0 else lines[3].rsplit(",", 1)[0]
    with pytest.raises(BackboneError, match=f"line 4: {22 + cut} fields, expected 22"):
        CentralDatabase.from_csv_lines(lines)


def test_csv_bad_cell_names_its_line():
    lines = special_lines(5)
    cells = lines[5].split(",")
    cells[10] = "wet"
    lines[5] = ",".join(cells)
    with pytest.raises(BackboneError, match="line 6: bad raw_humidity_pct value 'wet'"):
        CentralDatabase.from_csv_lines(lines)
    cells[10], cells[0] = "1.0", "300"  # beyond the signed-byte region column
    lines[5] = ",".join(cells)
    with pytest.raises(BackboneError, match="line 6: bad region_id value '300'"):
        CentralDatabase.from_csv_lines(lines)
    # node ids and timestamps that fit their columns but not their key bits
    cells[0] = "1"
    for column, value in ((1, 16384), (1, 32767), (1, -1), (2, -1), (2, 1 << 40)):
        bad = cells.copy()
        bad[column] = str(value)
        lines[5] = ",".join(bad)
        with pytest.raises(BackboneError,
                           match=f"line 6: bad {CSV_COLUMNS[column]} value '{value}'"):
            CentralDatabase.from_csv_lines(lines)
    for column, value in ((1, 16383), (2, (1 << 40) - 1)):
        good = cells.copy()
        good[column] = str(value)
        lines[5] = ",".join(good)
        assert len(CentralDatabase.from_csv_lines(lines)) == 5


# -- the export split over processes --------------------------------------------

SHARE_ROWS = 500  # small enough that the test databases fork


@pytest.fixture
def small_shares(share_rows):
    share_rows(SHARE_ROWS)


def split_case(kind):
    """A database of over 3 * SHARE_ROWS rows: a run's, or one loaded with
    its calibration aliased, with its own, or with signed zeros."""
    if kind == "run":
        scn = build_scenario(validate(replace(ScenarioConfig(), horizon_s=2 * 86_400)))
        simulate(scn)
        return scn.central
    if kind == "signed-zeros":
        return CentralDatabase.from_csv_lines(reference_to_csv_lines(signed_zero_rows()))
    rows = 3 * SHARE_ROWS + 123
    return CentralDatabase.from_csv_lines(
        special_lines(rows, first_calibrated=rows if kind == "aliased" else 700))


@pytest.mark.parametrize("kind", ["run", "aliased", "own-calibration", "signed-zeros"])
def test_split_export_equals_one_process(tmp_path, cpus, started, small_shares, opened, kind):
    db = split_case(kind)
    del opened[:]  # a run's simulate writes through files too
    assert (db.cal is not db.raw) == (kind == "own-calibration")
    cpus(1)
    one = csv_lines(db)
    assert len(one) == len(db) + 1
    again = CentralDatabase.from_csv_lines(one)
    assert column_bytes(again._csv_columns()) == column_bytes(db._csv_columns())
    assert csv_lines(again) == one
    assert one == list(reference_to_csv_lines(rows_of(db)))
    for n in (1, 2, 3):
        cpus(n)
        del started[:]
        assert csv_lines(db) == one
        assert len(started) == (n if n > 1 else 0)  # one child per share
        with open(tmp_path / "central_db.csv", "wb") as fh:  # as write_exports writes it
            fh.writelines(db.to_csv_lines())
        assert (tmp_path / "central_db.csv").read_text(encoding="utf-8") == "\n".join(one) + "\n"
    # one file per child: two exports on 2 CPUs and two on 3
    assert len(opened) == 2 * 2 + 2 * 3 and all(f.closed for f in opened)


@pytest.mark.parametrize("kind", ["aliased", "own-calibration"])
def test_writer_formats_nothing_when_the_export_forks(cpus, small_shares, monkeypatch, kind):
    """The writing process's heap is at the run's peak, so when children
    format the shares it builds no format cache; alone it builds one per
    cached column: each array column but the battery."""
    db = split_case(kind)
    made = []
    cache = backbone._ReprCache
    monkeypatch.setattr(backbone, "_ReprCache", lambda: made.append(None) or cache())
    cpus(1)
    one = csv_lines(db)
    cached = len(CSV_COLUMNS) - 2 - (len(SENSOR_FIELDS) if kind == "aliased" else 0)
    assert len(made) == cached
    for n in (2, 3):
        cpus(n)
        del made[:]
        assert csv_lines(db) == one
        assert made == []


def test_failing_share_names_its_rows(cpus, small_shares, opened, monkeypatch):
    db = CentralDatabase.from_csv_lines(special_lines(2 * SHARE_ROWS))
    cpus(2)
    format_share = CentralDatabase._format_share

    def second_fails(self, rows, file):
        if rows[0]:
            raise OSError("no space left")
        format_share(self, rows, file)

    monkeypatch.setattr(CentralDatabase, "_format_share", second_fails)
    with pytest.raises(OSError, match="^no space left$") as raised:
        csv_lines(db)
    assert isinstance(raised.value.__cause__, BackboneError)
    assert "formatting central-db rows 500 to 999:" in str(raised.value.__cause__)
    assert "no space left" in str(raised.value.__cause__)  # the child's traceback
    assert len(opened) == 2 and all(f.closed for f in opened)


def test_unpicklable_raise_in_a_share_names_its_type(cpus, small_shares, opened, monkeypatch):
    db = CentralDatabase.from_csv_lines(special_lines(2 * SHARE_ROWS))
    cpus(2)

    def second_fails(self, rows, file):
        if rows[0]:
            raise Unpicklable("no space left")

    monkeypatch.setattr(CentralDatabase, "_format_share", second_fails)
    with pytest.raises(BackboneError, match="^Unpicklable: no space left$") as raised:
        csv_lines(db)
    assert "formatting central-db rows 500 to 999:" in str(raised.value.__cause__)
    assert len(opened) == 2 and all(f.closed for f in opened)


# the header; the first share's bytes; the second share's
@pytest.mark.parametrize("taken", [1, 2, 3], ids=["header", "first", "second"])
def test_export_stopped_early_leaves_no_child_or_file(cpus, small_shares, opened, started, taken):
    one = special_lines(3 * SHARE_ROWS)
    db = CentralDatabase.from_csv_lines(one)
    cpus(3)
    blocks = db.to_csv_lines()
    lines = b"".join(islice(blocks, taken)).decode().split("\n")
    assert lines == one[:1 + (taken - 1) * SHARE_ROWS] + [""]
    blocks.close()
    assert len(started) == 3 and all(child.exitcode is not None for child in started)
    assert len(opened) == 3 and all(f.closed for f in opened)


# -- duplicate check against a plain key set ---------------------------------------

# few regions, nodes and timestamps, so that keys repeat and fall below
# their node's high-water mark; the regions span the signed byte
KEY = st.tuples(st.sampled_from((-128, -1, 0, 1, 127)), st.sampled_from((0, 1, 16383)),
                st.integers(0, 5))
KEYS = st.lists(KEY, max_size=30)


def key_row(i, region, node, ts):
    """A row in CSV_COLUMNS order whose battery tells the occurrence i apart."""
    values = [float(ts + region)] * len(SENSOR_FIELDS)
    return (region, node, ts, 0.0, 1.0, "0", float(i), 0, *values, *values)


def below_mark(ref, row):
    """Whether the row's key lies below its node's highest stored key."""
    keys = [CentralDatabase._key(*r[:3]) for r in ref.rows if r[:2] == row[:2]]
    return bool(keys) and CentralDatabase._key(*row[:3]) < max(keys)


def add_rows(db, ref, rows):
    """Add each row to the database and the reference; whether any key
    fell below its node's mark."""
    fell = False
    for row in rows:
        fell |= below_mark(ref, row)
        region, node, ts, x, y, route, battery, dropped = row[:8]
        msg = DataMessage(report_signature(node, ts), node, SensorReading(ts, *row[8:15]),
                          battery_mj=battery, frames_dropped=dropped,
                          route=tuple(map(int, route.split("-"))))
        stored = db.add(region, GeoPoint(x, y), msg)
        assert stored == ref.add(row)
    return fell


def assert_same(db, ref):
    assert rows_of(db) == ref.rows
    assert db.duplicates_by_region == ref.duplicates_by_region
    assert db.cal is db.raw


@settings(max_examples=150, deadline=None)
@given(keys=KEYS, more=KEYS, sent=KEYS)
def test_duplicate_check_matches_a_key_set(keys, more, sent):
    rows = [key_row(i, *k) for i, k in enumerate(keys + more)]
    # through add
    db, ref = CentralDatabase(), ReferenceDatabase()
    fell = add_rows(db, ref, rows)
    assert_same(db, ref)
    assert (db._exact is not None) == fell
    # through add, then receiving another run's database of region 9
    db, ref = CentralDatabase(), ReferenceDatabase()
    add_rows(db, ref, rows)
    other = CentralDatabase()
    add_rows(other, ref, [key_row(100 + i, 9, n, t) for i, (_, n, t) in enumerate(sent)])
    receive_from(db, other)
    assert_same(db, ref)
    # through the CSV reader, in blocks of three rows
    ref, fell = ReferenceDatabase(), False
    for row in rows:
        fell |= below_mark(ref, row)
        ref.add(row)
    exact_at_release = []
    release = CentralDatabase.release_keys

    def spy(self):
        exact_at_release.append(self._exact is not None)
        release(self)

    with (mock.patch.object(backbone, "CSV_BLOCK_ROWS", 3),
          mock.patch.object(CentralDatabase, "release_keys", spy)):
        db = CentralDatabase.from_csv_lines(reference_to_csv_lines(rows))
    assert_same(db, ref)
    # a block whose keys all lie above their marks is taken whole, in any
    # row order, so here a key below its mark need not build the set
    assert exact_at_release in ([False], [fell])


# -- the load split over processes -----------------------------------------------


@pytest.fixture
def appended(monkeypatch):
    """How many dumped shares this process appended: one per share of a
    load that forked and kept its shares."""
    calls = []
    append_dump = CentralDatabase.append_dump
    monkeypatch.setattr(CentralDatabase, "append_dump",
                        lambda self, file: (calls.append(file), append_dump(self, file))[1])
    return calls


def uncalibrated_lines(rows=3 * SHARE_ROWS + 123):
    return special_lines(rows, first_calibrated=rows)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return CentralDatabase.from_csv_lines(fh)


def assert_loads_as_serial(path, cpus, started, appended, in_shares):
    """The file loads equal to the row-wise reference on 1, 2 and 3 CPUs,
    forking one child per share, and keeps all its shares iff ``in_shares``."""
    with open(path, encoding="utf-8") as fh:
        ref = reference_from_csv_lines(list(fh))  # text mode: a lone CR is a line break
    n_fields = len(SENSOR_FIELDS)
    columns = column_bytes(ref.columns())
    own_calibration = columns[-2 * n_fields:-n_fields] != columns[-n_fields:]
    for n in (1, 2, 3):
        cpus(n)
        del started[:], appended[:]
        db = load(path)
        assert column_bytes(db._csv_columns()) == columns, n
        assert list(db.duplicates_by_region.items()) == list(ref.duplicates_by_region.items())
        assert (db.cal is not db.raw) == own_calibration
        assert db._marks is None  # released
        assert len(started) == (n if n > 1 else 0)
        # each share appended iff all kept; a share that did not keep may have stopped the rest
        assert (len(appended) == n) == (n > 1 and in_shares)


def write_lines(path, lines, end="\n"):
    path.write_bytes("".join(line + end for line in lines).encode())
    return path


@pytest.mark.parametrize("ending", ["\n", "\r\n", "lone-cr", "blank"])
def test_split_load_line_endings_equal_serial(tmp_path, cpus, started, appended, small_shares,
                                              ending):
    lines = uncalibrated_lines()
    path = tmp_path / "db.csv"
    if ending == "lone-cr":  # one line break of the second half is a CR alone
        text = "\n".join(lines) + "\n"
        middle = text.index("\n", len(text) // 2 + 7)
        path.write_bytes((text[:middle] + "\r" + text[middle + 1:]).encode())
    elif ending == "blank":  # a blank line after every row: at every boundary
        write_lines(path, lines, "\n\n")
    else:
        write_lines(path, lines, ending)
    assert_loads_as_serial(path, cpus, started, appended, in_shares=ending in ("\n", "blank"))


def test_split_load_of_a_cr_in_a_route_raises_as_serial(tmp_path, cpus, small_shares):
    """Text reads a CR in a route cell as a line break, so the row's
    halves have too few fields; a byte share would read one route."""
    lines = uncalibrated_lines()
    cells = lines[-3].split(",")
    cells[5] += "\r1"
    lines[-3] = ",".join(cells)
    path = write_lines(tmp_path / "db.csv", lines)
    for n in (1, 2, 3):
        cpus(n)
        with pytest.raises(BackboneError, match=f"line {len(lines) - 2}: 6 fields, expected 22"):
            load(path)


def test_split_load_reads_a_share_a_mib_at_a_time(tmp_path, cpus, started, appended,
                                                  small_shares):
    """Shares of over a MiB are read in several whole-line pieces; a line
    of over a MiB, whose piece holds no line end, loads serially."""
    lines = uncalibrated_lines(15_000)
    path = write_lines(tmp_path / "db.csv", lines)
    assert path.stat().st_size > 3 << 20  # over a MiB a share on 3 CPUs
    assert_loads_as_serial(path, cpus, started, appended, in_shares=True)
    cells = lines[-2].split(",")
    cells[5] = "1-" * (1 << 20)
    lines[-2] = ",".join(cells)
    path = write_lines(tmp_path / "long.csv", lines)
    cpus(2)
    del appended[:]
    assert rows_of(load(path))[-2][5] == cells[5] and len(appended) < 2


def cross_share_lines(kind):
    lines = uncalibrated_lines()
    if kind.startswith("repeats"):  # repeats next to the rows they repeat, within a share
        for i in (1200, 900, 600, 300, 40):
            lines.insert(i, lines[i - 1])
    if kind == "repeats-across":  # and a key of the first share in the last
        lines.append(lines[5])
    elif kind == "out-of-order":  # a node's first and last rows swap places
        first, last = 1, max(i for i, line in enumerate(lines) if line.startswith("2,1,"))
        lines[first], lines[last] = lines[last], lines[first]
    elif kind == "calibrated":
        lines = special_lines(3 * SHARE_ROWS + 123, first_calibrated=700)
    return lines


@pytest.mark.parametrize("kind", ["repeats-within", "repeats-across", "out-of-order", "calibrated"])
def test_split_load_cross_share_keys_equal_serial(tmp_path, cpus, started, appended, small_shares,
                                                  kind):
    path = write_lines(tmp_path / "db.csv", cross_share_lines(kind))
    assert_loads_as_serial(path, cpus, started, appended, in_shares=kind == "repeats-within")
    cpus(1)
    repeats = {"repeats-within": 5, "repeats-across": 6}.get(kind, 0)
    assert sum(load(path).duplicates_by_region.values()) == repeats


def share_starts(lines, shares):
    """The index in ``lines`` of the first line of each share but the
    first when a file of the lines loads in ``shares`` byte shares."""
    text = "".join(line + "\n" for line in lines)
    return [text.count("\n", 0, len(text) * k // shares) + 1 for k in range(1, shares)]


@pytest.mark.parametrize("kind", ["fell", "fell-then-repeated", "repeated-at-share-starts"])
def test_split_load_extremes_of_a_share_equal_serial(tmp_path, cpus, started, appended,
                                                     small_shares, monkeypatch, kind):
    """A share takes each (region, node)'s lowest key from the first of
    its blocks that holds the node and its highest from the node's mark,
    or both from the full key set once a key fell below its mark.  Blocks
    of 100 rows give each share several; row i of the lines is node
    i % 40 at 1800 * (i // 40) s."""
    monkeypatch.setattr(backbone, "CSV_BLOCK_ROWS", 100)
    lines = uncalibrated_lines()
    if kind.startswith("fell"):  # node 0 at 9,000 s in the first block, at 0 s in the third
        lines[1], lines[201] = lines[201], lines[1]
    if kind == "fell-then-repeated":  # a later row of the first share, again at the end
        lines.append(lines[301])
    if kind == "repeated-at-share-starts":  # a node's last row before a share, again early in it
        for first in sorted(share_starts(lines, 2) + share_starts(lines, 3), reverse=True):
            lines.insert(first + 10, lines[first - 5])
    path = write_lines(tmp_path / "db.csv", lines)
    assert_loads_as_serial(path, cpus, started, appended, in_shares=kind == "fell")


def test_split_load_of_a_run_keeps_its_shares(tmp_path, cpus, started, appended, small_shares):
    db = split_case("run")
    (tmp_path / "central_db.csv").write_bytes(b"".join(db.to_csv_lines()))
    assert_loads_as_serial(tmp_path / "central_db.csv", cpus, started, appended, in_shares=True)
    assert column_bytes(load(tmp_path / "central_db.csv")._csv_columns()) == column_bytes(
        db._csv_columns())


def test_only_an_unread_regular_file_forks(tmp_path, cpus, started, small_shares):
    lines = uncalibrated_lines()
    path = write_lines(tmp_path / "db.csv", lines)
    serial = column_bytes(CentralDatabase.from_csv_lines(lines)._csv_columns())
    cpus(2)
    del started[:]
    assert column_bytes(CentralDatabase.from_csv_lines(lines)._csv_columns()) == serial
    text = path.read_text(encoding="utf-8")
    assert column_bytes(CentralDatabase.from_csv_lines(io.StringIO(text))._csv_columns()) == serial
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_text(text, encoding="utf-8"), daemon=True)
    writer.start()
    try:
        assert column_bytes(load(fifo)._csv_columns()) == serial
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # not at its start: the next line is taken as the header
        with pytest.raises(BackboneError, match="unexpected central-db CSV header"):
            CentralDatabase.from_csv_lines(fh)
    with open(path, encoding="latin-1") as fh:  # decoded otherwise than the shares would be
        assert column_bytes(CentralDatabase.from_csv_lines(fh)._csv_columns()) == serial
    cpus(1)
    assert column_bytes(load(path)._csv_columns()) == serial
    assert started == []


@pytest.mark.parametrize("raised", [OSError, KeyboardInterrupt])
def test_load_stopped_in_this_process_leaves_no_child_or_file(tmp_path, cpus, started, opened,
                                                              small_shares, monkeypatch, raised):
    """An exception in this process while it appends the shares stops
    every child and closes every file; after an OSError the file loads
    serially."""
    lines = uncalibrated_lines()
    path = write_lines(tmp_path / "db.csv", lines)
    serial = column_bytes(CentralDatabase.from_csv_lines(lines)._csv_columns())

    def fails(self, file):
        raise raised("stopped")

    monkeypatch.setattr(CentralDatabase, "append_dump", fails)
    cpus(3)
    if raised is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            load(path)
    else:
        assert column_bytes(load(path)._csv_columns()) == serial
    assert len(started) == 3 and all(child.exitcode is not None for child in started)
    assert len(opened) == 3 and all(f.closed for f in opened)
