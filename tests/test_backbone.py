import math
import random
from dataclasses import replace

import pytest

from droughtnet.backbone import (
    CSV_BLOCK_ROWS,
    CSV_COLUMNS,
    BackboneError,
    CentralDatabase,
    LocalBaseStation,
    RemoteBaseStation,
    StoredRecord,
)
from droughtnet.environment import SENSOR_FIELDS, SensorReading
from droughtnet.geometry import GeoPoint
from droughtnet.kernel import Kernel
from droughtnet.stack import DataMessage, report_signature

from helpers import reference_from_csv_lines, reference_to_csv_lines


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
    k = Kernel(seed=3)
    rbs = RemoteBaseStation(k, CentralDatabase())
    lbs = LocalBaseStation(
        k, region_id=1, remote=rbs,
        node_locations={i: GeoPoint(float(i), 0.0) for i in range(10)},
        capacity=capacity, **uplink,
    )
    return k, lbs, rbs


# -- calibration ---------------------------------------------------------------


def test_identity_calibration_stores_raw_values():
    k, lbs, rbs = make_station()
    rec = lbs.ingest(make_msg())
    assert rec.calibrated is rec.raw


# -- central keying --------------------------------------------------------------


def test_duplicate_key_dropped_with_counter():
    k, lbs, rbs = make_station()
    lbs.ingest(make_msg(t=1800))
    lbs.ingest(make_msg(t=1800))
    assert len(rbs.central) == 1
    assert sum(rbs.central.duplicates_by_region.values()) == 1
    assert rbs.central.duplicates_by_region == {1: 1}


def test_add_after_key_release_still_rejects_duplicates():
    k, lbs, rbs = make_station()
    for t in (0, 1800):
        lbs.ingest(make_msg(t=t))
    db = rbs.central
    db.release_keys()
    assert db._keys is None
    lbs.ingest(make_msg(t=1800))
    assert (len(db), db.duplicates_by_region) == (2, {1: 1})
    lbs.ingest(make_msg(t=3600))
    assert len(db) == 3
    # a loaded database has released its keys after the last block
    loaded = CentralDatabase.from_csv_lines(list(db.to_csv_lines()))
    assert loaded._keys is None
    rbs.central = loaded
    lbs.ingest(make_msg(t=0))
    assert (len(loaded), loaded.duplicates_by_region) == (3, {1: 1})
    lbs.ingest(make_msg(t=5400))
    assert len(loaded) == 4


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
    kept = [entry[0].timestamp for entry in lbs.local_db]
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
    assert [entry[0].timestamp for entry in lbs.local_db] == [0, 3600]
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
    lines = list(rbs.central.to_csv_lines())
    again = CentralDatabase.from_csv_lines(lines)
    assert len(again) == len(rbs.central)
    assert again.cal["temperature_c"] == rbs.central.cal["temperature_c"]
    assert again.raw["pressure_hpa"] == rbs.central.raw["pressure_hpa"]
    assert again.battery == rbs.central.battery
    assert again.routes == rbs.central.routes
    assert list(again.to_csv_lines()) == lines


SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf)


def special_db(rows, seed=5):
    """Database of ``rows`` records mixing repeated and distinct values,
    signed zeros, nan and infinities, with calibrated temperature and
    pressure that differ from the raw ones."""
    rng = random.Random(seed)
    db = CentralDatabase()
    positions = [rng.uniform(0.0, 100.0) for _ in range(6)] + list(SPECIAL)
    for i in range(rows):
        def value(field_index):
            if rng.random() < 0.05:
                return rng.choice(SPECIAL)
            if field_index % 2:
                return round(rng.uniform(-50.0, 50.0), 1)  # quantized, as sampled
            return rng.uniform(-1e6, 1e6)  # full precision
        raw = SensorReading(1800 * (i // 40), *(value(f) for f in range(len(SENSOR_FIELDS))))
        db.add(StoredRecord(
            timestamp=raw.timestamp, node_id=i % 40, region_id=1 + i % 5,
            raw=raw, calibrated=replace(raw, temperature_c=1.02 * raw.temperature_c - 0.5,
                                        pressure_hpa=raw.pressure_hpa + 0.25),
            battery_mj_remaining=rng.choice((rng.uniform(0.0, 2e7), -0.0, math.inf)),
            frames_dropped=rng.randrange(5),
            location=GeoPoint(rng.choice(positions), rng.choice(positions)),
            route="-".join(str(rng.randrange(9)) for _ in range(rng.randrange(1, 4))),
        ))
    return db


def column_bytes(db):
    return [c if type(c) is list else c.tobytes() for c in db._csv_columns()]


def test_block_codec_matches_row_wise_reference():
    rows = 3 * CSV_BLOCK_ROWS + 123
    db = special_db(rows)
    assert len(db) == rows
    lines = list(db.to_csv_lines())
    assert lines == list(reference_to_csv_lines(db))
    assert column_bytes(CentralDatabase.from_csv_lines(lines)) == column_bytes(db)
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
    assert column_bytes(again) == column_bytes(ref)
    assert again._keys is None  # released after the last block
    assert again._known_keys() == ref._keys == db._keys
    assert list(again.duplicates_by_region.items()) == list(ref.duplicates_by_region.items())
    assert sum(again.duplicates_by_region.values()) == 4
    assert list(again.to_csv_lines()) == list(reference_to_csv_lines(ref))


def test_cal_column_equal_by_value_keeps_its_own_text():
    # raw -0.0 and calibrated 0.0 compare equal but print differently
    db = CentralDatabase()
    for t in (0, 1800):
        raw = make_reading(t=t, precip=-0.0)
        db.add(StoredRecord(t, 1, 1, raw, replace(raw, precipitation_mm=0.0),
                            1.0, 0, GeoPoint(0.0, 0.0), "0"))
    lines = list(db.to_csv_lines())
    assert lines == list(reference_to_csv_lines(db))
    assert lines[1].split(",")[9] == "-0.0" and lines[1].split(",")[16] == "0.0"


@pytest.mark.parametrize("cut", [+1, -1], ids=["23-fields", "21-fields"])
def test_csv_row_with_wrong_field_count_rejected(cut):
    lines = list(special_db(5).to_csv_lines())
    lines[3] = lines[3] + ",7" if cut > 0 else lines[3].rsplit(",", 1)[0]
    with pytest.raises(BackboneError, match=f"line 4: {22 + cut} fields, expected 22"):
        CentralDatabase.from_csv_lines(lines)


def test_csv_bad_cell_names_its_line():
    lines = list(special_db(5).to_csv_lines())
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
