import pytest

from droughtnet.backbone import (
    CalibrationMap,
    CentralDatabase,
    LocalBaseStation,
    RemoteBaseStation,
    backbone_link_budget,
)
from droughtnet.environment import SensorReading
from droughtnet.geometry import GeoPoint
from droughtnet.kernel import Kernel
from droughtnet.stack import DataMessage, report_signature


def make_reading(node_id=1, region=1, t=0, temp=20.0, precip=0.5):
    return SensorReading(
        node_id=node_id,
        region_id=region,
        timestamp=t,
        temperature_c=temp,
        precipitation_mm=precip,
        humidity_pct=60.0,
        pressure_hpa=1013.25,
        wind_speed_ms=3.1,
        wind_dir_deg=45.2,
        groundwater_m=10.003,
    )


def make_msg(node_id=1, region=1, t=0, temp=20.0, battery=12345.6, route=(0,)):
    reading = make_reading(node_id=node_id, region=region, t=t, temp=temp)
    return DataMessage(
        signature=report_signature(node_id, t),
        origin=None,
        origin_index=node_id,
        region_id=region,
        reading=reading,
        battery_mj=battery,
        frames_dropped=0,
        route=route,
    )


def make_station(capacity=10_000, calibration=CalibrationMap(), with_uplink=True):
    k = Kernel(seed=3)
    lbs = LocalBaseStation(
        k, region_id=1, position=GeoPoint(6.0, 6.0),
        node_locations={i: GeoPoint(float(i), 0.0) for i in range(10)},
        calibration=calibration, capacity=capacity,
    )
    rbs = RemoteBaseStation(k)
    if with_uplink:
        lbs.attach_uplink(rbs)
    return k, lbs, rbs


# -- calibration ---------------------------------------------------------------


def test_identity_calibration_stores_raw_values():
    k, lbs, rbs = make_station()
    rec = lbs.ingest(make_msg())
    assert rec.calibrated is rec.raw


def test_affine_calibration_applied_and_deterministic():
    cal = CalibrationMap(coefficients=(("temperature_c", 1.02, -0.5),))
    k, lbs, rbs = make_station(calibration=cal)
    r1 = lbs.ingest(make_msg(t=0))
    r2_raw = make_msg(t=1800)
    a = cal.apply(r2_raw.reading)
    b = cal.apply(r2_raw.reading)
    assert r1.calibrated.temperature_c == pytest.approx(1.02 * 20.0 - 0.5)
    assert r1.calibrated.humidity_pct == r1.raw.humidity_pct
    assert a == b


# -- central keying --------------------------------------------------------------


def test_duplicate_key_dropped_with_counter():
    k, lbs, rbs = make_station()
    lbs.ingest(make_msg(t=1800))
    lbs.ingest(make_msg(t=1800))
    assert len(rbs.central) == 1
    assert rbs.central.duplicate_drops == 1
    assert rbs.central.duplicates_by_region == {1: 1}


def test_records_accumulate_per_region():
    k, lbs, rbs = make_station()
    for t in (0, 1800, 3600):
        lbs.ingest(make_msg(t=t))
    assert rbs.central.region_counts() == {1: 3}
    assert rbs.central.span() == (0, 3600)


# -- link budget --------------------------------------------------------------------


def test_backbone_range_bounds():
    a, b = GeoPoint(0.0, 0.0), GeoPoint(100.0, 0.0)
    assert backbone_link_budget(a, b).in_range
    c = GeoPoint(130.0, 0.0)
    r = backbone_link_budget(a, c)
    assert not r.in_range and r.distance_km == pytest.approx(130.0)


def test_station_to_itself_in_range():
    a = GeoPoint(5.0, 5.0)
    r = backbone_link_budget(a, a)
    assert r.in_range and r.distance_km == 0.0


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
    k, lbs, rbs = make_station(capacity=2, with_uplink=False)
    lbs.attach_uplink(rbs, loss_prob=0.15, latency_s=1)
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
    k, lbs, rbs = make_station(capacity=2, with_uplink=False)
    for t in range(4):
        lbs.ingest(make_msg(t=t * 1800))
    # nothing acked, so the store grows rather than drop data
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
