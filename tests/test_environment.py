import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from droughtnet.config import ValidationError, config_from_dict
from droughtnet.environment import (
    YEAR_S,
    Climatology,
    DroughtScenario,
    EnvironmentParams,
    NodeSampler,
    default_drought_scenario,
    normal_temp_over_window,
)
from droughtnet.geometry import GeoPoint
from droughtnet.kernel import stream

from helpers import ReferenceStream, scenario_active, seasonal_temp

PERIOD = 1800
CENTROID = GeoPoint(6.0, 6.0)


def make_sampler(scen, seed, label, pos=CENTROID, params=EnvironmentParams(),
                 clim=Climatology(), period=PERIOD):
    """A node's sampler in a region centred on CENTROID."""
    return NodeSampler(params, clim, scen, CENTROID, period, pos, stream(seed, label))


def year_of_samples(region, seed=42, node=1):
    scen = default_drought_scenario()[region]
    sampler = make_sampler(scen, seed, f"env:{region}:{node}")
    return [sampler.sample(k * PERIOD) for k in range(YEAR_S // PERIOD)]


def reference_sample(p, clim, scen, state, rng, t):
    """NodeSampler.sample written with the ReferenceStream draws and
    seasonal_temp; state is [noise, spatial offset]."""
    active = scenario_active(scen, t)
    anomaly = scen.temperature_anomaly_c if active else 0.0
    eps = rng.gauss(0.0, p.noise_sigma_c)
    eps = max(-p.noise_innovation_cap_c, min(p.noise_innovation_cap_c, eps))
    state[0] = p.noise_rho * state[0] + eps
    temperature = seasonal_temp(clim, t) + anomaly + state[1] + state[0]
    precip = 0.0
    if rng.random() < p.precip_event_prob:
        mean_amount = clim.monthly_precip_mm / (30 * 86400 / PERIOD * p.precip_event_prob)
        precip = (scen.precipitation_scale if active else 1.0) * rng.expovariate(1.0 / mean_amount)
    humidity = clim.humidity_pct - 3.0 * anomaly + rng.uniform(-p.humidity_jitter_pct, p.humidity_jitter_pct)
    humidity = min(100.0, max(0.0, humidity))
    pressure = clim.pressure_hpa + rng.uniform(-p.pressure_jitter_hpa, p.pressure_jitter_hpa)
    speed_base, dir_base = clim.wind_speed_ms, clim.wind_dir_deg
    if active and scen.wind_speed_ms is not None:
        speed_base = scen.wind_speed_ms
    if active and scen.wind_dir_deg is not None:
        dir_base = scen.wind_dir_deg
    wind_speed = max(0.0, speed_base + rng.uniform(-p.wind_speed_jitter_ms, p.wind_speed_jitter_ms))
    wind_dir = (dir_base + rng.uniform(-p.wind_dir_jitter_deg, p.wind_dir_jitter_deg)) % 360.0
    groundwater = max(0.0, clim.groundwater_m - 0.3 * anomaly
                      + rng.uniform(-p.groundwater_jitter_m, p.groundwater_jitter_m))
    wind_dir = round(wind_dir, 1)
    if wind_dir >= 360.0:
        wind_dir = 0.0
    return (round(temperature, 3), round(precip, 3), round(humidity, 2), round(pressure, 2),
            round(wind_speed, 2), wind_dir, round(groundwater, 3))


def test_sampler_matches_method_by_method_reference():
    scenarios = default_drought_scenario()
    scenarios[5] = DroughtScenario(temperature_anomaly_c=2.0, precipitation_scale=0.3,
                                   active_start_s=20 * PERIOD, active_end_s=60 * PERIOD,
                                   wind_dir_deg=300.0, wind_speed_ms=6.0)
    params, clim = EnvironmentParams(), Climatology()
    pos = GeoPoint(7.5, 4.25)
    for region in range(1, 6):
        sampler = make_sampler(scenarios[region], 9, f"env:{region}", pos)
        rng = ReferenceStream(9, f"env:{region}")
        spatial = params.spatial_gradient_c_per_km * (
            (pos.x_km - CENTROID.x_km) + (pos.y_km - CENTROID.y_km))
        state = [0.0, spatial]
        for k in range(200):
            t = k * PERIOD
            got = sampler.sample(t)
            want = reference_sample(params, clim, scenarios[region], state, rng, t)
            assert (got.temperature_c, got.precipitation_mm, got.humidity_pct, got.pressure_hpa,
                    got.wind_speed_ms, got.wind_dir_deg, got.groundwater_m) == want
            assert got.timestamp == t


def test_dry_climatology_samples_zero_precipitation():
    sampler = make_sampler(DroughtScenario(), 1, "dry", clim=Climatology(monthly_precip_mm=0.0))
    assert all(sampler.sample(k * PERIOD).precipitation_mm == 0.0 for k in range(500))


def test_null_rainfall_region_has_zero_precipitation():
    readings = year_of_samples(3)
    assert all(r.precipitation_mm == 0.0 for r in readings)


def test_zero_noise_zero_anomaly_temperature_is_periodic():
    params = EnvironmentParams(noise_sigma_c=0.0, noise_innovation_cap_c=0.0)
    sampler = make_sampler(DroughtScenario(), 1, "x", params=params)
    per_year = YEAR_S // PERIOD
    temps = [sampler.sample(k * PERIOD).temperature_c for k in range(2 * per_year)]
    assert temps[:per_year] == temps[per_year:]


def test_same_region_same_time_bounded_disagreement():
    # two nodes differ only by the spatial gradient and noise terms,
    # both bounded by the generator config
    params = EnvironmentParams()
    p1, p2 = GeoPoint(2.0, 2.0), GeoPoint(10.0, 10.0)
    noise_max = params.noise_innovation_cap_c / (1.0 - params.noise_rho)
    spatial = params.spatial_gradient_c_per_km * (abs(p1.x_km - p2.x_km) + abs(p1.y_km - p2.y_km))
    bound = spatial + 2.0 * noise_max + 1e-3
    s1 = make_sampler(DroughtScenario(), 7, "a", p1, params)
    s2 = make_sampler(DroughtScenario(), 7, "b", p2, params)
    for k in range(500):
        t = k * PERIOD
        assert abs(s1.sample(t).temperature_c - s2.sample(t).temperature_c) <= bound


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_slow_change_cap_holds(seed):
    sampler = make_sampler(default_drought_scenario()[3], seed, "env", GeoPoint(5.0, 5.0))
    prev = None
    for k in range(2000):
        r = sampler.sample(k * PERIOD)
        if prev is not None:
            assert abs(r.temperature_c - prev) <= EnvironmentParams().slow_change_cap_c
        prev = r.temperature_c


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(0.0, 0.99), sigma=st.floats(0.0, 4.0), share=st.floats(0.0, 1.3),
       amplitude=st.floats(0.0, 40.0), period=st.sampled_from([1800, 6 * 3600, 86_400]),
       seed=st.integers(0, 2**32))
def test_validated_noise_settings_keep_the_slow_change_cap(rho, sigma, share, amplitude,
                                                          period, seed):
    # the innovation cap takes a share of what the seasonal step and the
    # rounding leave of the slow-change cap; validate() accepts up to all of it
    step = amplitude * 2 * math.pi * period / YEAR_S
    cap = share * (1.5 - step - 0.001) / 2
    assume(cap >= 0 and abs(share - 1.0) > 1e-9)
    data = {
        "reporting_period_s": period,
        "env": {"noise_rho": rho, "noise_sigma_c": sigma, "noise_innovation_cap_c": cap},
        "regions": [{"region_id": 1, "climatology": {"seasonal_amplitude_c": amplitude}}],
    }
    if share > 1.0:
        with pytest.raises(ValidationError, match="env.slow_change_cap_c"):
            config_from_dict(data)
        return
    cfg = config_from_dict(data)
    sampler = make_sampler(DroughtScenario(), seed, "env", GeoPoint(5.0, 5.0), cfg.env,
                           cfg.regions[0].climatology, period)
    temps = [sampler.sample(k * period).temperature_c for k in range(400)]
    assert max(abs(b - a) for a, b in zip(temps, temps[1:])) <= 1.5 + 1e-9


def test_annual_precipitation_totals_match_normals():
    clim = Climatology()
    for region, scale in ((1, 1.0), (2, 0.5), (4, 0.25)):
        total = sum(r.precipitation_mm for r in year_of_samples(region))
        expected = 12 * clim.monthly_precip_mm * scale
        assert total == pytest.approx(expected, rel=0.10)


def test_default_scenario_shape():
    scen = default_drought_scenario()
    assert scen[3].precipitation_scale == 0.0
    assert scen[3].temperature_anomaly_c == 3.0
    assert scen[4].temperature_anomaly_c == 1.5
    assert scen[1].temperature_anomaly_c == 0.0
    assert scen[5].temperature_anomaly_c == 0.0
    # wind carries the dry region-3 weather toward region 4 (bearing 45 deg
    # from the centre anchor to the north-east corner anchor)
    assert scen[3].wind_dir_deg == 45.0
    assert scen[3].wind_speed_ms and scen[3].wind_speed_ms > 0


def test_region_4_monthly_precip_under_25mm():
    total = sum(r.precipitation_mm for r in year_of_samples(4))
    assert total / 12.0 < 25.0


def test_determinism_same_seed_same_readings():
    a = year_of_samples(2, seed=99)
    b = year_of_samples(2, seed=99)
    assert a == b


def test_reading_ranges():
    for r in year_of_samples(3, seed=5)[:2000]:
        assert r.precipitation_mm >= 0
        assert 0 <= r.humidity_pct <= 100
        assert 0 <= r.wind_dir_deg < 360
        assert r.wind_speed_ms >= 0


def test_window_normal_matches_quadrature_oracle():
    clim = Climatology()
    t0, t1 = 40 * 86400, 75 * 86400
    closed = normal_temp_over_window(clim, t0, t1)
    # trapezoid quadrature over the seasonal curve
    n = 20000
    step = (t1 - t0) / n
    acc = 0.5 * (seasonal_temp(clim, t0) + seasonal_temp(clim, t1))
    acc += sum(seasonal_temp(clim, int(t0 + i * step)) for i in range(1, n))
    assert closed == pytest.approx(acc / n, abs=1e-3)


def test_anomaly_window_gating():
    """The sampler applies a scenario from active_start_s up to, and not
    including, active_end_s, as the reference's gate does."""
    scen = DroughtScenario(temperature_anomaly_c=2.0, active_start_s=100, active_end_s=200)
    times = (99, 100, 199, 200)
    assert [scenario_active(scen, t) for t in times] == [False, True, True, False]
    samplers = [make_sampler(s, 7, "env:1:1") for s in (DroughtScenario(), scen)]
    for t in times:
        without, with_scen = (sampler.sample(t) for sampler in samplers)
        shift = with_scen.temperature_c - without.temperature_c
        assert shift == pytest.approx(2.0 if scenario_active(scen, t) else 0.0, abs=2e-3)
