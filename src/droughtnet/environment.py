"""Synthetic weather-field generator.

Per-region, per-timestep ground truth for temperature, precipitation,
humidity, pressure, wind and groundwater, with injectable drought
scenarios.  Temperature is a seasonal sinusoid plus scenario anomaly,
a small spatial gradient and AR(1) noise; precipitation is an
event-process whose magnitudes are scaled to hit the monthly normals.
Everything is a deterministic function of (config, seed, region,
position, t): same seed, same truth.

Readings are quantized at generation (millidegree temperature and the
like), mimicking ADC resolution and keeping exports compact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import GeoPoint

YEAR_S = 31_536_000  # 365 days

SENSOR_FIELDS = (
    "temperature_c",
    "precipitation_mm",
    "humidity_pct",
    "pressure_hpa",
    "wind_speed_ms",
    "wind_dir_deg",
    "groundwater_m",
)


@dataclass(frozen=True, slots=True)
class Climatology:
    """Long-run normals one region's observations are judged against."""

    mean_temp_c: float = 18.0
    seasonal_amplitude_c: float = 8.0
    monthly_precip_mm: float = 80.0
    humidity_pct: float = 60.0
    pressure_hpa: float = 1013.0
    wind_dir_deg: float = 45.0
    wind_speed_ms: float = 3.0
    groundwater_m: float = 10.0


@dataclass(frozen=True, slots=True)
class DroughtScenario:
    """Per-region truth overrides; scale 0 reproduces null rainfall."""

    temperature_anomaly_c: float = 0.0
    precipitation_scale: float = 1.0
    active_start_s: int = 0
    active_end_s: int | None = None  # None: active for the whole run
    wind_dir_deg: float | None = None  # advection wind override
    wind_speed_ms: float | None = None


@dataclass(frozen=True, slots=True)
class EnvironmentParams:
    noise_rho: float = 0.9
    noise_sigma_c: float = 0.5
    # innovations are clipped to noise_innovation_cap_c, and validate()
    # checks that this keeps |dT| between consecutive samples within
    # slow_change_cap_c; a drought window that starts or ends mid-run
    # steps the temperature by its whole anomaly.
    noise_innovation_cap_c: float = 0.7
    slow_change_cap_c: float = 1.5
    spatial_gradient_c_per_km: float = 0.02
    precip_event_prob: float = 0.15
    # secondary fields use bounded uniform jitter (half-ranges below);
    # only their window means matter downstream
    humidity_jitter_pct: float = 3.0
    pressure_jitter_hpa: float = 1.5
    wind_speed_jitter_ms: float = 0.8
    wind_dir_jitter_deg: float = 15.0
    groundwater_jitter_m: float = 0.1


@dataclass(slots=True)
class SensorReading:
    timestamp: int
    temperature_c: float
    precipitation_mm: float
    humidity_pct: float
    pressure_hpa: float
    wind_speed_ms: float
    wind_dir_deg: float
    groundwater_m: float


def default_drought_scenario() -> dict[int, DroughtScenario]:
    """The canonical five-region scenario.

    Region 3 runs hot with no rainfall at all, region 4 hot with under
    25 mm a month, region 2 mildly dry, regions 1 and 5 untouched; the
    region-3 wind blows toward region 4 (bearing 45 deg on the default
    anchor layout).
    """
    return {
        1: DroughtScenario(),
        2: DroughtScenario(temperature_anomaly_c=0.7, precipitation_scale=0.5),
        3: DroughtScenario(
            temperature_anomaly_c=3.0,
            precipitation_scale=0.0,
            wind_dir_deg=45.0,
            wind_speed_ms=4.0,
        ),
        4: DroughtScenario(temperature_anomaly_c=1.5, precipitation_scale=0.25),
        5: DroughtScenario(),
    }


def normal_temp_over_window(clim: Climatology, t0: int, t1: int) -> float:
    """Average of the seasonal curve (closed form) over a window [t0, t1)
    of at least 30 days, as every caller passes."""
    w = 2.0 * math.pi / YEAR_S
    avg_cos = (math.sin(w * t1) - math.sin(w * t0)) / (w * (t1 - t0))
    return clim.mean_temp_c - clim.seasonal_amplitude_c * avg_cos


TWO_PI = 2.0 * math.pi


class NodeSampler:
    """Sequential per-node view of the truth field.

    Holds the AR(1) noise state; must be called with non-decreasing
    sample times, which is how nodes sample.  Draw order per sample is
    fixed, so a reading depends only on (seed, label, sample index).

    sample() draws Gaussian noise (Box-Muller), exponential rain
    amounts and uniform jitter straight from the stream's bound
    random(), with the float expressions of the reference draws in the
    tests, so readings equal the method-by-method ones bit for bit.
    The region's constants are unpacked from one tuple that __init__
    builds from the config's sections: ``draw`` is the node's stream
    (``kernel.stream``), ``centroid`` its region's centre and ``period_s``
    the reporting period.
    """

    __slots__ = ("_random", "_noise", "_const")

    def __init__(self, p: EnvironmentParams, clim: Climatology, scen: DroughtScenario,
                 centroid: GeoPoint, period_s: int, position: GeoPoint, draw):
        self._random = draw
        self._noise = 0.0
        g = p.spatial_gradient_c_per_km
        spatial = g * ((position.x_km - centroid.x_km) + (position.y_km - centroid.y_km))
        # exponential rate of an event's amount; a dry climatology makes
        # every amount 0 mm, and with no events the rate is never used
        events_per_month = 30 * 86400 / period_s * p.precip_event_prob
        mean_amount = clim.monthly_precip_mm / events_per_month if events_per_month else 0.0
        precip_lambd = 1.0 / mean_amount if mean_amount else math.inf
        self._const = (
            scen.active_start_s, scen.active_end_s, scen.temperature_anomaly_c,
            p.noise_sigma_c, p.noise_innovation_cap_c, p.noise_rho,
            clim.mean_temp_c, clim.seasonal_amplitude_c, spatial,
            p.precip_event_prob, scen.precipitation_scale, precip_lambd,
            clim.humidity_pct, clim.pressure_hpa, clim.groundwater_m,
            # wind bases outside and inside the scenario's active window
            clim.wind_speed_ms, clim.wind_dir_deg,
            clim.wind_speed_ms if scen.wind_speed_ms is None else scen.wind_speed_ms,
            clim.wind_dir_deg if scen.wind_dir_deg is None else scen.wind_dir_deg,
            # (a, b - a) of each uniform(-half_range, half_range) jitter
            *(
                v
                for half in (p.humidity_jitter_pct, p.pressure_jitter_hpa,
                             p.wind_speed_jitter_ms, p.wind_dir_jitter_deg,
                             p.groundwater_jitter_m)
                for v in (-half, half - -half)
            ),
        )

    def sample(self, t: int) -> SensorReading:
        (active_start, active_end, anomaly_c, sigma, cap, rho,
         mean_temp, amplitude, spatial, event_prob, precip_scale, precip_lambd,
         humidity_base, pressure_base, groundwater_base,
         wind_speed_base, wind_dir_base, active_wind_speed, active_wind_dir,
         h_lo, h_w, p_lo, p_w, ws_lo, ws_w, wd_lo, wd_w, g_lo, g_w) = self._const
        draw = self._random
        active = t >= active_start and (active_end is None or t < active_end)
        anomaly = anomaly_c if active else 0.0

        # Box-Muller, two draws
        u1 = draw()
        u2 = draw()
        if u1 <= 0.0:
            u1 = 5e-324
        eps = 0.0 + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(TWO_PI * u2)
        if eps > cap:
            eps = cap
        elif eps < -cap:
            eps = -cap
        noise = self._noise = rho * self._noise + eps

        seasonal = mean_temp - amplitude * math.cos(TWO_PI * ((t % YEAR_S) / YEAR_S))
        temperature = seasonal + anomaly + spatial + noise

        precip = 0.0
        if draw() < event_prob:
            scale = precip_scale if active else 1.0
            precip = scale * (-math.log(1.0 - draw()) / precip_lambd)

        humidity = humidity_base - 3.0 * anomaly + (h_lo + h_w * draw())
        humidity = humidity if humidity > 0.0 else 0.0
        humidity = humidity if humidity < 100.0 else 100.0
        pressure = pressure_base + (p_lo + p_w * draw())

        if active:
            wind_speed_base = active_wind_speed
            wind_dir_base = active_wind_dir
        wind_speed = wind_speed_base + (ws_lo + ws_w * draw())
        wind_speed = wind_speed if wind_speed > 0.0 else 0.0
        wind_dir = (wind_dir_base + (wd_lo + wd_w * draw())) % 360.0

        groundwater = groundwater_base - 0.3 * anomaly + (g_lo + g_w * draw())
        groundwater = groundwater if groundwater > 0.0 else 0.0

        wind_dir = round(wind_dir, 1)
        if wind_dir >= 360.0:
            wind_dir = 0.0
        return SensorReading(
            t,
            round(temperature, 3), round(precip, 3), round(humidity, 2),
            round(pressure, 2), round(wind_speed, 2), wind_dir, round(groundwater, 3),
        )

