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
from dataclasses import dataclass, field

from .geometry import GeoPoint
from .kernel import RngStream

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


class UnknownRegion(Exception):
    pass


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

    def active(self, t: int) -> bool:
        if t < self.active_start_s:
            return False
        return self.active_end_s is None or t < self.active_end_s


@dataclass(frozen=True, slots=True)
class EnvironmentParams:
    noise_rho: float = 0.9
    noise_sigma_c: float = 0.5
    # innovations clipped so |dT| between consecutive samples stays
    # under slow_change_cap_c unconditionally
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
    node_id: int
    region_id: int
    timestamp: int
    temperature_c: float
    precipitation_mm: float
    humidity_pct: float
    pressure_hpa: float
    wind_speed_ms: float
    wind_dir_deg: float
    groundwater_m: float


def default_climatology() -> dict[int, Climatology]:
    return {r: Climatology() for r in range(1, 6)}


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


def seasonal_temp(clim: Climatology, t: int) -> float:
    phase = 2.0 * math.pi * ((t % YEAR_S) / YEAR_S)
    return clim.mean_temp_c - clim.seasonal_amplitude_c * math.cos(phase)


def normal_temp_over_window(clim: Climatology, t0: int, t1: int) -> float:
    """Window average of the seasonal curve (closed form)."""
    if t1 <= t0:
        raise ValueError("empty window")
    w = 2.0 * math.pi / YEAR_S
    avg_cos = (math.sin(w * t1) - math.sin(w * t0)) / (w * (t1 - t0))
    return clim.mean_temp_c - clim.seasonal_amplitude_c * avg_cos


def _quant(value: float, decimals: int) -> float:
    return round(value, decimals)


class NodeSampler:
    """Sequential per-node view of the truth field.

    Holds the AR(1) noise state; must be called with non-decreasing
    sample times, which is how nodes sample.  Draw order per sample is
    fixed, so a reading depends only on (seed, label, sample index).
    """

    __slots__ = ("model", "region_id", "node_id", "position", "rng", "_noise", "_spatial")

    def __init__(self, model: "EnvironmentModel", region_id: int, node_id: int,
                 position: GeoPoint, rng: RngStream):
        self.model = model
        self.region_id = region_id
        self.node_id = node_id
        self.position = position
        self.rng = rng
        self._noise = 0.0
        centroid = model.centroids[region_id]
        g = model.params.spatial_gradient_c_per_km
        self._spatial = g * ((position.x_km - centroid.x_km) + (position.y_km - centroid.y_km))

    def sample(self, t: int) -> SensorReading:
        model = self.model
        p = model.params
        clim = model.climatology[self.region_id]
        scen = model.scenarios[self.region_id]
        rng = self.rng
        active = scen.active(t)
        anomaly = scen.temperature_anomaly_c if active else 0.0

        cap = p.noise_innovation_cap_c
        eps = rng.gauss(0.0, p.noise_sigma_c)
        if eps > cap:
            eps = cap
        elif eps < -cap:
            eps = -cap
        self._noise = p.noise_rho * self._noise + eps

        temperature = seasonal_temp(clim, t) + anomaly + self._spatial + self._noise

        scale = scen.precipitation_scale if active else 1.0
        precip = 0.0
        if rng.random() < p.precip_event_prob:
            mean_amount = clim.monthly_precip_mm / (model.samples_per_month * p.precip_event_prob)
            precip = scale * rng.expovariate(1.0 / mean_amount)

        humidity = clim.humidity_pct - 3.0 * anomaly + rng.uniform(-p.humidity_jitter_pct, p.humidity_jitter_pct)
        humidity = min(100.0, max(0.0, humidity))
        pressure = clim.pressure_hpa + rng.uniform(-p.pressure_jitter_hpa, p.pressure_jitter_hpa)

        wind_speed_base = clim.wind_speed_ms
        wind_dir_base = clim.wind_dir_deg
        if active and scen.wind_speed_ms is not None:
            wind_speed_base = scen.wind_speed_ms
        if active and scen.wind_dir_deg is not None:
            wind_dir_base = scen.wind_dir_deg
        wind_speed = max(0.0, wind_speed_base + rng.uniform(-p.wind_speed_jitter_ms, p.wind_speed_jitter_ms))
        wind_dir = (wind_dir_base + rng.uniform(-p.wind_dir_jitter_deg, p.wind_dir_jitter_deg)) % 360.0

        groundwater = max(0.0, clim.groundwater_m - 0.3 * anomaly
                          + rng.uniform(-p.groundwater_jitter_m, p.groundwater_jitter_m))

        wind_dir = _quant(wind_dir, 1)
        if wind_dir >= 360.0:
            wind_dir = 0.0
        return SensorReading(
            node_id=self.node_id,
            region_id=self.region_id,
            timestamp=t,
            temperature_c=_quant(temperature, 3),
            precipitation_mm=_quant(precip, 3),
            humidity_pct=_quant(humidity, 2),
            pressure_hpa=_quant(pressure, 2),
            wind_speed_ms=_quant(wind_speed, 2),
            wind_dir_deg=wind_dir,
            groundwater_m=_quant(groundwater, 3),
        )


class EnvironmentModel:
    """Truth field over all regions for one scenario run."""

    def __init__(
        self,
        climatology: dict[int, Climatology],
        scenarios: dict[int, DroughtScenario],
        centroids: dict[int, GeoPoint],
        period_s: int = 1800,
        horizon_s: int = YEAR_S,
        params: EnvironmentParams = EnvironmentParams(),
    ):
        self.climatology = climatology
        self.scenarios = scenarios
        self.centroids = centroids
        self.period_s = period_s
        self.horizon_s = horizon_s
        self.params = params
        self.samples_per_month = 30 * 86400 / period_s

    def _check_region(self, region_id: int) -> None:
        if region_id not in self.climatology:
            raise UnknownRegion(f"region {region_id}")

    def sampler(self, region_id: int, node_id: int, position: GeoPoint, rng: RngStream) -> NodeSampler:
        self._check_region(region_id)
        return NodeSampler(self, region_id, node_id, position, rng)

    def sample_truth(self, region_id: int, position: GeoPoint, t: int,
                     rng: RngStream, node_id: int = 0) -> SensorReading:
        """Reading at time t as a pure function of (config, seed, region,
        position, t): replays the sampler from the start of the run.  The
        noise index is t // period, so this agrees with a live sampler."""
        self._check_region(region_id)
        if t > self.horizon_s:
            raise ValueError(f"t={t} beyond horizon {self.horizon_s}")
        sampler = NodeSampler(self, region_id, node_id, position, rng)
        k = t // self.period_s
        for j in range(k):
            sampler.sample(j * self.period_s)
        return sampler.sample(t)
