"""Scenario configuration.

A single JSON file of nested sections; every knob has a default and the
empty file reproduces the canonical scenario: five hexagon-celled
regions of 10 nodes each, 30-minute tree reporting for one simulated
year, with the region-3 serious drought blowing toward region 4.

load_config / config_to_dict round-trip exactly, which is what lets a
stored run report reproduce its run byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .analytics import Thresholds
from .backbone import MAX_NODES, REGION_ID_RANGE
from .energy import EnergyParams
from .environment import (
    YEAR_S,
    Climatology,
    DroughtScenario,
    EnvironmentParams,
    SENSOR_FIELDS,
    default_drought_scenario,
)
from .geometry import (
    DEFAULT_ANCHORS_KM,
    MAP_SIZE_KM,
    REGION_SIZE_KM,
    CellShape,
    GeoPoint,
    PlacementPlan,
    PlanningError,
    estimate_node_count,
    tile_region,
)
from .stack import LinkParams, MacParams, RoutingMode


class ConfigError(Exception):
    pass


class ParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    pass


@dataclass(frozen=True, slots=True)
class BackboneParams:
    range_km: float = 120.0
    latency_s: int = 0
    loss_prob: float = 0.0
    max_retries: int = 20
    ack_timeout_s: int = 2


@dataclass(frozen=True, slots=True)
class InterestConfig:
    """Query injected at each sink for diffusion/flooding/combined runs."""

    attributes: tuple = SENSOR_FIELDS
    hop_limit: int = 8
    start_s: int = 0
    duration_s: int | None = None  # None: the whole run


@dataclass(frozen=True, slots=True)
class RegionConfig:
    region_id: int
    anchor_km: tuple
    climatology: Climatology
    drought: DroughtScenario


def default_regions() -> tuple:
    scen = default_drought_scenario()
    return tuple(
        RegionConfig(
            region_id=r,
            anchor_km=DEFAULT_ANCHORS_KM[r],
            climatology=Climatology(),
            drought=scen[r],
        )
        for r in range(1, 6)
    )


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    seed: int = 42
    horizon_s: int = YEAR_S
    reporting_period_s: int = 1800
    allow_fast_reporting: bool = False
    stagger_step_s: int = 0
    routing_mode: RoutingMode = RoutingMode.TREE
    cell_shape: CellShape = CellShape.HEXAGON
    radio_range_km: float = 2.074
    region_size_km: float = REGION_SIZE_KM
    node_count_override: int | None = None
    payload_bytes: int = 64
    data_cache_cap: int = 64
    local_db_capacity: int = 10_000
    window_days: int = 30
    drain_window_s: int = 3600
    trace: bool = False
    truth_dump: bool = False
    output_dir: str = "out"
    link: LinkParams = LinkParams()
    backbone: BackboneParams = BackboneParams()
    energy: EnergyParams = EnergyParams()
    mac: MacParams = MacParams()
    env: EnvironmentParams = EnvironmentParams()
    thresholds: Thresholds = Thresholds()
    interest: InterestConfig = InterestConfig()
    regions: tuple = field(default_factory=default_regions)

    def region_ids(self) -> list[int]:
        return [r.region_id for r in self.regions]

    def region_centroids(self) -> dict[int, GeoPoint]:
        """Centre of each region's square, where its sink and local base
        station sit."""
        half = self.region_size_km / 2.0
        return {r.region_id: GeoPoint(r.anchor_km[0] + half, r.anchor_km[1] + half)
                for r in self.regions}

    def nodes_per_region(self) -> int:
        """Cells placed in each region, sink included."""
        return self.node_count_override or estimate_node_count(
            100.0, self.cell_shape, self.radio_range_km) + 1

    def plan_region(self, region: RegionConfig) -> PlacementPlan:
        """Where ``region``'s cells go: the one placement that validate()
        checks and a run builds; PlanningError if the cells do not fit."""
        return tile_region(
            region.region_id, self.cell_shape, self.radio_range_km, self.nodes_per_region(),
            anchor_km=region.anchor_km, region_size_km=self.region_size_km,
        )

    def with_overrides(self, seed=None, routing_mode=None, output_dir=None,
                       trace=None) -> "ScenarioConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if routing_mode is not None:
            cfg = replace(cfg, routing_mode=RoutingMode(routing_mode))
        if output_dir is not None:
            cfg = replace(cfg, output_dir=output_dir)
        if trace is not None:
            cfg = replace(cfg, trace=trace)
        return cfg


# -- section parsing ------------------------------------------------------------


def _check_keys(section: str, data: dict, allowed) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown key(s) in {section}: {sorted(unknown)}")


def _num(section: str, data: dict, key, default, kind=float):
    if key not in data:
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{section}.{key} must be a number, got {v!r}")
    if kind is int:
        if isinstance(v, float) and not v.is_integer():
            raise ValidationError(f"{section}.{key} must be an integer, got {v!r}")
        return int(v)
    return float(v)


def _flag(section: str, data: dict, key, default):
    v = data.get(key, default)
    if not isinstance(v, bool):
        raise ValidationError(f"{section}.{key} must be true/false, got {v!r}")
    return v


def _parse_simple(section: str, data: dict, cls, int_keys=(), defaults=None):
    base = defaults if defaults is not None else cls()
    _check_keys(section, data, [f for f in base.__dataclass_fields__])
    kwargs = {}
    for name in base.__dataclass_fields__:
        if name not in data:
            continue
        kind = int if name in int_keys else float
        kwargs[name] = _num(section, data, name, getattr(base, name), kind)
    return replace(base, **kwargs)


def _parse_climatology(data: dict) -> Climatology:
    return _parse_simple("climatology", data, Climatology)


def _parse_drought(data: dict, default: DroughtScenario) -> DroughtScenario:
    _check_keys("drought", data, [f for f in default.__dataclass_fields__])
    kwargs = {}
    for name in ("temperature_anomaly_c", "precipitation_scale", "wind_dir_deg", "wind_speed_ms"):
        if name in data:
            if data[name] is None and name in ("wind_dir_deg", "wind_speed_ms"):
                kwargs[name] = None
            else:
                kwargs[name] = _num("drought", data, name, None)
    for name in ("active_start_s", "active_end_s"):
        if name in data:
            kwargs[name] = None if data[name] is None else _num("drought", data, name, None, int)
    return replace(default, **kwargs)


def _parse_region(data: dict, defaults: dict[int, RegionConfig]) -> RegionConfig:
    _check_keys("regions[]", data, ["region_id", "anchor_km", "climatology", "drought"])
    if "region_id" not in data:
        raise ValidationError("regions[] entries need a region_id")
    rid = _num("regions[]", data, "region_id", None, int)
    base = defaults.get(
        rid,
        RegionConfig(rid, (0.0, 0.0), Climatology(), DroughtScenario()),
    )
    anchor = base.anchor_km
    if "anchor_km" in data:
        raw = data["anchor_km"]
        if not (isinstance(raw, list) and len(raw) == 2):
            raise ValidationError(f"regions[{rid}].anchor_km must be [x, y]")
        anchor = (float(raw[0]), float(raw[1]))
    clim = _parse_climatology(data.get("climatology", {})) if "climatology" in data else base.climatology
    drought = _parse_drought(data.get("drought", {}), base.drought) if "drought" in data else base.drought
    return RegionConfig(region_id=rid, anchor_km=anchor, climatology=clim, drought=drought)


_TOP_KEYS = [f for f in ScenarioConfig.__dataclass_fields__]


def config_from_dict(data: dict) -> ScenarioConfig:
    _check_keys("config", data, _TOP_KEYS)
    kwargs = {}
    for key, kind in (
        ("seed", int), ("horizon_s", int), ("reporting_period_s", int),
        ("stagger_step_s", int), ("radio_range_km", float), ("region_size_km", float),
        ("payload_bytes", int), ("data_cache_cap", int), ("local_db_capacity", int),
        ("window_days", int), ("drain_window_s", int),
    ):
        if key in data:
            kwargs[key] = _num("config", data, key, None, kind)
    if "node_count_override" in data:
        v = data["node_count_override"]
        kwargs["node_count_override"] = None if v is None else _num("config", data, "node_count_override", None, int)
    for key in ("allow_fast_reporting", "trace", "truth_dump"):
        if key in data:
            kwargs[key] = _flag("config", data, key, False)
    if "output_dir" in data:
        if not isinstance(data["output_dir"], str):
            raise ValidationError("config.output_dir must be a string")
        kwargs["output_dir"] = data["output_dir"]
    if "routing_mode" in data:
        try:
            kwargs["routing_mode"] = RoutingMode(data["routing_mode"])
        except ValueError:
            raise ValidationError(f"config.routing_mode must be one of "
                                  f"{[m.value for m in RoutingMode]}") from None
    if "cell_shape" in data:
        try:
            kwargs["cell_shape"] = CellShape(data["cell_shape"])
        except ValueError:
            raise ValidationError(f"config.cell_shape must be one of "
                                  f"{[s.value for s in CellShape]}") from None
    if "link" in data:
        kwargs["link"] = _parse_simple("link", data["link"], LinkParams, int_keys=("delay_s",))
    if "backbone" in data:
        kwargs["backbone"] = _parse_simple(
            "backbone", data["backbone"], BackboneParams,
            int_keys=("latency_s", "max_retries", "ack_timeout_s"))
    if "energy" in data:
        kwargs["energy"] = _parse_simple("energy", data["energy"], EnergyParams)
    if "mac" in data:
        kwargs["mac"] = _parse_simple(
            "mac", data["mac"], MacParams,
            int_keys=("max_frame_bytes", "queue_cap_frames", "backoff_slots"))
    if "env" in data:
        kwargs["env"] = _parse_simple("env", data["env"], EnvironmentParams)
    if "thresholds" in data:
        kwargs["thresholds"] = _parse_simple("thresholds", data["thresholds"], Thresholds)
    if "interest" in data:
        idata = data["interest"]
        _check_keys("interest", idata, ["attributes", "hop_limit", "start_s", "duration_s"])
        attrs = InterestConfig().attributes
        if "attributes" in idata:
            raw = idata["attributes"]
            if not isinstance(raw, list) or not raw:
                raise ValidationError("interest.attributes must be a non-empty list")
            bad = set(raw) - set(SENSOR_FIELDS)
            if bad:
                raise ValidationError(f"interest.attributes unknown: {sorted(bad)}")
            attrs = tuple(raw)
        duration = idata.get("duration_s")
        kwargs["interest"] = InterestConfig(
            attributes=attrs,
            hop_limit=_num("interest", idata, "hop_limit", 8, int),
            start_s=_num("interest", idata, "start_s", 0, int),
            duration_s=None if duration is None else _num("interest", idata, "duration_s", None, int),
        )
    if "regions" in data:
        if not isinstance(data["regions"], list) or not data["regions"]:
            raise ValidationError("config.regions must be a non-empty list")
        defaults = {r.region_id: r for r in default_regions()}
        kwargs["regions"] = tuple(_parse_region(r, defaults) for r in data["regions"])
    return validate(ScenarioConfig(**kwargs))


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every cross-module invariant up front, naming the violation."""
    if cfg.horizon_s <= 0:
        raise ValidationError("horizon_s must be positive")
    if cfg.reporting_period_s <= 0:
        raise ValidationError("reporting_period_s must be positive")
    if cfg.reporting_period_s < 1800 and not cfg.allow_fast_reporting:
        raise ValidationError(
            "reporting_period_s below the 1800 s floor requires allow_fast_reporting"
        )
    if cfg.reporting_period_s >= cfg.horizon_s:
        raise ValidationError("reporting_period_s must be below horizon_s")
    if cfg.radio_range_km <= 0:
        raise ValidationError("radio_range_km must be positive")
    if cfg.region_size_km <= 0:
        raise ValidationError("region_size_km must be positive")
    if not 0.0 <= cfg.link.loss_prob <= 1.0:
        raise ValidationError("link.loss_prob must lie in [0, 1]")
    if not 0.0 <= cfg.backbone.loss_prob <= 1.0:
        raise ValidationError("backbone.loss_prob must lie in [0, 1]")
    if cfg.link.delay_s < 0 or cfg.backbone.latency_s < 0:
        raise ValidationError("link delays must be non-negative")
    if cfg.backbone.ack_timeout_s < 1:
        raise ValidationError("backbone.ack_timeout_s must be at least 1")
    if cfg.backbone.max_retries < 0:
        raise ValidationError("backbone.max_retries must be non-negative")
    if cfg.payload_bytes <= 0 or cfg.mac.max_frame_bytes <= 0:
        raise ValidationError("payload_bytes and mac.max_frame_bytes must be positive")
    frames_per_packet = -(-cfg.payload_bytes // cfg.mac.max_frame_bytes)
    if cfg.mac.queue_cap_frames < frames_per_packet:
        raise ValidationError("mac.queue_cap_frames cannot hold a single report")
    if cfg.mac.backoff_slots < 1:
        raise ValidationError("mac.backoff_slots must be at least 1")
    if cfg.window_days < 30:
        raise ValidationError("window_days must be at least 30")
    if not cfg.regions:
        raise ValidationError("at least one region is required")
    ids = cfg.region_ids()
    if len(set(ids)) != len(ids):
        raise ValidationError("region_id values must be unique")
    lo, hi = REGION_ID_RANGE
    for r in cfg.regions:
        if not lo <= r.region_id <= hi:
            raise ValidationError(
                f"region_id {r.region_id} outside [{lo}, {hi}], the central database's region range"
            )
        ax, ay = r.anchor_km
        if not (0 <= ax and ax + cfg.region_size_km <= MAP_SIZE_KM
                and 0 <= ay and ay + cfg.region_size_km <= MAP_SIZE_KM):
            raise ValidationError(f"region {r.region_id} square leaves the map")
        if r.climatology.monthly_precip_mm < 0 or r.climatology.seasonal_amplitude_c < 0:
            raise ValidationError(f"region {r.region_id} climatology normals must be non-negative")
        if not 0.0 <= r.drought.precipitation_scale <= 1.0:
            raise ValidationError(f"region {r.region_id} precipitation_scale must lie in [0, 1]")
    # the remote base station sits at the mean of the region centroids,
    # and every local station must reach it over the line-of-sight backbone
    if not cfg.backbone.range_km > 0:
        raise ValidationError("backbone.range_km must be positive")
    centroids = cfg.region_centroids()
    remote = GeoPoint(sum(c.x_km for c in centroids.values()) / len(centroids),
                      sum(c.y_km for c in centroids.values()) / len(centroids))
    for rid, centroid in centroids.items():
        distance = centroid.distance_to(remote)
        if distance > cfg.backbone.range_km:
            raise ValidationError(
                f"region {rid} local base station is {distance:.1f} km from the remote "
                f"base station, beyond backbone.range_km {cfg.backbone.range_km}"
            )
    node_count = cfg.nodes_per_region()
    total_nodes = node_count * len(cfg.regions)
    if total_nodes > MAX_NODES:
        raise ValidationError(
            f"{total_nodes} nodes in total exceed the central database's {MAX_NODES}-node key range"
        )
    for r in cfg.regions:
        try:
            cfg.plan_region(r)
        except PlanningError as exc:
            raise ValidationError(
                f"region {r.region_id} cannot place {node_count} nodes in its "
                f"region_size_km {cfg.region_size_km} square: {exc}"
            ) from None
    if cfg.stagger_step_s < 0:
        raise ValidationError("stagger_step_s must be non-negative")
    # offsets for the deepest in-region index must stay inside one period
    if cfg.stagger_step_s and cfg.stagger_step_s * 16 >= cfg.reporting_period_s:
        raise ValidationError("stagger_step_s too large for the reporting period")
    try:
        cfg.thresholds.validate()
    except Exception as exc:
        raise ValidationError(f"thresholds not monotone: {exc}") from None
    if cfg.interest.hop_limit < 1:
        raise ValidationError("interest.hop_limit must be at least 1")
    if cfg.interest.start_s < 0:
        raise ValidationError("interest.start_s must be non-negative: a sink cannot launch "
                              "an interest before the run starts")
    if cfg.interest.duration_s is not None and cfg.interest.duration_s <= 0:
        raise ValidationError("interest.duration_s must be positive when set")
    if cfg.data_cache_cap < 1:
        raise ValidationError("data_cache_cap must be at least 1: the duplicate cache "
                              "must hold the signature it has just seen")
    if cfg.local_db_capacity < 1:
        raise ValidationError("local_db_capacity must be at least 1: a local store "
                              "must hold one record")
    if cfg.drain_window_s < 0:
        raise ValidationError("drain_window_s must be non-negative")
    for name in cfg.energy.__dataclass_fields__:
        # negative costs would book negative energy, and the ledger only grows
        if not getattr(cfg.energy, name) >= 0.0:
            raise ValidationError(f"energy.{name} must be non-negative")
    return cfg


def load_config(path) -> ScenarioConfig:
    """Parse and validate a config file; an empty file means all defaults."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        return validate(ScenarioConfig())
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return config_from_dict(data)


# -- echo --------------------------------------------------------------------


def _dataclass_dict(obj) -> dict:
    return {f: getattr(obj, f) for f in obj.__dataclass_fields__}


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-able echo sufficient to reproduce the run exactly."""
    out = {
        "seed": cfg.seed,
        "horizon_s": cfg.horizon_s,
        "reporting_period_s": cfg.reporting_period_s,
        "allow_fast_reporting": cfg.allow_fast_reporting,
        "stagger_step_s": cfg.stagger_step_s,
        "routing_mode": cfg.routing_mode.value,
        "cell_shape": cfg.cell_shape.value,
        "radio_range_km": cfg.radio_range_km,
        "region_size_km": cfg.region_size_km,
        "node_count_override": cfg.node_count_override,
        "payload_bytes": cfg.payload_bytes,
        "data_cache_cap": cfg.data_cache_cap,
        "local_db_capacity": cfg.local_db_capacity,
        "window_days": cfg.window_days,
        "drain_window_s": cfg.drain_window_s,
        "trace": cfg.trace,
        "truth_dump": cfg.truth_dump,
        "output_dir": cfg.output_dir,
        "link": _dataclass_dict(cfg.link),
        "backbone": _dataclass_dict(cfg.backbone),
        "energy": _dataclass_dict(cfg.energy),
        "mac": _dataclass_dict(cfg.mac),
        "env": _dataclass_dict(cfg.env),
        "thresholds": _dataclass_dict(cfg.thresholds),
        "interest": {
            "attributes": list(cfg.interest.attributes),
            "hop_limit": cfg.interest.hop_limit,
            "start_s": cfg.interest.start_s,
            "duration_s": cfg.interest.duration_s,
        },
        "regions": [
            {
                "region_id": r.region_id,
                "anchor_km": list(r.anchor_km),
                "climatology": _dataclass_dict(r.climatology),
                "drought": _dataclass_dict(r.drought),
            }
            for r in cfg.regions
        ],
    }
    return out
