"""Scenario configuration.

A single JSON file of nested sections; every knob has a default and the
empty file reproduces the canonical scenario: five hexagon-celled
regions of 10 nodes each, 30-minute tree reporting for one simulated
year, with the region-3 serious drought blowing toward region 4.

The config dataclasses are the schema.  config_from_dict walks each
dataclass's fields and resolved type hints to parse a file, and
config_to_dict walks them back to JSON, so load_config / config_to_dict
round-trip exactly: that is what lets a stored run report reproduce its
run byte for byte.  A malformed section or value raises ValidationError
naming its dotted key.  The one special case is a regions[] entry, which
merges over the built-in region of its region_id.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .analytics import Thresholds
from .backbone import MAX_NODES, REGION_ID_RANGE
from .energy import EnergyParams
from .environment import (
    YEAR_S,
    Climatology,
    DroughtScenario,
    EnvironmentParams,
    default_drought_scenario,
)
from .geometry import (
    COVERAGE_AREA_KM2,
    DEFAULT_ANCHORS_KM,
    MAP_SIZE_KM,
    REGION_SIZE_KM,
    CellShape,
    GeoPoint,
    PlacementPlan,
    PlanningError,
    connectivity_check,
    estimate_node_count,
    ordered_total,
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


# An interest key that run reports of older versions echo, though no run ever
# read it: replay and compare_runs drop it from a stored echo.
RETIRED_INTEREST_KEY = "attributes"


@dataclass(frozen=True, slots=True)
class InterestConfig:
    """Query injected at each sink for diffusion/flooding/combined runs."""

    hop_limit: int = 8
    start_s: int = 0
    duration_s: int | None = None  # None: the longest that validate() accepts


@dataclass(frozen=True, slots=True)
class RegionConfig:
    region_id: int
    anchor_km: tuple[float, float]
    climatology: Climatology
    drought: DroughtScenario


def default_regions() -> tuple[RegionConfig, ...]:
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
    regions: tuple[RegionConfig, ...] = field(default_factory=default_regions)

    def region_centroids(self) -> dict[int, GeoPoint]:
        """Centre of each region's square, where its sink and local base
        station sit."""
        half = self.region_size_km / 2.0
        return {r.region_id: GeoPoint(r.anchor_km[0] + half, r.anchor_km[1] + half)
                for r in self.regions}

    def link_range_km(self) -> float:
        """Reach of a node-to-node link: twice the radio range, so that the
        nodes of adjacent cells link."""
        return 2.0 * self.radio_range_km

    def longest_interest_s(self) -> int:
        """The longest interest lifetime that validate() accepts, and the
        default one: the horizon, the drain window and one period."""
        return self.horizon_s + self.drain_window_s + self.reporting_period_s

    def nodes_per_region(self) -> int:
        """Cells placed in each region, sink included."""
        return self.node_count_override or estimate_node_count(
            COVERAGE_AREA_KM2, self.cell_shape, self.radio_range_km) + 1

    def plan_region(self, region: RegionConfig) -> PlacementPlan:
        """Where ``region``'s cells go: the one placement that validate()
        checks and a run builds; PlanningError if the cells do not fit."""
        return tile_region(
            region.region_id, self.cell_shape, self.radio_range_km, self.nodes_per_region(),
            anchor_km=region.anchor_km, region_size_km=self.region_size_km,
        )

    def with_overrides(self, seed=None, routing_mode=None, output_dir=None,
                       trace=None) -> "ScenarioConfig":
        """The config with each override that is not None."""
        given = {"seed": seed, "output_dir": output_dir, "trace": trace,
                 "routing_mode": None if routing_mode is None else RoutingMode(routing_mode)}
        return replace(self, **{key: value for key, value in given.items() if value is not None})


# -- parse and echo --------------------------------------------------------------


@cache
def _field_types(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _parse(key: str, value, kind, base=None):
    """``value`` read as type ``kind``, naming the dotted ``key`` when it
    is malformed; a section merges over ``base``, its current value."""
    if isinstance(kind, UnionType):  # X | None
        if value is None:
            return None
        (kind,) = [k for k in get_args(kind) if k is not type(None)]
    if is_dataclass(kind):
        where = key or "config"
        if not isinstance(value, dict):
            raise ValidationError(f"{where} must be an object, got {value!r}")
        types = _field_types(kind)
        unknown = set(value) - set(types)
        if unknown:
            raise ValidationError(f"unknown key(s) in {where}: {sorted(unknown, key=str)}")
        if base is None:
            base = _region_default(key, value) if kind is RegionConfig else kind()
        prefix = f"{key}." if key else ""
        return replace(base, **{name: _parse(prefix + name, v, types[name], getattr(base, name))
                                for name, v in value.items()})
    if get_origin(kind) is tuple:
        kinds = get_args(kind)
        variadic = kinds[-1] is Ellipsis  # tuple[X, ...]
        if not isinstance(value, list) or not variadic and len(value) != len(kinds):
            size = "" if variadic else f" of {len(kinds)}"
            raise ValidationError(f"{key} must be a list{size}, got {value!r}")
        if variadic:
            kinds = kinds[:1] * len(value)
        return tuple(_parse(f"{key}[{i}]", v, k) for i, (v, k) in enumerate(zip(value, kinds)))
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except (ValueError, TypeError):
            raise ValidationError(f"{key} must be one of {[m.value for m in kind]}, "
                                  f"got {value!r}") from None
    if kind is bool or kind is str:
        if not isinstance(value, kind):
            expected = "true/false" if kind is bool else "a string"
            raise ValidationError(f"{key} must be {expected}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN and Infinity
        raise ValidationError(f"{key} must be a finite number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ValidationError(f"{key} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:  # json reads integers of any size
        raise ValidationError(f"{key} must be a finite number, got an integer too large "
                              f"for a float") from None


def _region_default(key: str, value: dict) -> RegionConfig:
    """A regions[] entry merges over the built-in region of its id."""
    if "region_id" not in value:
        raise ValidationError(f"{key} needs a region_id")
    rid = _parse(f"{key}.region_id", value["region_id"], int)
    return next((r for r in default_regions() if r.region_id == rid),
                RegionConfig(rid, (0.0, 0.0), Climatology(), DroughtScenario()))


def config_from_dict(data: dict) -> ScenarioConfig:
    return validate(_parse("", data, ScenarioConfig))


def _echo(value):
    if is_dataclass(value):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return value


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-able echo sufficient to reproduce the run exactly."""
    return _echo(cfg)


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every cross-module invariant up front, naming the violation."""
    if cfg.horizon_s <= 0:
        raise ValidationError("horizon_s must be positive")
    if cfg.horizon_s > 1 << 36:  # a reading's timestamp is below the horizon
        raise ValidationError("horizon_s exceeds 2^36 s, the 36-bit timestamp field of a "
                              "report signature (40 bits in a central-db key)")
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
    ids = [r.region_id for r in cfg.regions]
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
    env = cfg.env
    if not 0.0 <= env.noise_rho < 1.0:
        raise ValidationError("env.noise_rho must lie in [0, 1)")
    # samples off a drought edge differ by <= 2 innovation caps, a seasonal step and rounding
    slope = max(r.climatology.seasonal_amplitude_c for r in cfg.regions) * math.tau / YEAR_S
    bound = 2 * abs(env.noise_innovation_cap_c) + slope * cfg.reporting_period_s + 0.001
    if not bound <= env.slow_change_cap_c:
        raise ValidationError(f"env.noise_innovation_cap_c lets consecutive samples differ by "
                              f"{bound:.3f} C, beyond env.slow_change_cap_c")
    # the remote base station sits at the mean of the region centroids,
    # and every local station must reach it over the line-of-sight backbone
    if not cfg.backbone.range_km > 0:
        raise ValidationError("backbone.range_km must be positive")
    centroids = cfg.region_centroids()
    remote = GeoPoint(ordered_total(c.x_km for c in centroids.values()) / len(centroids),
                      ordered_total(c.y_km for c in centroids.values()) / len(centroids))
    for rid, centroid in centroids.items():
        distance = centroid.distance_to(remote)
        if distance > cfg.backbone.range_km:
            raise ValidationError(
                f"region {rid} local base station is {distance:.1f} km from the remote "
                f"base station, beyond backbone.range_km {cfg.backbone.range_km}"
            )
    if cfg.node_count_override is not None and cfg.node_count_override < 1:
        raise ValidationError("node_count_override must be at least 1 when set")
    node_count = cfg.nodes_per_region()
    total_nodes = node_count * len(cfg.regions)
    if total_nodes > MAX_NODES:
        raise ValidationError(
            f"{total_nodes} nodes in total exceed the central database's {MAX_NODES}-node key range"
        )
    for r in cfg.regions:
        try:
            plan = cfg.plan_region(r)
        except PlanningError as exc:
            raise ValidationError(
                f"region {r.region_id} cannot place {node_count} nodes in its "
                f"region_size_km {cfg.region_size_km} square: {exc}"
            ) from None
        if unreachable := connectivity_check(plan, cfg.link_range_km()):
            raise ValidationError(f"region {r.region_id} placement is disconnected: its sink "
                                  f"cannot reach cells {unreachable} at link range")
    if cfg.stagger_step_s < 0:
        raise ValidationError("stagger_step_s must be non-negative")
    # offsets for the deepest in-region index must stay inside one period
    if cfg.stagger_step_s and cfg.stagger_step_s * 16 >= cfg.reporting_period_s:
        raise ValidationError("stagger_step_s too large for the reporting period")
    try:
        cfg.thresholds.validate()
    except Exception as exc:
        raise ValidationError(f"thresholds not monotone: {exc}") from None
    if not 0 <= cfg.interest.start_s < cfg.horizon_s:
        raise ValidationError("interest.start_s must lie in [0, horizon_s): a sink launches "
                              "its interest while the run lasts")
    # these bounds end every chain of events after the horizon (README, "When a run ends")
    if not 1 <= cfg.interest.hop_limit <= 255:
        raise ValidationError("interest.hop_limit must be at least 1 and at most 255, an 8-bit "
                              "hop limit as in IPv6, so that every flooded copy dies out")
    duration = cfg.interest.duration_s
    if duration is not None and duration <= 0:
        raise ValidationError("interest.duration_s must be positive when set")
    if duration is not None and duration > cfg.longest_interest_s():
        raise ValidationError(f"interest.duration_s must be at most horizon_s + drain_window_s "
                              f"+ reporting_period_s = {cfg.longest_interest_s()}, its default, "
                              f"so that every gradient and the relays along it die out")
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
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return config_from_dict(data)

