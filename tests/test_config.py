import hashlib
import json
import re
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import pytest

from droughtnet.config import (
    ParseError,
    ScenarioConfig,
    ValidationError,
    config_from_dict,
    config_to_dict,
    load_config,
    validate,
)
from droughtnet.geometry import CellShape, GeoPoint, PlacementPlan
from droughtnet.stack import RoutingMode


def write(tmp_path, text):
    p = tmp_path / "scenario.json"
    p.write_text(text, encoding="utf-8")
    return p


def test_empty_file_gives_canonical_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg.seed == 42
    assert cfg.horizon_s == 31_536_000
    assert cfg.reporting_period_s == 1800
    assert cfg.routing_mode is RoutingMode.TREE
    assert cfg.cell_shape is CellShape.HEXAGON
    assert len(cfg.regions) == 5
    droughts = {r.region_id: r.drought for r in cfg.regions}
    assert droughts[3].precipitation_scale == 0.0
    assert droughts[3].temperature_anomaly_c == 3.0
    assert droughts[4].temperature_anomaly_c == 1.5
    assert droughts[1].temperature_anomaly_c == 0.0


def test_fast_reporting_needs_override_flag(tmp_path):
    with pytest.raises(ValidationError, match="reporting_period_s"):
        load_config(write(tmp_path, '{"reporting_period_s": 60}'))
    cfg = load_config(write(tmp_path, '{"reporting_period_s": 60, "allow_fast_reporting": true}'))
    assert cfg.reporting_period_s == 60


def test_malformed_numeric_is_parse_error_with_location(tmp_path):
    path = write(tmp_path, '{\n  "seed": 12e+,\n  "horizon_s": 100\n}')
    with pytest.raises(ParseError, match=r":2:"):
        load_config(path)
    with pytest.raises(ParseError, match=r"scenario\.json: top level must be an object$"):
        load_config(write(tmp_path, "[1]"))


def test_wrong_type_names_key(tmp_path):
    with pytest.raises(ValidationError, match="seed"):
        load_config(write(tmp_path, '{"seed": "abc"}'))
    with pytest.raises(ValidationError, match="loss_prob"):
        load_config(write(tmp_path, '{"link": {"loss_prob": true}}'))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ValidationError, match="typo_key"):
        load_config(write(tmp_path, '{"typo_key": 1}'))
    with pytest.raises(ValidationError, match="mac"):
        load_config(write(tmp_path, '{"mac": {"frames": 2}}'))


def test_enum_values_validated(tmp_path):
    with pytest.raises(ValidationError, match="routing_mode"):
        load_config(write(tmp_path, '{"routing_mode": "carrier-pigeon"}'))
    with pytest.raises(ValidationError, match="cell_shape"):
        load_config(write(tmp_path, '{"cell_shape": "blob"}'))


def test_invariant_checks():
    with pytest.raises(ValidationError, match="loss_prob"):
        config_from_dict({"link": {"loss_prob": 1.5}})
    with pytest.raises(ValidationError, match="thresholds"):
        config_from_dict({"thresholds": {"precip_serious_mm": 60.0}})
    with pytest.raises(ValidationError, match="unique"):
        config_from_dict({"regions": [{"region_id": 1}, {"region_id": 1}]})
    with pytest.raises(ValidationError, match="map"):
        config_from_dict({"regions": [{"region_id": 1, "anchor_km": [95.0, 0.0]}]})
    with pytest.raises(ValidationError, match="queue_cap_frames"):
        config_from_dict({"mac": {"queue_cap_frames": 1}})
    with pytest.raises(ValidationError, match="ack_timeout_s must be at least 1"):
        config_from_dict({"backbone": {"ack_timeout_s": 0}})
    assert config_from_dict({"backbone": {"ack_timeout_s": 1}}).backbone.ack_timeout_s == 1
    with pytest.raises(ValidationError, match="max_retries must be non-negative"):
        config_from_dict({"backbone": {"max_retries": -1}})
    assert config_from_dict({"backbone": {"max_retries": 0}}).backbone.max_retries == 0
    # central-database storage limits: signed-byte region ids, 14-bit node ids
    with pytest.raises(ValidationError, match=r"region_id 200 outside \[-128, 127\]"):
        config_from_dict({"regions": [{"region_id": 200}]})
    assert config_from_dict({"regions": [{"region_id": 127}]}).regions[0].region_id == 127
    with pytest.raises(ValidationError, match="16385 nodes .* 16384-node"):
        config_from_dict({"node_count_override": 16385, "regions": [{"region_id": 1}]})
    with pytest.raises(ValidationError, match="16400 nodes"):
        config_from_dict({"node_count_override": 3280})  # five regions
    # 16,384 cells need a radio range small enough to fit the 12 km square
    cfg = config_from_dict({"node_count_override": 16384, "radio_range_km": 0.05,
                            "regions": [{"region_id": 1}]})
    assert cfg.nodes_per_region() == 16384
    assert config_from_dict({"horizon_s": 172800}).nodes_per_region() == 10
    with pytest.raises(ValidationError, match="circles leave gaps"):
        config_from_dict({"cell_shape": "circle"})
    with pytest.raises(ValidationError, match="node_count 5 below coverage estimate 9"):
        config_from_dict({"node_count_override": 5})


@pytest.mark.parametrize("size_km", [4.0, 10.0])
@pytest.mark.parametrize("shape", list(CellShape), ids=lambda c: c.value)
def test_region_square_must_hold_every_cell(shape, size_km):
    # the node count covers 100 km² in any square, so no square of that
    # area or less fits the cells, whatever their shape
    square = re.escape(f"region_size_km {size_km} square")
    with pytest.raises(ValidationError, match=rf"cannot place \d+ nodes .* {square}"):
        config_from_dict({"horizon_s": 172800, "region_size_km": size_km,
                          "cell_shape": shape.value})


@pytest.mark.parametrize("data, message", [
    # each of these passed validate() and then crashed the run
    ({"data_cache_cap": 0}, "data_cache_cap must be at least 1"),
    ({"interest": {"start_s": -1}}, r"interest.start_s must lie in \[0, horizon_s\)"),
    # used to validate, and then the run died after simulating region 1
    # with its interest still queued past the run's end
    ({"horizon_s": 172800, "interest": {"start_s": 172800}},
     r"interest.start_s must lie in \[0, horizon_s\)"),
    ({"interest": {"duration_s": 0}}, "interest.duration_s must be positive"),
    ({"interest": {"hop_limit": 0}}, "interest.hop_limit must be at least 1"),
    # and these could keep a region's queue from emptying
    ({"interest": {"hop_limit": 256}}, "interest.hop_limit must be at least 1 and at most 255, "),
    ({"horizon_s": 172800, "interest": {"duration_s": 178_201}},
     r"interest.duration_s must be at most horizon_s \+ drain_window_s \+ reporting_period_s "
     r"= 178200, its default"),
    # and these ran, but meant nothing
    ({"local_db_capacity": 0}, "local_db_capacity must be at least 1"),
    ({"local_db_capacity": -5}, "local_db_capacity must be at least 1"),
    ({"drain_window_s": -5}, "drain_window_s must be non-negative"),
    ({"energy": {"e_elec_nj_per_bit": -1}}, "energy.e_elec_nj_per_bit must be non-negative"),
    ({"energy": {"e_amp_pj_per_bit_km2": -1}}, "energy.e_amp_pj_per_bit_km2 must be"),
    ({"energy": {"e_sense_uj": -0.5}}, "energy.e_sense_uj must be non-negative"),
    ({"energy": {"p_idle_uw": -30}}, "energy.p_idle_uw must be non-negative"),
], ids=["data_cache_cap", "interest_start", "interest_start_at_horizon", "interest_duration",
        "interest_hop_limit", "hop_limit_past_8_bits", "duration_past_default", "local_db_zero",
        "local_db_negative", "drain_window", "e_elec", "e_amp", "e_sense", "p_idle"])
def test_configs_that_cannot_run_meaningfully_rejected(data, message):
    with pytest.raises(ValidationError, match=message):
        config_from_dict({"routing_mode": "diffusion", **data})


@pytest.mark.parametrize("data, message", [
    # the placement and the analytics rely on these bounds and check them nowhere else
    ({"radio_range_km": 0}, "^radio_range_km must be positive$"),
    ({"radio_range_km": -1.5}, "^radio_range_km must be positive$"),
    ({"window_days": 29}, "^window_days must be at least 30$"),
    # 0 used to be accepted, echoed and then ignored (10 nodes placed),
    # and -3 was rejected only inside the placement
    ({"node_count_override": 0}, "^node_count_override must be at least 1 when set$"),
    ({"node_count_override": -3}, "^node_count_override must be at least 1 when set$"),
    ({"horizon_s": 0}, "^horizon_s must be positive$"),
    ({"reporting_period_s": 0}, "^reporting_period_s must be positive$"),
    ({"horizon_s": 172800, "reporting_period_s": 172800},
     "^reporting_period_s must be below horizon_s$"),
    ({"region_size_km": 0}, "^region_size_km must be positive$"),
    ({"link": {"loss_prob": -0.1}}, r"^link\.loss_prob must lie in \[0, 1\]$"),
    ({"backbone": {"loss_prob": 1.5}}, r"^backbone\.loss_prob must lie in \[0, 1\]$"),
    ({"link": {"delay_s": -1}}, "^link delays must be non-negative$"),
    ({"backbone": {"latency_s": -1}}, "^link delays must be non-negative$"),
    ({"payload_bytes": 0}, r"^payload_bytes and mac\.max_frame_bytes must be positive$"),
    ({"mac": {"max_frame_bytes": 0}}, r"^payload_bytes and mac\.max_frame_bytes must be positive$"),
    ({"mac": {"queue_cap_frames": 1}}, r"^mac\.queue_cap_frames cannot hold a single report$"),
    ({"mac": {"backoff_slots": 0}}, r"^mac\.backoff_slots must be at least 1$"),
    ({"regions": []}, "^at least one region is required$"),
    ({"regions": [{"region_id": 2}, {"region_id": 2}]}, "^region_id values must be unique$"),
    ({"regions": [{"region_id": 1, "anchor_km": [0.0, 90.0]}]}, "^region 1 square leaves the map$"),
    ({"regions": [{"region_id": 1, "climatology": {"monthly_precip_mm": -1.0}}]},
     "^region 1 climatology normals must be non-negative$"),
    ({"regions": [{"region_id": 2, "drought": {"precipitation_scale": 1.5}}]},
     r"^region 2 precipitation_scale must lie in \[0, 1\]$"),
    ({"stagger_step_s": -1}, "^stagger_step_s must be non-negative$"),
    # 16 ranks of 113 s reach past one 1800 s period
    ({"stagger_step_s": 113}, "^stagger_step_s too large for the reporting period$"),
    ({"thresholds": {"temp_slight_c": 3.0}}, "^thresholds not monotone: "),
], ids=["range_zero", "range_negative", "window_29_days", "node_count_zero",
        "node_count_negative", "horizon_zero", "period_zero", "period_at_horizon",
        "region_size_zero", "link_loss_negative", "backbone_loss_above_one",
        "link_delay_negative", "backbone_latency_negative", "payload_zero", "frame_zero",
        "queue_cap_one_frame", "backoff_zero", "no_regions", "duplicate_region",
        "square_off_map", "negative_normals", "precipitation_scale", "stagger_negative",
        "stagger_past_period", "thresholds"])
def test_bounds_checked_only_by_validate(data, message):
    with pytest.raises(ValidationError, match=message):
        config_from_dict(data)


CAP_EXCEEDED = r"env.noise_innovation_cap_c lets consecutive samples differ by {} C, " \
    r"beyond env.slow_change_cap_c"


@pytest.mark.parametrize("data, message", [
    ({"env": {"noise_rho": 1.0}}, r"env.noise_rho must lie in \[0, 1\)"),
    ({"env": {"noise_rho": -0.1}}, r"env.noise_rho must lie in \[0, 1\)"),
    ({"env": {"noise_innovation_cap_c": 0.75}}, CAP_EXCEEDED.format(r"1\.504")),
    ({"env": {"noise_innovation_cap_c": -0.75}}, CAP_EXCEEDED.format(r"1\.504")),
    ({"env": {"slow_change_cap_c": 1.4}}, CAP_EXCEEDED.format(r"1\.404")),
    # a weekly period steps the default seasonal curve by up to 0.964 C
    ({"reporting_period_s": 7 * 86_400}, CAP_EXCEEDED.format(r"2\.365")),
    ({"regions": [{"region_id": 1, "climatology": {"seasonal_amplitude_c": 300.0}}]},
     CAP_EXCEEDED.format(r"1\.509")),
], ids=["rho_one", "rho_negative", "innovation_cap", "negative_cap", "slow_cap", "weekly",
        "amplitude"])
def test_slow_change_cap_is_a_checked_bound(data, message):
    with pytest.raises(ValidationError, match=message):
        config_from_dict(data)


def test_noise_settings_within_the_slow_change_cap_accepted():
    # the defaults: 2 * 0.7 + 8 * 2 pi * 1800 / YEAR_S + 0.001 = 1.404 C, under 1.5 C
    assert config_from_dict({}).env.slow_change_cap_c == 1.5
    cfg = config_from_dict({"env": {"noise_innovation_cap_c": 0.74, "noise_rho": 0.0}})
    assert (cfg.env.noise_innovation_cap_c, cfg.env.noise_rho) == (0.74, 0.0)


def test_smallest_meaningful_values_accepted():
    cfg = config_from_dict({
        "routing_mode": "diffusion", "data_cache_cap": 1, "local_db_capacity": 1,
        "drain_window_s": 0, "interest": {"start_s": 0, "duration_s": 1},
        "energy": {"e_elec_nj_per_bit": 0, "e_amp_pj_per_bit_km2": 0,
                   "e_sense_uj": 0, "p_idle_uw": 0, "battery_mj": 0},
    })
    assert (cfg.data_cache_cap, cfg.local_db_capacity, cfg.drain_window_s) == (1, 1, 0)


def test_largest_interest_bounds_accepted():
    # the default lifetime, 2 days plus the 3600 s drain window and one
    # 1800 s period, is the longest; the rejections one past each bound
    # are rows of test_configs_that_cannot_run_meaningfully_rejected
    cfg = config_from_dict({"horizon_s": 172800, "routing_mode": "diffusion",
                            "interest": {"hop_limit": 255, "duration_s": 178_200}})
    assert (cfg.interest.hop_limit, cfg.interest.duration_s) == (255, 178_200)
    assert cfg.longest_interest_s() == 178_200


def test_disconnected_placement_rejected(monkeypatch):
    """No shape, range and count that validate tiles leaves a cell out of
    link range, so a plan with a far cell stands in for one."""
    def plan_region(cfg, region):
        return PlacementPlan(region.region_id, CellShape.HEXAGON, cfg.radio_range_km,
                             [GeoPoint(7.0, 6.0), GeoPoint(6.0, 11.0)], GeoPoint(6.0, 6.0))

    monkeypatch.setattr(ScenarioConfig, "plan_region", plan_region)
    with pytest.raises(ValidationError, match=r"^region 2 placement is disconnected: its sink "
                                              r"cannot reach cells \[2\] at link range$"):
        config_from_dict({"regions": [{"region_id": 2}]})


def test_horizon_past_the_timestamp_field_rejected():
    """This config ran, and its 45 readings at t = 2^40 overflowed the
    central key's 40-bit timestamp into a duplicate of the next node's
    reading at t = 0; a horizon past 2^36 s is now rejected up front."""
    flat = [{"region_id": r.region_id, "climatology": {"seasonal_amplitude_c": 0.0}}
            for r in ScenarioConfig().regions]
    data = {"horizon_s": 2**40 + 1, "reporting_period_s": 2**40, "regions": flat}
    with pytest.raises(ValidationError, match=r"horizon_s exceeds 2\^36 s, the 36-bit timestamp field"):
        config_from_dict(data)
    with pytest.raises(ValidationError, match="horizon_s exceeds"):
        config_from_dict({**data, "horizon_s": 2**36 + 1, "reporting_period_s": 2**35})
    assert config_from_dict({**data, "horizon_s": 2**36, "reporting_period_s": 2**35}).horizon_s == 2**36


def test_backbone_range_bounds():
    # the remote base station sits at the mean of the region centroids,
    # (50, 50) on the default layout, 62.2 km from each corner region's
    # local station
    with pytest.raises(ValidationError, match=r"region 1 local base station is 62\.2 km .* "
                                              r"beyond backbone\.range_km 62\.0"):
        config_from_dict({"backbone": {"range_km": 62}})
    for range_km in (63, 120):
        assert config_from_dict({"backbone": {"range_km": range_km}}).backbone.range_km == range_km
    for range_km in (0, -1):
        with pytest.raises(ValidationError, match="backbone.range_km must be positive"):
            config_from_dict({"backbone": {"range_km": range_km}})


def test_station_to_itself_in_range():
    # one region: its local station sits on the remote station
    for range_km in (0.001, 120):
        cfg = config_from_dict({"backbone": {"range_km": range_km},
                                "regions": [{"region_id": 2}]})
        assert cfg.region_centroids() == {2: GeoPoint(94.0, 6.0)}
    with pytest.raises(ValidationError, match="backbone.range_km must be positive"):
        config_from_dict({"backbone": {"range_km": 0}, "regions": [{"region_id": 2}]})


def test_partial_region_entry_inherits_defaults():
    cfg = config_from_dict({"regions": [{"region_id": 3, "drought": {"temperature_anomaly_c": 5.0}}]})
    r3 = cfg.regions[0]
    assert r3.drought.temperature_anomaly_c == 5.0
    assert r3.drought.precipitation_scale == 0.0  # inherited from the region-3 default
    assert r3.anchor_km == (44.0, 44.0)


def test_round_trip_through_dict(tmp_path):
    src = {
        "seed": 7,
        "horizon_s": 86_400 * 40,
        "routing_mode": "diffusion",
        "link": {"delay_s": 2, "loss_prob": 0.1},
        "thresholds": {"precip_slight_mm": 55.0},
        "interest": {"hop_limit": 4},
        "regions": [
            {"region_id": 1},
            {"region_id": 2, "climatology": {"mean_temp_c": 21.0}},
        ],
    }
    cfg = config_from_dict(src)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_cli_style_overrides():
    cfg = validate(ScenarioConfig()).with_overrides(seed=99, routing_mode="flooding", output_dir="x")
    assert cfg.seed == 99
    assert cfg.routing_mode is RoutingMode.FLOODING
    assert cfg.output_dir == "x"


def test_config_echo_is_json_serialisable():
    echo = config_to_dict(validate(ScenarioConfig()))
    assert json.loads(json.dumps(echo)) == echo


@pytest.mark.parametrize("data, message", [
    ({"link": 5}, "link must be an object"),
    ({"interest": 3}, "interest must be an object"),
    ({"regions": [5]}, r"regions\[0\] must be an object"),
    ({"regions": [{"region_id": 1, "anchor_km": ["a", 0]}]}, r"regions\[0\]\.anchor_km\[0\]"),
    ({"regions": [{"region_id": 1, "anchor_km": [True, 0]}]}, r"regions\[0\]\.anchor_km\[0\]"),
    ({"regions": [{"region_id": 1, "anchor_km": [1.0]}]}, r"regions\[0\]\.anchor_km must be a list of 2"),
    # a retired key is an unknown one
    ({"interest": {"attributes": ["temperature_c"]}}, r"unknown key\(s\) in interest: \['attributes'\]"),
    # json reads NaN and Infinity: a NaN range died in validate() inside
    # math.ceil, and the others validated
    ({"radio_range_km": float("nan")}, "^radio_range_km must be a finite number, got nan$"),
    ({"env": {"noise_sigma_c": float("nan")}}, r"^env\.noise_sigma_c must be a finite number"),
    ({"energy": {"battery_mj": float("inf")}}, r"^energy\.battery_mj must be a finite number, got inf$"),
    # json reads integers of any size: these died in float() with an OverflowError
    ({"radio_range_km": 10**400},
     "^radio_range_km must be a finite number, got an integer too large for a float$"),
    ({"env": {"noise_sigma_c": 10**400}}, r"^env\.noise_sigma_c must be a finite number"),
    # used to validate, and then a 2-day run died in NodeSampler.sample
    # comparing the sample time with None
    ({"regions": [{"region_id": 3, "drought": {"active_start_s": None}}]},
     r"regions\[0\]\.drought\.active_start_s must be a number"),
    ({"regions": [{"anchor_km": [0.0, 0.0]}]}, r"^regions\[0\] needs a region_id$"),
    ({"trace": 1}, "^trace must be true/false, got 1$"),
    ({"output_dir": 5}, "^output_dir must be a string, got 5$"),
    ({"seed": 1.5}, "^seed must be an integer, got 1.5$"),
], ids=["link_not_object", "interest_not_object", "region_not_object", "anchor_str",
        "anchor_bool", "anchor_length", "retired_key", "nan", "nested_nan", "infinity",
        "huge_int", "nested_huge_int", "active_start_null", "region_without_id", "bool_key",
        "string_key", "fractional_integer"])
def test_malformed_config_rejected_naming_key(data, message):
    with pytest.raises(ValidationError, match=message):
        config_from_dict(data)


# SHA-256 of the default config's echo, as every stored run report holds it
# (the reports of older versions also echo the retired interest.attributes)
DEFAULT_ECHO_SHA256 = "9386b3534988c13e7933fa8836a762cf3e3b1f75b99e7cb6c8e2b741a16a7fe2"
# and of _all_fields_config(), which older code echoed byte for byte the same
ALL_FIELDS_ECHO_SHA256 = "32067f6974bf87f4c3af4633753c836d87ad1033b6b241775ccadbdad9637491"


def _echo_sha256(cfg) -> str:
    text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_echo_pinned():
    assert _echo_sha256(validate(ScenarioConfig())) == DEFAULT_ECHO_SHA256


def _other_value(kind, default):
    """A valid value of type ``kind`` that differs from ``default``, in
    every leaf of a dataclass."""
    if isinstance(kind, UnionType):  # X | None
        (kind,) = [k for k in get_args(kind) if k is not type(None)]
        if default is None:
            return kind(1)
    if is_dataclass(kind):
        types = get_type_hints(kind)
        return replace(default, **{f.name: _other_value(types[f.name], getattr(default, f.name))
                                   for f in fields(kind)})
    if get_origin(kind) is tuple:
        kinds = get_args(kind)
        if kinds[-1] is not Ellipsis:
            return tuple(_other_value(k, v) for k, v in zip(kinds, default))
        if is_dataclass(kinds[0]):
            return tuple(_other_value(kinds[0], v) for v in default[1:])
        return default[1:]
    if issubclass(kind, Enum):
        return [m for m in kind if m != default][-1]
    if kind is bool:
        return not default
    if kind is str:
        return default + "-x"
    if kind is int:
        return default + 1
    return default * 0.75 + 0.01


def _all_fields_config() -> ScenarioConfig:
    return validate(_other_value(ScenarioConfig, ScenarioConfig()))


def _assert_echo_keys(echo, value):
    if is_dataclass(value):
        assert list(echo) == [f.name for f in fields(value)]
        for f in fields(value):
            _assert_echo_keys(echo[f.name], getattr(value, f.name))
    elif isinstance(value, tuple):
        assert len(echo) == len(value)
        for e, v in zip(echo, value):
            _assert_echo_keys(e, v)


def _leaves(echo, key=""):
    if isinstance(echo, dict):
        for k, v in echo.items():
            yield from _leaves(v, f"{key}.{k}")
    elif isinstance(echo, list) and echo and isinstance(echo[0], dict):
        for i, v in enumerate(echo):
            yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, echo


def test_every_field_round_trips():
    cfg = _all_fields_config()
    echo = config_to_dict(cfg)
    _assert_echo_keys(echo, cfg)
    # no leaf keeps its default, so a field the parser skips fails the
    # round trip; regions[i] is derived from default region i + 1
    default = validate(ScenarioConfig())
    base = config_to_dict(replace(default, regions=default.regions[1:]))
    kept = [k for (k, a), (_, b) in zip(_leaves(echo), _leaves(base)) if a == b]
    assert not kept
    assert config_from_dict(json.loads(json.dumps(echo))) == cfg
    assert _echo_sha256(cfg) == ALL_FIELDS_ECHO_SHA256


def test_readme_configuration_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```json\n(.*?)```", section, re.S)
    assert block, "no JSON example under README's Configuration heading"
    config_from_dict(json.loads(block.group(1)))
