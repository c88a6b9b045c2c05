import hashlib
import json
from dataclasses import replace

import pytest

from droughtnet.config import ScenarioConfig, validate
from droughtnet.geometry import GeoPoint
from droughtnet.runner import (
    build_binary_tree,
    build_scenario,
    compare_runs,
    run_scenario,
    simulate,
)
from droughtnet.stack import RoutingMode

from helpers import ReferenceStream

DAY = 86_400


def cfg_days(days, **over):
    return validate(replace(ScenarioConfig(), horizon_s=days * DAY, **over))


def test_two_day_run_conserves_every_report(tmp_path):
    rep = run_scenario(cfg_days(2), out_dir=tmp_path)
    cycles = 2 * DAY // 1800
    expected = 5 * 9 * cycles
    assert rep["record_count"] == expected
    for region in rep["per_region"].values():
        assert region["reports_originated"] == 9 * cycles
        assert region["central_records"] == 9 * cycles
        assert region["rf_losses"] == region["queue_losses"] == region["sleep_losses"] == 0
    for name in ("placement.json", "central_db.csv", "energy.csv", "run_report.json"):
        assert (tmp_path / name).exists()


def test_lossy_run_conservation_is_exact():
    rep = run_scenario(cfg_days(2, link=replace(ScenarioConfig().link, loss_prob=0.3)))
    cycles = 2 * DAY // 1800
    for region in rep["per_region"].values():
        losses = region["rf_losses"] + region["queue_losses"] + region["sleep_losses"]
        assert region["central_records"] + losses == 9 * cycles
        assert region["rf_losses"] > 0


def test_same_seed_reports_identical(tmp_path):
    a = run_scenario(cfg_days(2), out_dir=tmp_path / "a")
    b = run_scenario(cfg_days(2), out_dir=tmp_path / "b")
    a.pop("wall_clock_s")
    b.pop("wall_clock_s")
    assert a == b
    assert compare_runs(tmp_path / "a", tmp_path / "b") == []
    # the echoed output directory is where a run was written, not how
    for side in ("c", "d"):
        cfg = cfg_days(2).with_overrides(output_dir=str(tmp_path / side))
        run_scenario(cfg, out_dir=tmp_path / side)
    assert compare_runs(tmp_path / "c", tmp_path / "d") == []


def test_different_seed_diverges(tmp_path):
    a = run_scenario(cfg_days(2))
    b = run_scenario(validate(replace(ScenarioConfig(), horizon_s=2 * DAY, seed=43)))
    assert a["energy"] != b["energy"]


# SHA-256 of central_db.csv and energy.csv, and the event count, of
# 3-day seed-1 runs; a rewrite of the simulation hot path must leave
# every byte of them as it is
PINNED_3_DAY = {
    RoutingMode.TREE: (
        "e23ab016eaf240e111f08b5ec9d9fb50da4aebe44cae14fbaa678370d8360fe9",
        "efa24a187834305cc7ce219ee3b6c5dd9ca108e2d4a7315b298c68795ef3078c",
        38323,
    ),
    RoutingMode.COMBINED: (
        "2d24308d4991ad88ed26fbd4d240e539437dcc6f5e85c1248aadd73e2427b329",
        "9b0b9d29e923168e7e2fffd9cdbc3fd0842a78197647d072dfce11cb26622b2a",
        70518,
    ),
    RoutingMode.DIFFUSION: (
        "8625e60cc4d4016703844f5014f37fb8be8536fbf3c4710e250d4b3cfd0cdb84",
        "84322cb9379a868adbdf5fc4e1fcf77b700dff436524bcef882b263330a45563",
        28564,
    ),
    RoutingMode.FLOODING: (
        "263b3bfd3505b6658b1565cca41f45a76de6c50daaa3012fd909392c551fac64",
        "b3c5ee605285b999664d3308518037e063d809106451c4714fafbbfc7f20c13d",
        185371,
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED_3_DAY, key=lambda m: m.value), ids=lambda m: m.value)
def test_simulated_exports_pinned(tmp_path, mode):
    rep = run_scenario(cfg_days(3, seed=1, routing_mode=mode), out_dir=tmp_path)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("central_db.csv", "energy.csv")
    )
    assert (*digests, rep["event_count"]) == PINNED_3_DAY[mode]


# SHA-256 of trace.tsv of 2-day seed-1 runs over a latent, lossy backbone
# with the default ack timeout: every event's (time, seq, target, kind),
# transport retransmits and acks included
PINNED_2_DAY_TRACE = {
    RoutingMode.TREE: "b9595798be27dc3494e1b00788617f435b00427ff2702e30f8899ea31d8756cd",
    RoutingMode.COMBINED: "3e09fc376c20d0881eeb1e5080bdddfd7d0b1cf092fa95571e404932f4c0bbbe",
}
LOSSY_BACKBONE = replace(ScenarioConfig().backbone, latency_s=1, loss_prob=0.3)


@pytest.mark.parametrize("mode", sorted(PINNED_2_DAY_TRACE, key=lambda m: m.value),
                         ids=lambda m: m.value)
def test_event_trace_pinned(tmp_path, mode):
    cfg = cfg_days(2, seed=1, routing_mode=mode, backbone=LOSSY_BACKBONE, trace=True)
    run_scenario(cfg, out_dir=tmp_path)
    digest = hashlib.sha256((tmp_path / "trace.tsv").read_bytes()).hexdigest()
    assert digest == PINNED_2_DAY_TRACE[mode]


def test_backbone_ack_timeout_reaches_the_uplink(tmp_path):
    digests = {}
    for timeout in (2, 9):
        cfg = cfg_days(2, seed=1, backbone=replace(LOSSY_BACKBONE, ack_timeout_s=timeout))
        assert all(reg.station.uplink.ack_timeout_s == timeout
                   for reg in build_scenario(cfg).regions)
        run_scenario(cfg, out_dir=tmp_path / str(timeout))
        digests[timeout] = hashlib.sha256(
            (tmp_path / str(timeout) / "central_db.csv").read_bytes()).hexdigest()
    # retransmits wait for the timeout, so records reach the central
    # database in another order
    assert digests[2] != digests[9]


def test_compare_runs_flags_tampering(tmp_path):
    run_scenario(cfg_days(2), out_dir=tmp_path / "a")
    run_scenario(cfg_days(2), out_dir=tmp_path / "b")
    with open(tmp_path / "b" / "energy.csv", "a", encoding="utf-8") as fh:
        fh.write("tampered\n")
    problems = compare_runs(tmp_path / "a", tmp_path / "b")
    assert problems == ["energy.csv: byte mismatch"]


def test_placement_export_shape(tmp_path):
    run_scenario(cfg_days(2), out_dir=tmp_path)
    placement = json.loads((tmp_path / "placement.json").read_text())
    assert len(placement) == 5
    for region in placement:
        assert len(region["nodes"]) == 10
        assert sum(n["is_sink"] for n in region["nodes"]) == 1


# -- binary tree -----------------------------------------------------------------


def test_binary_tree_on_default_placement_is_valid():
    scn = build_scenario(cfg_days(2))
    for reg in scn.regions:
        parents = reg.tree_parents
        n = len(reg.nodes)
        assert set(parents) == set(range(1, n))
        children = {}
        for c, p in parents.items():
            children.setdefault(p, []).append(c)
        assert all(len(cs) <= 2 for cs in children.values())
        link_range = 2 * scn.cfg.radio_range_km
        for c, p in parents.items():
            d = reg.nodes[c].position.distance_to(reg.nodes[p].position)
            assert d <= link_range + 1e-9
            walk, seen = c, set()
            while walk != 0:
                assert walk not in seen
                seen.add(walk)
                walk = parents[walk]


def test_binary_tree_random_placements_reach_sink():
    rng = ReferenceStream(77, "placements")
    for trial in range(50):
        n = 2 + rng.randint(0, 10)
        pts = [GeoPoint(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(n)]
        parents = build_binary_tree(pts, link_range_km=10.0)
        children = {}
        for c, p in parents.items():
            children.setdefault(p, []).append(c)
        assert all(len(cs) <= 2 for cs in children.values())
        for c in range(1, n):
            walk = c
            while walk != 0:
                walk = parents[walk]


# -- full-scenario event-count oracle ------------------------------------------------


@pytest.mark.slow
def test_year_event_count_matches_schedule_oracle():
    # staggered wakes make the channel contention-free, so the processed
    # event count has a closed form: one wake per sample plus one
    # delivery per report-hop
    cfg = validate(replace(ScenarioConfig(), stagger_step_s=60))
    scn = build_scenario(cfg)
    processed = simulate(scn)

    cycles = cfg.horizon_s // cfg.reporting_period_s
    expected = 0
    for reg in scn.regions:
        parents = reg.tree_parents
        depth_sum = 0
        for child in parents:
            d, walk = 0, child
            while walk != 0:
                walk = parents[walk]
                d += 1
            depth_sum += d
        sensing = len(reg.nodes) - 1
        expected += cycles * (sensing + depth_sum)
    assert processed == expected
    assert len(scn.central) == 5 * 9 * cycles


@pytest.mark.parametrize("loss", [0.0, 0.2])
def test_tree_run_keeps_no_duplicate_cache(loss):
    # a tree report crosses each hop once, by unicast, with no link-layer
    # retransmission, so pure tree mode never caches a signature and no
    # node ever sees one twice
    scn = build_scenario(cfg_days(3, link=replace(ScenarioConfig().link, loss_prob=loss)))
    simulate(scn)
    assert all(not node.data_cache for node in scn.all_nodes())
    assert [reg.counters.duplicate_relay_drops for reg in scn.regions] == [0] * 5
    if loss:
        assert sum(reg.counters.rf_losses for reg in scn.regions) > 0


# -- combined mode -----------------------------------------------------------------


def test_combined_mode_dedupes_diffusion_copies():
    cfg = cfg_days(2, routing_mode=RoutingMode.COMBINED)
    rep = run_scenario(cfg)
    cycles = 2 * DAY // 1800
    # tree reports cover every sample; diffusion copies of the same
    # (region, node, timestamp) keys are rejected at the central store
    assert rep["record_count"] == 5 * 9 * cycles
    assert sum(r["central_duplicates"] for r in rep["per_region"].values()) > 0


def test_latent_uplink_acks_every_stored_copy():
    # combined mode stores a tree copy and a diffusion copy of each
    # reading; each copy's own ack must mark it, or the store never evicts
    cfg = validate(replace(
        cfg_days(3, seed=1, routing_mode=RoutingMode.COMBINED, local_db_capacity=50),
        backbone=replace(ScenarioConfig().backbone, latency_s=5),
    ))
    scn = build_scenario(cfg)
    simulate(scn)
    stored = scn.central.region_counts()
    for reg in scn.regions:
        station = reg.station
        assert station.uplink.abandoned == 0
        # every copy reached the central store (kept or counted duplicate),
        # and the store evicts only acked entries, so all were acked
        arrived = stored[reg.region_id] + scn.central.duplicates_by_region.get(reg.region_id, 0)
        assert arrived == station.ingested > 2 * 50
        assert all(acked for _, acked in station.local_db), reg.region_id
        assert len(station.local_db) <= 50


def test_diffusion_mode_runs_end_to_end():
    rep = run_scenario(cfg_days(2, routing_mode=RoutingMode.DIFFUSION))
    cycles = 2 * DAY // 1800
    # the interest reaches nodes a few seconds after the first sampling
    # tick, so reporting starts one cycle late
    assert rep["record_count"] == 5 * 9 * (cycles - 1)
    for region in rep["per_region"].values():
        assert region["reports_delivered"] == 9 * (cycles - 1)


# -- plot data --------------------------------------------------------------------


def test_single_window_run_plots_one_row_per_region(tmp_path):
    run_scenario(cfg_days(35), out_dir=tmp_path)
    lines = (tmp_path / "plots_temperature.csv").read_text().splitlines()
    assert len(lines) == 1 + 5  # header + one window per region
    assert (tmp_path / "pattern.csv").read_text().splitlines()[1:] == []


def test_plot_energy_round_trips_report_values(tmp_path):
    rep = run_scenario(cfg_days(2), out_dir=tmp_path)
    lines = (tmp_path / "plots_energy.csv").read_text().splitlines()[1:]
    by_node = {}
    for line in lines:
        parts = line.split(",")
        by_node[int(parts[0])] = tuple(float(v) for v in parts[2:6])
    for row in rep["energy"]:
        assert by_node[row["node_id"]] == (
            row["tx_mJ"], row["rx_mJ"], row["idle_mJ"], row["sensing_mJ"]
        )


def test_truth_dump_daily_summaries(tmp_path):
    run_scenario(cfg_days(2, truth_dump=True), out_dir=tmp_path)
    lines = (tmp_path / "truth_daily.csv").read_text().splitlines()
    assert lines[0] == "region,day,temp_min_C,temp_max_C,temp_mean_C,precip_total_mm"
    assert len(lines) == 1 + 5 * 2  # five regions x two days
    for line in lines[1:]:
        region, day, lo, hi, mean, precip = line.split(",")
        assert float(lo) <= float(mean) <= float(hi)
        if region == "3":
            assert float(precip) == 0.0
