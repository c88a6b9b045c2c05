import hashlib
import json
import os
import signal
import time
from dataclasses import replace
from multiprocessing.context import ForkProcess

import pytest

from droughtnet.config import ScenarioConfig, validate
from droughtnet.geometry import GeoPoint
from droughtnet.runner import (
    RunError,
    build_binary_tree,
    build_scenario,
    compare_runs,
    run_scenario,
    simulate,
)
from droughtnet.stack import OrphanNode, RoutingMode, SensorNode

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
        "5e8aeced85bfba00235d93cb139874e5c39d325cb626dc28076fe0b54d3b159f",
        "efa24a187834305cc7ce219ee3b6c5dd9ca108e2d4a7315b298c68795ef3078c",
        38323,
    ),
    RoutingMode.COMBINED: (
        "bf27ee6e3f056be8377b613e91eebed596245abe8625c0e3f1e5891627fe8871",
        "9b0b9d29e923168e7e2fffd9cdbc3fd0842a78197647d072dfce11cb26622b2a",
        70518,
    ),
    RoutingMode.DIFFUSION: (
        "72c69ffa6b45ba7255016f7bedb181607988475eb0334bbea53bb9658fc02244",
        "84322cb9379a868adbdf5fc4e1fcf77b700dff436524bcef882b263330a45563",
        28564,
    ),
    RoutingMode.FLOODING: (
        "3fe46d9b062a8688962a7fc0de7961d0a179f1708a1351eae539851fed394fac",
        "b3c5ee605285b999664d3308518037e063d809106451c4714fafbbfc7f20c13d",
        185371,
    ),
}
# SHA-256 of the sorted lines of the same central_db.csv files: the rows
# as a set, whatever their order; taken when the regions still shared
# one kernel and their rows interleaved, and unchanged since
PINNED_3_DAY_SORTED_DB = {
    RoutingMode.TREE: "abc2a7ca46689ecc6fa98483885f612ff28a10a7f631e4d57c785c4dec432eb4",
    RoutingMode.COMBINED: "adfd91d398abaa645f9e3957a977ca018ecdccb92493f8d322959063ea92a1da",
    RoutingMode.DIFFUSION: "63139ea9a56c86f6ca096303f7a55910b32343ce8f8c08f3e5e400f8d3930e55",
    RoutingMode.FLOODING: "60d87bd31f7036b47922137748bde5904028dcf416c1628183cd5be3149241f5",
}


def sorted_lines_digest(lines) -> str:
    return hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(PINNED_3_DAY, key=lambda m: m.value), ids=lambda m: m.value)
def test_simulated_exports_pinned(tmp_path, mode):
    rep = run_scenario(cfg_days(3, seed=1, routing_mode=mode), out_dir=tmp_path)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("central_db.csv", "energy.csv")
    )
    assert (*digests, rep["event_count"]) == PINNED_3_DAY[mode]
    db_lines = (tmp_path / "central_db.csv").read_text().splitlines(keepends=True)
    assert sorted_lines_digest(db_lines) == PINNED_3_DAY_SORTED_DB[mode]
    # region-major: each region's rows in one block, in config order
    regions = [int(line.split(",", 1)[0]) for line in db_lines[1:]]
    assert regions == sorted(regions)


# SHA-256 of trace.tsv of 2-day seed-1 runs over a latent, lossy backbone
# with the default ack timeout: every event's (time, seq, target, kind),
# transport retransmits and acks included
PINNED_2_DAY_TRACE = {
    RoutingMode.TREE: "4edac57497b671d47b321f86cfb64ce33d718f7594d0042706f51537c042c207",
    RoutingMode.COMBINED: "9279666d54628cbf97928f17b754206d622af46e6bd5c402f9f72012eb60d5bf",
}
# SHA-256 of the same traces' lines with seq dropped, sorted: the events
# as a multiset; taken, like PINNED_3_DAY_SORTED_DB, under one kernel
PINNED_2_DAY_TRACE_SORTED = {
    RoutingMode.TREE: "4ee6b5dbe8d0968e920e9a9d08c4950400c6c391f2c6052f39321591c4b58fff",
    RoutingMode.COMBINED: "7a63c650efaec5186f72c77fe6d6e21891642ae9c4f21d3498a81b57a891ee27",
}
LOSSY_BACKBONE = replace(ScenarioConfig().backbone, latency_s=1, loss_prob=0.3)


@pytest.mark.parametrize("mode", sorted(PINNED_2_DAY_TRACE, key=lambda m: m.value),
                         ids=lambda m: m.value)
def test_event_trace_pinned(tmp_path, mode):
    cfg = cfg_days(2, seed=1, routing_mode=mode, backbone=LOSSY_BACKBONE, trace=True)
    run_scenario(cfg, out_dir=tmp_path)
    digest = hashlib.sha256((tmp_path / "trace.tsv").read_bytes()).hexdigest()
    assert digest == PINNED_2_DAY_TRACE[mode]
    events = []
    for line in (tmp_path / "trace.tsv").read_text().splitlines():
        fire_at, _seq, target, tag = line.split("\t")
        events.append(f"{fire_at}\t{target}\t{tag}\n")
    assert sorted_lines_digest(events) == PINNED_2_DAY_TRACE_SORTED[mode]


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
def test_tree_run_keeps_no_duplicate_cache(loss, cpus):
    # a tree report crosses each hop once, by unicast, with no link-layer
    # retransmission, so pure tree mode never caches a signature and no
    # node ever sees one twice; one process, so the nodes read here are
    # the ones that ran
    cpus(1)
    scn = build_scenario(cfg_days(3, link=replace(ScenarioConfig().link, loss_prob=loss)))
    simulate(scn)
    assert all(not node.data_cache for reg in scn.regions for node in reg.nodes)
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


def test_latent_uplink_acks_every_stored_copy(cpus):
    # combined mode stores a tree copy and a diffusion copy of each
    # reading; each copy's own ack must mark it, or the store never evicts
    cpus(1)  # the stations read here must be the ones that ran
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


# -- processes --------------------------------------------------------------------


@pytest.fixture
def started(monkeypatch):
    """The child processes started during the test, in order."""
    processes = []
    start = ForkProcess.start
    monkeypatch.setattr(ForkProcess, "start", lambda self: (processes.append(self), start(self)))
    return processes


@pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
def test_exports_identical_for_every_process_count(tmp_path, cpus, started, mode):
    cfg = cfg_days(3, seed=1, routing_mode=mode, trace=True, truth_dump=True)
    for n in (1, 2, 5):
        cpus(n)
        del started[:]
        run_scenario(cfg, out_dir=tmp_path / str(n))
        assert len(started) == n - 1
    assert compare_runs(tmp_path / "1", tmp_path / "2") == []
    assert compare_runs(tmp_path / "1", tmp_path / "5") == []


def on_finalize(monkeypatch, actions):
    """Make SensorNode.finalize first call ``actions[region_id]``, if any."""
    finalize = SensorNode.finalize

    def patched(self, end_time):
        action = actions.get(self.region_id)
        if action is not None:
            action()
        finalize(self, end_time)

    monkeypatch.setattr(SensorNode, "finalize", patched)


def raiser(exc):
    def action():
        raise exc
    return action


def test_raise_in_a_child_is_raised_again(cpus, monkeypatch):
    cpus(2)  # regions 1-3 here, 4-5 in a child
    on_finalize(monkeypatch, {5: raiser(OrphanNode("lost in region 5"))})
    with pytest.raises(OrphanNode, match="^lost in region 5$") as raised:
        simulate(build_scenario(cfg_days(1)))
    assert "regions [4, 5]" in str(raised.value.__cause__)
    assert "lost in region 5" in str(raised.value.__cause__)  # the child's traceback


def test_child_that_dies_unheard_is_a_run_error(cpus, monkeypatch):
    cpus(2)
    on_finalize(monkeypatch, {4: lambda: os._exit(3)})
    with pytest.raises(RunError, match=r"regions \[4, 5\] exited with code 3 before it sent all it had"):
        simulate(build_scenario(cfg_days(1)))


def test_raise_in_this_process_stops_and_reaps_the_children(cpus, monkeypatch, started):
    cpus(5)

    def stall():
        time.sleep(60)

    on_finalize(monkeypatch, {1: raiser(ValueError("region 1")), 2: stall, 3: stall,
                              4: stall, 5: stall})
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="^region 1$"):
        simulate(build_scenario(cfg_days(1)))
    assert time.monotonic() - t0 < 30
    assert [child.exitcode for child in started] == [-signal.SIGTERM] * 4


def test_events_left_queued_name_the_region():
    # a backbone latency beyond the drain window leaves uplink events queued
    cfg = cfg_days(1, drain_window_s=0,
                   backbone=replace(ScenarioConfig().backbone, latency_s=2000))
    with pytest.raises(RunError, match=r"^region 1: \d+ events still queued past the drain window$"):
        simulate(build_scenario(cfg))
