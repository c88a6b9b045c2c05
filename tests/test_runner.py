import filecmp
import hashlib
import itertools
import json
import math
import os
import random
import signal
import time
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from droughtnet import runner
from droughtnet.backbone import CentralDatabase
from droughtnet.config import ScenarioConfig, validate
from droughtnet.geometry import GeoPoint
from droughtnet.runner import (
    EXPORT_FILES,
    RunError,
    _blocks,
    _tree_walk,
    _truth_daily_lines,
    build_binary_tree,
    build_scenario,
    compare_runs,
    run_scenario,
    simulate,
)
from droughtnet.stack import OrphanNode, RoutingMode, SensorNode

from helpers import (
    ReferenceStream,
    Unpicklable,
    csv_lines,
    reference_to_csv_lines,
    reference_truth_daily_lines,
)

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


def test_report_file_holds_the_returned_wall_clock(tmp_path):
    # one time, taken after every other export, in the file and the return value
    started = time.perf_counter()
    rep = run_scenario(cfg_days(2), out_dir=tmp_path)
    stored = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert 0 < stored["wall_clock_s"] == rep["wall_clock_s"] < time.perf_counter() - started


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
    RoutingMode.DIFFUSION: "dc2a4f674eb1a74df57484a554de05af4db15786b99bdf885bdcc6781db89e65",
    RoutingMode.FLOODING: "e039f4a486368ecb3947964ae495461baa197d8de34a7eb1424a5cb1430fd9be",
    RoutingMode.COMBINED: "9279666d54628cbf97928f17b754206d622af46e6bd5c402f9f72012eb60d5bf",
}
# SHA-256 of the same traces' lines with seq dropped, sorted: the events
# as a multiset; taken, like PINNED_3_DAY_SORTED_DB, under one kernel
PINNED_2_DAY_TRACE_SORTED = {
    RoutingMode.TREE: "4ee6b5dbe8d0968e920e9a9d08c4950400c6c391f2c6052f39321591c4b58fff",
    RoutingMode.DIFFUSION: "1980fa9f9b3a8ce13479efe81ab9e5017326c6c6545cadb88817653d676ee4eb",
    RoutingMode.FLOODING: "b335ca35ce9443cdaa3db60fbb15b9b72541d4f8bf47b10226dc13e106ec8320",
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


# SHA-256 of json.dumps (sort_keys) of per_region, energy and
# event_count of 3-day seed-1 runs on a lossy link: with a two-frame MAC
# queue in every mode, and in tree mode with a link delay that outlasts
# a drain, so that each of the six report figures is nonzero somewhere;
# the nodes hold these counts, and a rewrite of where they are kept
# must leave every one of them as it is
TWO_FRAME_QUEUE = replace(ScenarioConfig().mac, queue_cap_frames=2)
PINNED_3_DAY_COUNTS = {
    ("tree", "queue"): "e9d5fb3d7cf7ed6315d57d8ebfcb5ab21dedcf86e100c66226593bbf31676bec",
    ("diffusion", "queue"): "bb2fa8f834d26a9bb2ce1d87d463a8b6c74c96f03083fdd6ab0520a3c01eb497",
    ("flooding", "queue"): "1b5f678d05fd795a507646e70df3738d8a5bc17b84725cab3f1f64d3c84edfec",
    ("combined", "queue"): "c642cf0b2d10e3001e63a65c13258aba408cf5f9b6e4c49c2617706c3fa52fef",
    ("tree", "delay"): "d9157e483c76c53933f70757b4ba7be9c1553d2a069885c72cb05b4bbc8548a6",
}
REPORT_FIGURES = ("reports_originated", "reports_delivered", "rf_losses", "queue_losses",
                  "sleep_losses", "duplicate_relay_drops")


def test_region_counts_pinned():
    nonzero = set()
    for (mode, kind), pinned in PINNED_3_DAY_COUNTS.items():
        if kind == "queue":
            over = {"mac": TWO_FRAME_QUEUE,
                    "link": replace(ScenarioConfig().link, loss_prob=0.2)}
        else:
            over = {"link": replace(ScenarioConfig().link, delay_s=1000, loss_prob=0.2)}
        rep = run_scenario(cfg_days(3, seed=1, routing_mode=RoutingMode(mode), **over))
        counts = {key: rep[key] for key in ("per_region", "energy", "event_count")}
        digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
        assert digest == pinned, (mode, kind)
        nonzero.update(name for region in rep["per_region"].values()
                       for name in REPORT_FIGURES if region[name])
        if kind == "queue":  # sleep losses appear only in the long-delay run
            assert all(region["sleep_losses"] == 0 for region in rep["per_region"].values())
    assert nonzero == set(REPORT_FIGURES)


def test_entities_name_themselves_as_the_trace_names_them():
    # the trace writes each event's target with str(): a node by its
    # global index, a local station by its region, the one remote station
    reg = build_scenario(cfg_days(2)).regions[1]
    link = reg.station.uplink
    assert (str(reg.nodes[3]), str(link.src), str(link.dst)) == (
        "SensorNode:13", "LocalBaseStation:2", "RemoteBaseStation:0")
    assert link.src is reg.station


def test_backbone_ack_timeout_reaches_the_uplink(tmp_path):
    digests = {}
    for timeout in (2, 9):
        cfg = cfg_days(2, seed=1, backbone=replace(LOSSY_BACKBONE, ack_timeout_s=timeout))
        assert all(reg.station.uplink.params.ack_timeout_s == timeout
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


def test_compare_runs_reads_past_the_first_chunk(tmp_path):
    body = bytes(range(256)) * (3 * filecmp.BUFSIZE // 256) + b"tail"
    for side, last in (("a", b"\n"), ("b", b"\r"), ("c", b"\n")):
        (tmp_path / side).mkdir()
        for name in EXPORT_FILES:  # the same stand-in in every run
            (tmp_path / side / name).write_text("{}", encoding="utf-8")
        (tmp_path / side / "central_db.csv").write_bytes(body + last)
    assert compare_runs(tmp_path / "a", tmp_path / "b") == ["central_db.csv: byte mismatch"]
    # same size and mtime: neither a shallow comparison nor an outcome
    # cached for these stat signatures may stand in for the bytes
    mtime_ns = (tmp_path / "a" / "central_db.csv").stat().st_mtime_ns
    path = tmp_path / "c" / "central_db.csv"
    os.utime(path, ns=(mtime_ns, mtime_ns))
    assert compare_runs(tmp_path / "a", tmp_path / "c") == []
    path.write_bytes(body + b"\r")
    os.utime(path, ns=(mtime_ns, mtime_ns))
    assert compare_runs(tmp_path / "a", tmp_path / "c") == ["central_db.csv: byte mismatch"]


def test_compare_runs_flags_runs_that_are_not_there(tmp_path):
    missing = [f"{name}: missing from both runs" for name in EXPORT_FILES]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert compare_runs(tmp_path / "a", tmp_path / "b") == missing
    assert compare_runs(tmp_path / "c", tmp_path / "d") == missing


def test_failed_export_leaves_the_output_directory_as_it_was(tmp_path, monkeypatch):
    out = tmp_path / "o"
    run_scenario(cfg_days(2, trace=True), out_dir=out)
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def disk_full(db):
        raise OSError("disk full")

    # the last export but the report, so every other one is written first
    monkeypatch.setattr(runner, "_truth_daily_lines", disk_full)
    with pytest.raises(OSError, match="^disk full$"):
        run_scenario(cfg_days(2, seed=5, truth_dump=True), out_dir=out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["o"]  # no fresh directory left


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
        positions = reg.plan.all_positions()
        for c, p in parents.items():
            d = positions[c].distance_to(positions[p])
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 99), st.floats(0.0, 2.0 * math.pi),
                          st.floats(0.3, 1.9)), max_size=15))
def test_tree_walk_ranks_and_descendants(steps):
    # a connected placement: each node within link range 2 of an earlier one
    pts = [GeoPoint(0.0, 0.0)]
    for pick, angle, r in steps:
        base = pts[pick % len(pts)]
        pts.append(GeoPoint(base.x_km + r * math.cos(angle), base.y_km + r * math.sin(angle)))
    try:
        parents = build_binary_tree(pts, link_range_km=2.0)
    except OrphanNode:
        assume(False)  # the two-children rule can strand a node of a connected placement
    n = len(pts)
    ranks, descendants = _tree_walk(parents, n)
    for v in range(n):
        below = 0
        for u in range(n):
            walk = u
            while walk != 0 and walk != v:
                walk = parents[walk]
            below += u != v and walk == v
        assert descendants[v] == below
    order, queue = [], deque([0])
    while queue:
        u = queue.popleft()
        order.append(u)
        queue.extend(sorted(c for c, p in parents.items() if p == u))
    assert [ranks[u] for u in order] == list(range(n))


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
    figures = [reg.outcome.figures for reg in scn.regions]
    assert [f["duplicate_relay_drops"] for f in figures] == [0] * 5
    if loss:
        assert sum(f["rf_losses"] for f in figures) > 0


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


def test_truth_daily_lines_match_row_by_row_reference():
    """Rows whose days and regions interleave sum and compare as one key
    per row would: NaN and infinities among the temperatures, and in
    region -128 only signed zeros, whose min, max and sums depend on the
    row order."""
    rng = random.Random(11)
    rows = []
    for i in range(600):
        region, ts = rng.choice((-128, 1, 2)), rng.randrange(5 * DAY)
        if region == -128:  # -0.0 alone on odd days
            t, p = -0.0 if ts // DAY % 2 else rng.choice((0.0, -0.0)), -0.0
        elif rng.random() < 0.1:
            t, p = rng.choice((math.nan, math.inf, -math.inf)), 0.0
        else:
            t, p = round(rng.uniform(-5.0, 40.0), 1), round(rng.uniform(0.0, 3.0), 1)
        sensors = (t, p, 50.0, 1000.0, 1.0, 90.0, 10.0)
        rows.append((region, i % 40, ts, 0.0, 0.0, "0", 1.0, 0,
                     *sensors, *sensors))
    db = CentralDatabase.from_csv_lines(reference_to_csv_lines(rows))
    days = [(r, ts // DAY) for r, ts in zip(db.region, db.ts)]
    assert sum(a != b for a, b in zip(days, days[1:])) > 400  # the key changes nearly every row
    lines = list(_truth_daily_lines(db))
    assert lines == list(reference_truth_daily_lines(db))
    assert len(lines) == 1 + 3 * 5
    cells = [line.split(",") for line in lines[1:]]
    assert {c[5] for c in cells if c[0] == "-128"} == {"-0.0"}
    for c in cells:
        if c[0] == "-128":
            assert c[2:5] == ["-0.0"] * 3 if int(c[1]) % 2 else c[4] == "0.0"
    assert any("nan" in line for line in lines[1:])


# -- processes --------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
def test_exports_identical_for_every_process_count(tmp_path, cpus, started, mode):
    cfg = cfg_days(3, seed=1, routing_mode=mode, trace=True, truth_dump=True)
    # 5 regions: blocks [1-5]; [1-2] [3-4] [5]; and one region each
    for n, children in ((1, 0), (2, 2), (3, 4), (5, 4)):
        cpus(n)
        del started[:]
        run_scenario(cfg, out_dir=tmp_path / str(n))
        assert len(started) == children
    for n in (2, 3, 5):
        assert compare_runs(tmp_path / "1", tmp_path / str(n)) == []


def test_blocks_hold_at_most_a_fair_share():
    for n, count in itertools.product(range(1, 257), range(1, 65)):
        blocks = _blocks(n, count)
        assert [i for block in blocks for i in block] == list(range(n))
        sizes = [len(block) for block in blocks]
        assert sizes == sorted(sizes, reverse=True)
        assert max(sizes) <= max(1, n // count)
        assert len(blocks) <= 2 * count
        if count == 1:
            assert len(blocks) == 1


def assert_one_copy(db):
    """The database holds each reading once and no per-record key
    structure: its calibrated columns are its raw ones, and nothing but
    its columns has an entry for every tenth record."""
    assert db.cal is db.raw
    columns = {id(col) for col in db._csv_columns()}
    for name, value in vars(db).items():
        if id(value) not in columns and hasattr(value, "__len__"):
            assert len(value) < len(db) // 10, name


# on 2 CPUs two children send their regions
@pytest.mark.parametrize("n, releases", [(1, 2), (2, 4)], ids=["1", "2"])
def test_central_database_keeps_one_copy(monkeypatch, cpus, n, releases):
    released = []
    release = CentralDatabase.release_keys

    def checked_release(db):
        assert_one_copy(db)
        released.append(len(db))
        release(db)

    monkeypatch.setattr(CentralDatabase, "release_keys", checked_release)
    cpus(n)
    scn = build_scenario(cfg_days(2))
    simulate(scn)
    assert_one_copy(scn.central)
    loaded = CentralDatabase.from_csv_lines(csv_lines(scn.central))
    assert_one_copy(loaded)
    # once as each child's regions arrive, then at the end of simulate
    # and of the load
    assert len(released) == releases
    assert released[-2:] == [len(loaded)] * 2
    assert len(loaded) == 5 * 9 * 96


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
def test_run_keys_stay_above_their_marks(monkeypatch, cpus, mode, lossy):
    """A run's adds, combined mode's second copies and a lossy, latent
    backbone's late arrivals included, never fall below their node's
    high-water mark, so the database releases its keys without having
    built the exact key set."""
    exact_at_release = []
    release = CentralDatabase.release_keys

    def spy(db):
        exact_at_release.append(db._exact is not None)
        release(db)

    monkeypatch.setattr(CentralDatabase, "release_keys", spy)
    cpus(1)
    over = {"backbone": replace(ScenarioConfig().backbone, latency_s=1, loss_prob=0.3)} if lossy else {}
    scn = build_scenario(cfg_days(3, routing_mode=mode, **over))
    simulate(scn)
    assert exact_at_release == [False]
    assert len(scn.central) > 0


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
    cpus(2)  # regions 1-2 here, 3-4 and 5 in one child each
    on_finalize(monkeypatch, {5: raiser(OrphanNode("lost in region 5"))})
    with pytest.raises(OrphanNode, match="^lost in region 5$") as raised:
        simulate(build_scenario(cfg_days(1)))
    assert "regions [5]" in str(raised.value.__cause__)
    assert "lost in region 5" in str(raised.value.__cause__)  # the child's traceback


def test_child_that_dies_unheard_is_a_run_error(cpus, monkeypatch):
    cpus(2)
    on_finalize(monkeypatch, {4: lambda: os._exit(3)})
    with pytest.raises(RunError, match=r"simulating regions \[3, 4\] exited with code 3$"):
        simulate(build_scenario(cfg_days(1)))


def test_unpicklable_raise_in_a_child_names_its_type(cpus, monkeypatch):
    cpus(2)
    on_finalize(monkeypatch, {5: raiser(Unpicklable("lost in region 5"))})
    with pytest.raises(RunError, match="^Unpicklable: lost in region 5$") as raised:
        simulate(build_scenario(cfg_days(1)))
    assert "simulating regions [5]:" in str(raised.value.__cause__)
    assert "lost in region 5" in str(raised.value.__cause__)  # the child's traceback


def test_raise_in_this_process_stops_and_reaps_the_children(cpus, monkeypatch, started, opened):
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
    assert len(opened) == 4 and all(f.closed for f in opened)  # one file per child


def test_backbone_retries_past_the_drain_window_complete():
    # every uplink send is acked 4000 s after the data reaches the sink,
    # long after a zero drain window has closed
    cfg = cfg_days(1, drain_window_s=0,
                   backbone=replace(ScenarioConfig().backbone, latency_s=2000))
    rep = run_scenario(cfg)
    for region in rep["per_region"].values():
        assert region["central_records"] == region["reports_originated"] == 9 * 48
        assert region["uplink_abandoned"] == 0


# each of these validated and then stopped with a RunError, its region's
# backlog still queued past the end that the runner used to compute
BACKLOGS = {
    "flooding_fast": dict(days=1, routing_mode=RoutingMode.FLOODING, reporting_period_s=60),
    "tree_fast_no_drain": dict(days=1, reporting_period_s=10, drain_window_s=0),
    "flooding_link_delay": dict(days=3, seed=1, routing_mode=RoutingMode.FLOODING,
                                link=replace(ScenarioConfig().link, delay_s=1000, loss_prob=0.2)),
    "flooding_cache_1": dict(days=2, seed=3, routing_mode=RoutingMode.FLOODING, data_cache_cap=1,
                             link=replace(ScenarioConfig().link, loss_prob=0.1)),
}


def one_region(days, **over):
    return cfg_days(days, allow_fast_reporting=True, regions=ScenarioConfig().regions[:1], **over)


@pytest.mark.parametrize("name", BACKLOGS)
def test_a_region_runs_until_nothing_is_queued(name):
    rep = run_scenario(one_region(**BACKLOGS[name]))
    (region,) = rep["per_region"].values()
    assert region["central_records"] > 0
    assert region["station_ingested"] == region["central_records"] + region["central_duplicates"]
    if name == "tree_fast_no_drain":  # the tree's ledger closes once its queues drain
        losses = region["rf_losses"] + region["queue_losses"] + region["sleep_losses"]
        assert region["reports_originated"] == region["central_records"] + losses == 77_760
        assert region["central_records"] == 10_047


@pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
def test_longest_relay_chains_that_validate_end(mode):
    """A one-entry duplicate cache, the largest hop limit and the longest
    interest on fast, lossy reporting: every chain still ends, the
    diffusion relays with their gradients and each flooded copy with its
    hop limit."""
    cfg = one_region(2, routing_mode=mode, reporting_period_s=60, data_cache_cap=1,
                     link=replace(ScenarioConfig().link, loss_prob=0.1),
                     interest=replace(ScenarioConfig().interest, hop_limit=255,
                                      duration_s=2 * DAY + 3600 + 60))
    (region,) = run_scenario(cfg)["per_region"].values()
    assert region["reports_originated"] == 9 * 2 * DAY // 60
    assert region["station_ingested"] == region["central_records"] + region["central_duplicates"]
    if mode is RoutingMode.TREE:
        losses = region["rf_losses"] + region["queue_losses"] + region["sleep_losses"]
        assert region["reports_originated"] == region["central_records"] + losses


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
def test_backbone_loses_no_ingested_report_unaccounted(mode, lossy):
    """Every copy a local station ingests reaches the central database,
    as a record or a duplicate, or is abandoned by its uplink."""
    over = {}
    if lossy:
        over = {"link": replace(ScenarioConfig().link, loss_prob=0.2),
                "backbone": replace(ScenarioConfig().backbone, loss_prob=0.3, latency_s=5,
                                    max_retries=2)}
    rep = run_scenario(cfg_days(2, seed=7, routing_mode=mode, **over))
    for region in rep["per_region"].values():
        assert region["station_ingested"] == (region["central_records"]
                                              + region["central_duplicates"]
                                              + region["uplink_abandoned"])
    abandoned = sum(region["uplink_abandoned"] for region in rep["per_region"].values())
    assert (abandoned > 0) == lossy
