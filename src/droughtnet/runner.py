"""End-to-end scenario execution.

plan -> place -> simulate -> ingest -> classify -> forecast, then write
every export: placement JSON, central database CSV, per-node energy CSV,
evolution-pattern CSV, forecast JSON, plot-data CSVs and the run report
whose config echo reproduces the run exactly.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .analytics import (
    DAY_S,
    MIN_WINDOW_S,
    InsufficientSpan,
    advect_forecast,
    classify,
    evolve_all,
    forecast_to_json,
    indicators_all,
    patterns_to_csv_lines,
)
from .backbone import CentralDatabase, LocalBaseStation, RemoteBaseStation
from .config import ScenarioConfig, config_to_dict
from .environment import EnvironmentModel, normal_temp_over_window
from .geometry import (
    ConnectivityReport,
    GeoPoint,
    PlacementPlan,
    connectivity_check,
    plans_to_json,
)
from .kernel import EntityId, EntityKind, Kernel
from .stack import (
    Channel,
    Interest,
    LaunchInterest,
    OrphanNode,
    RegionCounters,
    RoutingMode,
    SensorNode,
)

EXPORT_FILES = (
    "placement.json",
    "central_db.csv",
    "energy.csv",
    "pattern.csv",
    "forecast.json",
    "plots_temperature.csv",
    "plots_precipitation.csv",
    "plots_energy.csv",
    "run_report.json",
)
# written only when the config asks for them (trace, truth_dump)
OPTIONAL_EXPORT_FILES = ("trace.tsv", "truth_daily.csv")

ENERGY_CSV_COLUMNS = (
    "node_id,region,tx_mJ,rx_mJ,idle_mJ,sensing_mJ,"
    "frames_sent,frames_dropped,reports_originated,reports_forwarded"
)


class RunError(Exception):
    pass


def build_binary_tree(positions: list[GeoPoint], link_range_km: float) -> dict[int, int]:
    """Binary routing tree over one region's placement.

    Root is the sink (index 0); breadth-first, each frontier node adopts
    its two nearest unassigned link-range neighbours.  Returns
    {child_index: parent_index}; raises OrphanNode if some node is
    unreachable under the two-children rule.
    """
    n = len(positions)
    unassigned = set(range(1, n))
    parents: dict[int, int] = {}
    frontier = deque([0])
    while frontier and unassigned:
        u = frontier.popleft()
        reachable = sorted(
            (round(positions[u].distance_to(positions[v]), 9), v)
            for v in unassigned
            if positions[u].distance_to(positions[v]) <= link_range_km + 1e-9
        )
        for _, v in reachable[:2]:
            parents[v] = u
            unassigned.discard(v)
            frontier.append(v)
    if unassigned:
        raise OrphanNode(f"binary tree cannot reach nodes {sorted(unassigned)}")
    return parents


def _subtree_sizes(parents: dict[int, int], n: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for c, p in parents.items():
        children.setdefault(p, []).append(c)
    sizes = [1] * n
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(children.get(u, []))
    for u in reversed(order):
        for c in children.get(u, []):
            sizes[u] += sizes[c]
    return sizes


def _bfs_ranks(parents: dict[int, int], n: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for c, p in sorted(parents.items()):
        children.setdefault(p, []).append(c)
    ranks = [0] * n
    rank = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        ranks[u] = rank
        rank += 1
        queue.extend(children.get(u, []))
    return ranks


@dataclass
class RegionOutcome:
    """What a run reads of one simulated region: plain data, so the
    process that simulated the region can send it to the one that
    writes the run."""

    events: int
    figures: dict  # the region's counters, station and uplink figures
    energy: list[dict]  # one summary row per node
    trace: list[str] | None


@dataclass
class RegionRuntime:
    """One region's entities.  After ``simulate`` the run reads only
    ``outcome``: a region simulated in a child process leaves its
    entities here as they were built."""

    region_id: int
    plan: object
    kernel: Kernel
    counters: RegionCounters
    station: LocalBaseStation
    nodes: list
    tree_parents: dict[int, int] | None
    outcome: RegionOutcome | None = None  # set by simulate


@dataclass
class Scenario:
    """A built run: one kernel per region, as the regions share no state
    but the central database."""

    cfg: ScenarioConfig
    env: EnvironmentModel
    central: CentralDatabase
    regions: list[RegionRuntime]


def place(cfg: ScenarioConfig) -> list[tuple[PlacementPlan, ConnectivityReport]]:
    """Each configured region's placement plan, in config order, with its
    connectivity at link range (twice the radio range)."""
    placed = []
    for rc in cfg.regions:
        plan = cfg.plan_region(rc)
        placed.append((plan, connectivity_check(plan, 2.0 * cfg.radio_range_km)))
    return placed


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Wire up every entity of a run, each region on its own kernel;
    ``cfg`` must have passed validate()."""
    link_range = 2.0 * cfg.radio_range_km

    env = EnvironmentModel(
        climatology={r.region_id: r.climatology for r in cfg.regions},
        scenarios={r.region_id: r.drought for r in cfg.regions},
        centroids=cfg.region_centroids(),
        period_s=cfg.reporting_period_s,
        params=cfg.env,
    )
    central = CentralDatabase()

    regions: list[RegionRuntime] = []
    next_index = 0
    tree_mode = cfg.routing_mode in (RoutingMode.TREE, RoutingMode.COMBINED)
    for order, (rc, (plan, conn)) in enumerate(zip(cfg.regions, place(cfg))):
        if not conn.connected:
            raise RunError(f"region {rc.region_id} placement is disconnected: {conn.unreachable}")
        positions = plan.all_positions()
        kernel = Kernel(seed=cfg.seed, trace=[] if cfg.trace else None)
        counters = RegionCounters(rc.region_id)
        channel = Channel()
        base_index = next_index
        next_index += len(positions)

        tree_parents = None
        ranks = [0] * len(positions)
        descendants = [0] * len(positions)
        if tree_mode:
            tree_parents = build_binary_tree(positions, link_range)
            sizes = _subtree_sizes(tree_parents, len(positions))
            descendants = [s - 1 for s in sizes]
            ranks = _bfs_ranks(tree_parents, len(positions))

        nodes = []
        for local, pos in enumerate(positions):
            is_sink = local == 0
            gid = base_index + local
            sampler = None
            if not is_sink:
                sampler = env.sampler(
                    rc.region_id, gid, pos,
                    kernel.stream(f"env:{rc.region_id}:{local}"),
                )
            node = SensorNode(
                kernel=kernel,
                entity_id=EntityId(EntityKind.SENSOR_NODE, gid),
                region_id=rc.region_id,
                position=pos,
                is_sink=is_sink,
                routing_mode=cfg.routing_mode,
                channel=channel,
                counters=counters,
                energy_params=cfg.energy,
                link=cfg.link,
                mac=cfg.mac,
                link_range_km=link_range,
                payload_bytes=cfg.payload_bytes,
                data_cache_cap=cfg.data_cache_cap,
                sampler=sampler,
                period_s=cfg.reporting_period_s,
                stagger_s=cfg.stagger_step_s * ranks[local],
                sampling_horizon_s=cfg.horizon_s,
            )
            nodes.append(node)
            kernel.register(node)
        for node in nodes:
            node.wire_neighbors(nodes)
        if tree_parents is not None:
            for local, node in enumerate(nodes):
                parent = tree_parents.get(local)
                node.set_tree_parent(
                    nodes[parent] if parent is not None else None,
                    descendants=descendants[local],
                )

        station = LocalBaseStation(
            kernel,
            region_id=rc.region_id,
            position=plan.sink_position,
            node_locations={base_index + i: p for i, p in enumerate(positions)},
            capacity=cfg.local_db_capacity,
        )
        station.attach_uplink(
            RemoteBaseStation(kernel, central),
            loss_prob=cfg.backbone.loss_prob,
            latency_s=cfg.backbone.latency_s,
            max_retries=cfg.backbone.max_retries,
            ack_timeout_s=cfg.backbone.ack_timeout_s,
        )
        nodes[0].collector = station.ingest
        for node in nodes:
            node.start()

        if cfg.routing_mode is not RoutingMode.TREE:
            duration = cfg.interest.duration_s
            if duration is None:
                duration = cfg.horizon_s + cfg.drain_window_s + cfg.reporting_period_s
            interest = Interest(
                interest_id=order + 1,
                attributes=frozenset(cfg.interest.attributes),
                interval_s=cfg.reporting_period_s,
                duration_s=duration,
                hop_limit=cfg.interest.hop_limit,
                origin=nodes[0].entity_id,
            )
            kernel.schedule(cfg.interest.start_s, nodes[0].entity_id, LaunchInterest(interest))

        regions.append(
            RegionRuntime(rc.region_id, plan, kernel, counters, station, nodes, tree_parents))

    return Scenario(cfg=cfg, env=env, central=central, regions=regions)


def simulate(scn: Scenario) -> int:
    """Simulate every region to the horizon plus the drain window and
    set its ``outcome``; returns the number of events processed.

    The regions share no state but the central database, so they are
    split into contiguous blocks in config order, one block per
    available CPU.  This process simulates the first block and a forked
    child each of the others, and the children's records are appended
    in block order.  So for every process count the central database and
    the trace hold each region's rows in its own arrival order, the
    regions in config order.  An exception raised in a child is raised
    again here.
    """
    import multiprocessing  # here, not at the top: it is a tenth of set-up time

    n = len(scn.regions)
    blocks = _blocks(n, min(n, len(os.sched_getaffinity(0))))
    # a forked child inherits the built scenario, whose entities hold
    # bound methods and so would not pickle; the simulator starts no thread
    fork = multiprocessing.get_context("fork")
    children = []
    try:
        for block in blocks[1:]:
            receiver, sender = fork.Pipe(duplex=False)
            child = fork.Process(target=_simulate_in_child, args=(scn, block, sender),
                                 daemon=True)
            child.start()
            sender.close()  # so that a child that dies unheard gives EOFError
            children.append((child, receiver, block))
        for i in blocks[0]:
            _simulate_region(scn.cfg, scn.regions[i])
        for child, receiver, block in children:
            _receive_block(scn, block, child, receiver)
    finally:
        for child, receiver, _ in children:
            if child.exitcode is None:
                child.terminate()
            child.join()
            receiver.close()
    scn.central.release_keys()  # the run adds no more records
    return sum(reg.outcome.events for reg in scn.regions)


def _blocks(n: int, parts: int) -> list[range]:
    """Indices 0..n-1 in ``parts`` contiguous blocks, the larger first."""
    size, extra = divmod(n, parts)
    bounds = [0]
    for k in range(parts):
        bounds.append(bounds[-1] + size + (k < extra))
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _simulate_region(cfg: ScenarioConfig, reg: RegionRuntime) -> None:
    """Run one region to the horizon plus the drain window, finalize its
    nodes and set its ``outcome``."""
    kernel = reg.kernel
    events = kernel.run_until(cfg.horizon_s + cfg.drain_window_s)
    if kernel.pending():
        raise RunError(f"region {reg.region_id}: {kernel.pending()} events "
                       "still queued past the drain window")
    for node in reg.nodes:
        node.finalize(cfg.horizon_s)
    link = reg.station.uplink
    figures = {
        **reg.counters.as_dict(),
        "station_ingested": reg.station.ingested,
        "station_evicted": reg.station.evicted,
        "uplink_transmissions": link.transmissions,
        "uplink_abandoned": link.abandoned,
    }
    reg.outcome = RegionOutcome(events, figures, [node.summary_row() for node in reg.nodes],
                                kernel.trace)


def _simulate_in_child(scn: Scenario, block: range, sender) -> None:
    """Body of a forked child: simulate ``block`` and send back its
    regions' outcomes and the central database, which holds only their
    records, or the exception raised and its traceback."""
    try:
        for i in block:
            _simulate_region(scn.cfg, scn.regions[i])
        outcomes = [scn.regions[i].outcome for i in block]
    except BaseException as exc:  # the parent raises it again
        import traceback

        tb = traceback.format_exc()
        try:
            sender.send(("raised", exc, tb))
        except Exception:  # the exception does not pickle
            sender.send(("raised", RunError(f"{type(exc).__name__}: {exc}"), tb))
    else:
        sender.send(("done", outcomes))
        scn.central.send(sender)
    finally:
        sender.close()


def _receive_block(scn: Scenario, block: range, child, receiver) -> None:
    """Take what a child sent for ``block``: set its regions' outcomes
    and append its records, or raise what it raised."""
    ids = [scn.regions[i].region_id for i in block]
    try:
        status, *message = receiver.recv()
        if status == "done":
            scn.central.receive(receiver)
    except EOFError:
        child.join()
        raise RunError(f"the process simulating regions {ids} exited with code "
                       f"{child.exitcode} before it sent all it had") from None
    child.join()
    if status == "raised":
        exc, tb = message
        raise exc from RunError(f"raised in the process simulating regions {ids}:\n{tb}")
    for i, outcome in zip(block, message[0]):
        scn.regions[i].outcome = outcome


def analyse(scn: Scenario):
    """Per-region classes, indicators, evolution patterns and the
    advection forecast of a simulated scenario."""
    return analyse_db(scn.cfg, scn.central)


def analyse_db(cfg: ScenarioConfig, db: CentralDatabase):
    """Per-region classes, indicators, evolution patterns and the
    advection forecast over a central database, for the configured
    regions that have records in it.

    Indicators cover [0, t_end), t_end being the end of the day that
    holds the last record, so a run of whole days uses its horizon.  All
    four results are empty when the database is empty or t_end is under
    the 30-day minimum window; the patterns alone are empty when the
    records span fewer than two windows.
    """
    if len(db) == 0:
        return {}, {}, {}, {}
    t_end = -(-(max(db.ts) + 1) // DAY_S) * DAY_S
    if t_end < MIN_WINDOW_S:
        return {}, {}, {}, {}
    present = set(db.region)
    climatologies = {r.region_id: r.climatology for r in cfg.regions if r.region_id in present}
    indicators = indicators_all(db, climatologies, (0, t_end))
    classes = {rid: classify(ind, cfg.thresholds) for rid, ind in indicators.items()}
    try:
        patterns = evolve_all(db, climatologies, cfg.window_days, cfg.thresholds)
    except InsufficientSpan:
        patterns = {}
    forecast = advect_forecast(classes, indicators, cfg.region_centroids())
    return classes, indicators, patterns, forecast


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> dict:
    """Execute the full pipeline, write all exports, return the run report."""
    started = time.perf_counter()
    scn = build_scenario(cfg)
    processed = simulate(scn)
    classes, indicators, patterns, forecast = analyse(scn)

    per_region = {}
    for reg in scn.regions:
        per_region[str(reg.region_id)] = {
            "node_count": len(reg.nodes),
            **reg.outcome.figures,
            "central_records": 0,
            "central_duplicates": scn.central.duplicates_by_region.get(reg.region_id, 0),
        }
    for rid, count in scn.central.region_counts().items():
        per_region[str(rid)]["central_records"] = count

    energy_rows = [row for reg in scn.regions for row in reg.outcome.energy]
    report = {
        "seed": cfg.seed,
        "routing_mode": cfg.routing_mode.value,
        "config": config_to_dict(cfg),
        "event_count": processed,
        "record_count": len(scn.central),
        "per_region": per_region,
        "classes": {str(r): c.label for r, c in classes.items()},
        "forecast": {str(r): c.label for r, c in forecast.items()},
        "tree_parents": {
            str(reg.region_id): {str(c): p for c, p in sorted(reg.tree_parents.items())}
            for reg in scn.regions
            if reg.tree_parents is not None
        },
        "energy": energy_rows,
        "total_tx_rx_mJ": sum(r["tx_mJ"] + r["rx_mJ"] for r in energy_rows),
        "wall_clock_s": time.perf_counter() - started,
    }

    if out_dir is not None:
        write_exports(scn, report, classes, indicators, patterns, forecast, Path(out_dir))
        report["wall_clock_s"] = time.perf_counter() - started
    return report


# -- exports -------------------------------------------------------------------


def _write(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_placement(out: Path, plans: list[PlacementPlan]) -> None:
    (out / "placement.json").write_text(plans_to_json(plans) + "\n", encoding="utf-8")


def write_analysis(out: Path, classes, patterns, forecast) -> None:
    _write(out / "pattern.csv", patterns_to_csv_lines(patterns))
    (out / "forecast.json").write_text(
        forecast_to_json(classes, forecast) + "\n", encoding="utf-8"
    )


def write_exports(scn: Scenario, report, classes, indicators, patterns, forecast,
                  out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg = scn.cfg

    write_placement(out, [reg.plan for reg in scn.regions])

    _write(out / "central_db.csv", scn.central.to_csv_lines())

    energy_lines = [ENERGY_CSV_COLUMNS]
    plot_energy = ["node_id,region,tx_mJ,rx_mJ,idle_mJ,sensing_mJ,total_mJ"]
    for row in report["energy"]:
        energy_lines.append(
            f"{row['node_id']},{row['region']},{row['tx_mJ']!r},{row['rx_mJ']!r},"
            f"{row['idle_mJ']!r},{row['sensing_mJ']!r},{row['frames_sent']},"
            f"{row['frames_dropped']},{row['reports_originated']},{row['reports_forwarded']}"
        )
        total = row["tx_mJ"] + row["rx_mJ"] + row["idle_mJ"] + row["sensing_mJ"]
        plot_energy.append(
            f"{row['node_id']},{row['region']},{row['tx_mJ']!r},{row['rx_mJ']!r},"
            f"{row['idle_mJ']!r},{row['sensing_mJ']!r},{total!r}"
        )
    _write(out / "energy.csv", energy_lines)
    _write(out / "plots_energy.csv", plot_energy)

    write_analysis(out, classes, patterns, forecast)

    temp_lines = ["region,month_index,window_start_s,mean_temp_C"]
    precip_lines = ["region,month_index,window_start_s,precip_mm"]
    # a run too short for an evolution pattern still plots its one window
    series = {rid: [(w, ind) for w, _cls, ind in patterns[rid].entries] for rid in patterns}
    if not series and indicators:
        series = {rid: [(ind.window, ind)] for rid, ind in indicators.items()}
    for rid in sorted(series):
        clim = scn.env.climatology[rid]
        for k, ((t0, t1), ind) in enumerate(series[rid]):
            mean_temp = ind.mean_temp_anomaly_c + normal_temp_over_window(clim, t0, t1)
            temp_lines.append(f"{rid},{k},{t0},{mean_temp!r}")
            precip_lines.append(f"{rid},{k},{t0},{ind.mean_monthly_precip_mm!r}")
    _write(out / "plots_temperature.csv", temp_lines)
    _write(out / "plots_precipitation.csv", precip_lines)

    if cfg.trace:
        _write(out / "trace.tsv", chain.from_iterable(reg.outcome.trace for reg in scn.regions))

    if cfg.truth_dump:
        _write(out / "truth_daily.csv", _truth_daily_lines(scn))

    (out / "run_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _truth_daily_lines(scn: Scenario):
    db = scn.central
    days: dict[tuple[int, int], list] = {}
    temp = db.raw["temperature_c"]
    precip = db.raw["precipitation_mm"]
    for i in range(len(db.ts)):
        key = (db.region[i], db.ts[i] // 86_400)
        acc = days.get(key)
        if acc is None:
            days[key] = [temp[i], temp[i], temp[i], 1, precip[i]]
        else:
            t = temp[i]
            if t < acc[0]:
                acc[0] = t
            if t > acc[1]:
                acc[1] = t
            acc[2] += t
            acc[3] += 1
            acc[4] += precip[i]
    yield "region,day,temp_min_C,temp_max_C,temp_mean_C,precip_total_mm"
    for (rid, day) in sorted(days):
        lo, hi, tot, n, p = days[(rid, day)]
        yield f"{rid},{day},{lo!r},{hi!r},{(tot / n)!r},{p!r}"


# -- replay -----------------------------------------------------------------------


def compare_runs(dir_a: Path, dir_b: Path) -> list[str]:
    """Byte-compare run exports, optional ones included; the run report
    is compared structurally with the wall-clock field and the config's
    output directory dropped.  Returns mismatch descriptions."""
    problems = []
    for name in EXPORT_FILES + OPTIONAL_EXPORT_FILES:
        pa, pb = Path(dir_a) / name, Path(dir_b) / name
        if not pa.exists() or not pb.exists():
            if pa.exists() != pb.exists():
                problems.append(f"{name}: present in one run only")
            continue
        if name == "run_report.json":
            ra = json.loads(pa.read_text(encoding="utf-8"))
            rb = json.loads(pb.read_text(encoding="utf-8"))
            for rep in (ra, rb):
                rep.pop("wall_clock_s", None)
                rep.get("config", {}).pop("output_dir", None)
            if ra != rb:
                keys = [k for k in ra if ra.get(k) != rb.get(k)]
                problems.append(f"{name}: differs at {keys}")
        elif pa.read_bytes() != pb.read_bytes():
            problems.append(f"{name}: byte mismatch")
    return problems
