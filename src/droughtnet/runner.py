"""End-to-end scenario execution.

plan -> place -> simulate -> ingest -> classify -> forecast, then write
every export: placement JSON, central database CSV, per-node energy CSV,
evolution-pattern CSV, forecast JSON, plot-data CSVs and the run report
whose config echo reproduces the run exactly.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
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
class RegionRuntime:
    region_id: int
    plan: object
    counters: RegionCounters
    station: LocalBaseStation
    nodes: list
    tree_parents: dict[int, int] | None


@dataclass
class Scenario:
    cfg: ScenarioConfig
    kernel: Kernel
    env: EnvironmentModel
    remote: RemoteBaseStation
    regions: list[RegionRuntime]
    trace: list | None

    @property
    def central(self):
        return self.remote.central

    def all_nodes(self):
        for reg in self.regions:
            yield from reg.nodes


def place(cfg: ScenarioConfig) -> list[tuple[PlacementPlan, ConnectivityReport]]:
    """Each configured region's placement plan, in config order, with its
    connectivity at link range (twice the radio range)."""
    placed = []
    for rc in cfg.regions:
        plan = cfg.plan_region(rc)
        placed.append((plan, connectivity_check(plan, 2.0 * cfg.radio_range_km)))
    return placed


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Wire up every entity of a run; ``cfg`` must have passed validate()."""
    trace = [] if cfg.trace else None
    kernel = Kernel(seed=cfg.seed, trace=trace)
    link_range = 2.0 * cfg.radio_range_km

    env = EnvironmentModel(
        climatology={r.region_id: r.climatology for r in cfg.regions},
        scenarios={r.region_id: r.drought for r in cfg.regions},
        centroids=cfg.region_centroids(),
        period_s=cfg.reporting_period_s,
        params=cfg.env,
    )
    remote = RemoteBaseStation(kernel)

    regions: list[RegionRuntime] = []
    next_index = 0
    tree_mode = cfg.routing_mode in (RoutingMode.TREE, RoutingMode.COMBINED)
    for order, (rc, (plan, conn)) in enumerate(zip(cfg.regions, place(cfg))):
        if not conn.connected:
            raise RunError(f"region {rc.region_id} placement is disconnected: {conn.unreachable}")
        positions = plan.all_positions()
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
            remote,
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

        regions.append(RegionRuntime(rc.region_id, plan, counters, station, nodes, tree_parents))

    return Scenario(cfg=cfg, kernel=kernel, env=env, remote=remote, regions=regions, trace=trace)


def simulate(scn: Scenario) -> int:
    cfg = scn.cfg
    run_horizon = cfg.horizon_s + cfg.drain_window_s
    processed = scn.kernel.run_until(run_horizon)
    if scn.kernel.pending():
        raise RunError(
            f"{scn.kernel.pending()} events still queued past the drain window"
        )
    for node in scn.all_nodes():
        node.finalize(cfg.horizon_s)
    scn.central.release_keys()  # the run adds no more records
    return processed


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
        link = reg.station.uplink
        per_region[str(reg.region_id)] = {
            "node_count": len(reg.nodes),
            **reg.counters.as_dict(),
            "central_records": 0,
            "central_duplicates": scn.central.duplicates_by_region.get(reg.region_id, 0),
            "station_ingested": reg.station.ingested,
            "station_evicted": reg.station.evicted,
            "uplink_transmissions": link.transmissions,
            "uplink_abandoned": link.abandoned,
        }
    for rid, count in scn.central.region_counts().items():
        per_region[str(rid)]["central_records"] = count

    energy_rows = [node.summary_row() for node in scn.all_nodes()]
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

    if scn.trace is not None:
        _write(out / "trace.tsv", scn.trace)

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
