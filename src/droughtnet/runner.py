"""End-to-end scenario execution.

plan -> place -> simulate -> ingest -> classify -> forecast, then write
every export: placement JSON, central database CSV, per-node energy CSV,
evolution-pattern CSV, forecast JSON, plot-data CSVs and the run report
whose config echo reproduces the run exactly.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import pickle
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path

from .analytics import (
    DAY_S,
    MIN_WINDOW_S,
    InsufficientSpan,
    NoData,
    advect_forecast,
    classify,
    evolve_all,
    forecast_to_json,
    indicators_all,
    patterns_to_csv_lines,
)
from .backbone import CSV_BLOCK_ROWS, CentralDatabase, LocalBaseStation, RemoteBaseStation
from .config import RETIRED_INTEREST_KEY, ScenarioConfig, config_to_dict
from .environment import NodeSampler, normal_temp_over_window
from .forked import forked
from .geometry import (
    GeoPoint,
    PlacementPlan,
    links,
    ordered_total,
    plans_to_json,
)
from .kernel import Kernel, stream
from .stack import (
    Channel,
    Interest,
    OrphanNode,
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
    near = links(positions, link_range_km)
    unassigned = set(range(1, len(positions)))
    parents: dict[int, int] = {}
    frontier = deque([0])
    while frontier and unassigned:
        u = frontier.popleft()
        reachable = sorted((round(d, 9), v) for v, d in near[u] if v in unassigned)
        for _, v in reachable[:2]:
            parents[v] = u
            unassigned.discard(v)
            frontier.append(v)
    if unassigned:
        raise OrphanNode(f"binary tree cannot reach nodes {sorted(unassigned)}")
    return parents


def _tree_walk(parents: dict[int, int], n: int) -> tuple[list[int], list[int]]:
    """Breadth-first rank from the sink (children in ascending index)
    and descendant count of each of the n nodes of a tree."""
    children: dict[int, list[int]] = {}
    for c, p in sorted(parents.items()):
        children.setdefault(p, []).append(c)
    order = [0]
    for u in order:  # the breadth-first order grows as it is read
        order.extend(children.get(u, ()))
    ranks = [0] * n
    descendants = [0] * n
    for rank, u in enumerate(order):
        ranks[u] = rank
    for u in reversed(order[1:]):
        descendants[parents[u]] += descendants[u] + 1
    return ranks, descendants


@dataclass
class RegionOutcome:
    """What a run reads of one simulated region: plain data, which a
    forked child pickles for the process that writes the run."""

    events: int
    figures: dict  # the region's node counts, station and uplink figures
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
    station: LocalBaseStation
    nodes: list
    tree_parents: dict[int, int] | None
    outcome: RegionOutcome | None = None  # set by simulate


@dataclass
class Scenario:
    """A built run: one kernel per region, as the regions share no state
    but the central database."""

    cfg: ScenarioConfig
    central: CentralDatabase
    regions: list[RegionRuntime]


def place(cfg: ScenarioConfig) -> list[PlacementPlan]:
    """Each configured region's placement plan, in config order; validate()
    has checked that the sink reaches every cell of each."""
    return [cfg.plan_region(rc) for rc in cfg.regions]


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Wire up every entity of a run, each region on its own kernel;
    ``cfg`` must have passed validate()."""
    centroids = cfg.region_centroids()
    central = CentralDatabase()

    regions: list[RegionRuntime] = []
    next_index = 0
    tree_mode = cfg.routing_mode in (RoutingMode.TREE, RoutingMode.COMBINED)
    for order, (rc, plan) in enumerate(zip(cfg.regions, place(cfg))):
        positions = plan.all_positions()
        kernel = Kernel(trace=[] if cfg.trace else None)
        channel = Channel()
        base_index = next_index
        next_index += len(positions)

        tree_parents = None
        ranks = [0] * len(positions)
        descendants = [0] * len(positions)
        if tree_mode:
            tree_parents = build_binary_tree(positions, cfg.link_range_km())
            ranks, descendants = _tree_walk(tree_parents, len(positions))

        nodes = []
        for local, pos in enumerate(positions):
            is_sink = local == 0
            gid = base_index + local
            sampler = None
            if not is_sink:
                sampler = NodeSampler(
                    cfg.env, rc.climatology, rc.drought, centroids[rc.region_id],
                    cfg.reporting_period_s, pos,
                    stream(cfg.seed, f"env:{rc.region_id}:{local}"),
                )
            node = SensorNode(kernel, cfg, gid, rc.region_id, is_sink, channel, sampler=sampler,
                              stagger_s=cfg.stagger_step_s * ranks[local])
            nodes.append(node)
        for node, near in zip(nodes, links(positions, cfg.link_range_km())):
            node.neighbors = [nodes[v] for v, _ in near]
            node.neighbor_dist = {nodes[v]: d for v, d in near}
        if tree_parents is not None:
            for local, parent in tree_parents.items():  # the sink has none
                nodes[local].set_tree_parent(nodes[parent], descendants[local])

        station = LocalBaseStation(
            kernel,
            cfg,
            rc.region_id,
            RemoteBaseStation(central, rc.region_id,
                              {base_index + i: p for i, p in enumerate(positions)}),
        )
        nodes[0].collector = station.ingest
        for node in nodes:
            node.start()

        if cfg.routing_mode is not RoutingMode.TREE:
            duration = cfg.interest.duration_s
            interest = Interest(
                interest_id=order + 1,
                duration_s=cfg.longest_interest_s() if duration is None else duration,
                hop_limit=cfg.interest.hop_limit,
                origin=nodes[0],
            )
            kernel.schedule(cfg.interest.start_s, nodes[0], interest)  # it launches itself

        regions.append(
            RegionRuntime(rc.region_id, plan, kernel, station, nodes, tree_parents))

    return Scenario(cfg=cfg, central=central, regions=regions)


def simulate(scn: Scenario) -> int:
    """Simulate every region until nothing is queued (see
    ``_simulate_region``) and set its ``outcome``; returns the number
    of events processed.

    The regions share no state but the central database, so they are
    split into contiguous blocks in config order, none longer than its
    fair share of the available CPUs (see ``_blocks``).  This process
    simulates the first block and a forked child each of the others (see
    ``forked``), and the children's records are appended in block order:
    for every process count the central database and the trace hold each
    region's rows in its own arrival order, the regions in config order."""
    blocks = _blocks(len(scn.regions), len(os.sched_getaffinity(0)))
    with forked(blocks[1:], partial(_simulate_in_child, scn),
                lambda block: f"simulating regions {[scn.regions[i].region_id for i in block]}",
                RunError) as children:
        for i in blocks[0]:
            _simulate_region(scn.cfg, scn.regions[i])
        for block, file in children:
            for i, outcome in zip(block, pickle.load(file)):
                scn.regions[i].outcome = outcome
            scn.central.append_dump(file)
    scn.central.release_keys()  # the run adds no more records
    return ordered_total((reg.outcome.events for reg in scn.regions), 0)


def _blocks(n: int, cpus: int) -> list[range]:
    """Indices 0..n-1 in contiguous blocks, the larger first, at most
    2 * cpus of them, none longer than ``max(1, n // cpus)``: shared over
    the CPUs they end after max(largest, n / cpus) region-times."""
    parts = -(-n // max(1, n // cpus))
    size, extra = divmod(n, parts)
    bounds = [0]
    for k in range(parts):
        bounds.append(bounds[-1] + size + (k < extra))
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _simulate_region(cfg: ScenarioConfig, reg: RegionRuntime) -> None:
    """Run one region until nothing is queued, finalize its nodes and set
    its ``outcome``.  After the horizon every chain of events is finite
    (README, "When a run ends"), given the hop limit and the interest
    lifetime that validate() bounds."""
    events = reg.kernel.run_until(math.inf)
    for node in reg.nodes:
        node.finalize(cfg.horizon_s)
    link, nodes = reg.station.uplink, reg.nodes
    figures = {  # each count is held by the node that saw its event
        "reports_originated": ordered_total((n.reports_originated for n in nodes), 0),
        "reports_delivered": ordered_total((n.reports_delivered for n in nodes), 0),
        "rf_losses": ordered_total((n.rf_losses for n in nodes), 0),
        "queue_losses": ordered_total((n.queue_losses for n in nodes), 0),
        "sleep_losses": ordered_total((n.sleep_losses for n in nodes), 0),
        "duplicate_relay_drops": ordered_total((n.duplicate_relay_drops for n in nodes), 0),
        "station_ingested": reg.station.ingested,
        "station_evicted": reg.station.evicted,
        "uplink_transmissions": link.transmissions,
        "uplink_abandoned": link.abandoned,
    }
    reg.outcome = RegionOutcome(events, figures, [node.summary_row() for node in reg.nodes],
                                reg.kernel.trace)


def _simulate_in_child(scn: Scenario, block: range, file) -> None:
    """Body of a forked child: simulate ``block``, then write its regions'
    outcomes and the central database (only their records) to ``file``."""
    for i in block:
        _simulate_region(scn.cfg, scn.regions[i])
    pickle.dump([scn.regions[i].outcome for i in block], file)
    scn.central.dump(file)


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
    records span fewer than two windows.  Raises NoData when records are
    present and none of them is of a configured region.
    """
    if len(db) == 0:
        return {}, {}, {}, {}
    present = set(db.region)
    climatologies = {r.region_id: r.climatology for r in cfg.regions if r.region_id in present}
    if not climatologies:
        raise NoData("no configured regions present in the database")
    t_max = max(db.ts)
    t_end = -(-(t_max + 1) // DAY_S) * DAY_S
    if t_end < MIN_WINDOW_S:
        return {}, {}, {}, {}
    indicators = indicators_all(db, climatologies, (0, t_end))
    classes = {rid: classify(ind, cfg.thresholds) for rid, ind in indicators.items()}
    try:
        patterns = evolve_all(db, t_max, climatologies, cfg.window_days, cfg.thresholds)
    except InsufficientSpan:
        patterns = {}
    forecast = advect_forecast(classes, indicators, cfg.region_centroids())
    return classes, indicators, patterns, forecast


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> dict:
    """Execute the full pipeline and return the run report.  Exports go
    to a fresh directory beside ``out_dir``, if given, and then replace
    their names there, the report last, so that ``out_dir`` holds one
    run's exports (and its other files) and stays as it was on failure."""
    started = time.perf_counter()
    scn = build_scenario(cfg)
    processed = simulate(scn)
    classes, indicators, patterns, forecast = analyse(scn)

    per_region = {}
    stored = scn.central.region_counts()
    for reg in scn.regions:
        per_region[str(reg.region_id)] = {
            "node_count": len(reg.nodes),
            **reg.outcome.figures,
            "central_records": stored.get(reg.region_id, 0),
            "central_duplicates": scn.central.duplicates_by_region.get(reg.region_id, 0),
        }

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
        "total_tx_rx_mJ": ordered_total(r["tx_mJ"] + r["rx_mJ"] for r in energy_rows),
    }
    if out_dir is None:
        report["wall_clock_s"] = time.perf_counter() - started
        return report
    out = Path(out_dir).resolve()  # so that the fresh directory is on its filesystem
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{out.name}-", dir=out.parent) as stage:
        write_exports(scn, report, classes, indicators, patterns, forecast, Path(stage), started)
        out.mkdir(exist_ok=True)
        (out / "run_report.json").unlink(missing_ok=True)  # until this run's lands
        for name in OPTIONAL_EXPORT_FILES + EXPORT_FILES:  # the report last
            if os.path.exists(written := os.path.join(stage, name)):
                os.replace(written, out / name)
            else:
                (out / name).unlink(missing_ok=True)  # a file of an earlier run
    return report


# -- exports -------------------------------------------------------------------


def _write(path: Path, lines) -> None:
    """Write ``lines``, each ended by a newline, one ``write`` per
    CSV_BLOCK_ROWS lines."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while batch := list(islice(lines, CSV_BLOCK_ROWS)):
            batch.append("")  # so that the join ends the last line too
            fh.write("\n".join(batch))


def write_placement(out: Path, plans: list[PlacementPlan]) -> None:
    _write(out / "placement.json", [plans_to_json(plans)])


def write_analysis(out: Path, classes, patterns, forecast) -> None:
    _write(out / "pattern.csv", patterns_to_csv_lines(patterns))
    _write(out / "forecast.json", [forecast_to_json(classes, forecast)])


def write_exports(scn: Scenario, report, classes, indicators, patterns, forecast,
                  out: Path, started: float | None = None) -> None:
    """Write every export, the report last, timing its wall_clock_s from ``started`` if given."""
    out.mkdir(parents=True, exist_ok=True)

    write_placement(out, [reg.plan for reg in scn.regions])

    with open(out / "central_db.csv", "wb") as fh:
        fh.writelines(scn.central.to_csv_lines())  # the file's bytes, a block at a time

    energy_lines = [ENERGY_CSV_COLUMNS]
    plot_energy = ["node_id,region,tx_mJ,rx_mJ,idle_mJ,sensing_mJ,total_mJ"]
    for row in report["energy"]:
        shared = (f"{row['node_id']},{row['region']},{row['tx_mJ']!r},{row['rx_mJ']!r},"
                  f"{row['idle_mJ']!r},{row['sensing_mJ']!r}")
        energy_lines.append(f"{shared},{row['frames_sent']},{row['frames_dropped']},"
                            f"{row['reports_originated']},{row['reports_forwarded']}")
        total = row["tx_mJ"] + row["rx_mJ"] + row["idle_mJ"] + row["sensing_mJ"]
        plot_energy.append(f"{shared},{total!r}")
    _write(out / "energy.csv", energy_lines)
    _write(out / "plots_energy.csv", plot_energy)

    write_analysis(out, classes, patterns, forecast)

    temp_lines = ["region,month_index,window_start_s,mean_temp_C"]
    precip_lines = ["region,month_index,window_start_s,precip_mm"]
    # a run too short for an evolution pattern still plots its one window
    series = {rid: [(w, ind) for w, _cls, ind in patterns[rid].entries] for rid in patterns}
    if not series and indicators:
        series = {rid: [(ind.window, ind)] for rid, ind in indicators.items()}
    climatologies = {r.region_id: r.climatology for r in scn.cfg.regions}
    for rid in sorted(series):
        clim = climatologies[rid]
        for k, ((t0, t1), ind) in enumerate(series[rid]):
            mean_temp = ind.mean_temp_anomaly_c + normal_temp_over_window(clim, t0, t1)
            temp_lines.append(f"{rid},{k},{t0},{mean_temp!r}")
            precip_lines.append(f"{rid},{k},{t0},{ind.mean_monthly_precip_mm!r}")
    _write(out / "plots_temperature.csv", temp_lines)
    _write(out / "plots_precipitation.csv", precip_lines)

    if scn.cfg.trace:
        _write(out / "trace.tsv", chain.from_iterable(reg.outcome.trace for reg in scn.regions))

    if scn.cfg.truth_dump:
        _write(out / "truth_daily.csv", _truth_daily_lines(scn.central))

    if started is not None:
        report["wall_clock_s"] = time.perf_counter() - started
    _write(out / "run_report.json", [json.dumps(report, indent=2, sort_keys=True)])


def _truth_daily_lines(db: CentralDatabase):
    """Per region and day: min, max and mean raw temperature and total
    precipitation, folded in row order.  The current (region, day)'s
    figures are held in locals while its rows run on, as in
    ``analytics._aggregate``; -0.0 added to a float leaves it as it is,
    so a day's sums start from its first row's values exactly."""
    days: dict[tuple[int, int], list] = {}
    held, region, start, stop = [], None, 0, 0  # the current day's list, region and [start, stop)
    lo = hi = tot = n = p_tot = 0
    for rid, ts, t, p in zip(db.region, db.ts, db.raw["temperature_c"],
                             db.raw["precipitation_mm"]):
        if rid != region or not start <= ts < stop:
            held[:] = lo, hi, tot, n, p_tot
            day = ts // DAY_S
            region, start, stop = rid, day * DAY_S, (day + 1) * DAY_S
            lo, hi, tot, n, p_tot = held = days.setdefault((rid, day), [t, t, -0.0, 0, -0.0])
        lo, hi = min(lo, t), max(hi, t)
        tot, n, p_tot = tot + t, n + 1, p_tot + p
    held[:] = lo, hi, tot, n, p_tot
    yield "region,day,temp_min_C,temp_max_C,temp_mean_C,precip_total_mm"
    for (rid, day), (lo, hi, tot, n, p_tot) in sorted(days.items()):
        yield f"{rid},{day},{lo!r},{hi!r},{(tot / n)!r},{p_tot!r}"


# -- replay -----------------------------------------------------------------------


def compare_runs(dir_a: Path, dir_b: Path) -> list[str]:
    """Mismatches between two runs' exports, compared byte by byte (a
    required one missing from both is one); the run report is compared
    as JSON without the wall clock and the config's output directory and retired key."""
    filecmp.clear_cache()  # its cached outcomes trust size and mtime
    problems = []
    for name in EXPORT_FILES + OPTIONAL_EXPORT_FILES:
        pa, pb = Path(dir_a) / name, Path(dir_b) / name
        if not pa.exists() or not pb.exists():
            if pa.exists() != pb.exists():
                problems.append(f"{name}: present in one run only")
            elif name in EXPORT_FILES:
                problems.append(f"{name}: missing from both runs")
            continue
        if name == "run_report.json":
            ra = json.loads(pa.read_text(encoding="utf-8"))
            rb = json.loads(pb.read_text(encoding="utf-8"))
            for rep in (ra, rb):
                rep.pop("wall_clock_s", None)
                rep.get("config", {}).pop("output_dir", None)
                rep.get("config", {}).get("interest", {}).pop(RETIRED_INTEREST_KEY, None)
            if ra != rb:
                keys = [k for k in ra if ra.get(k) != rb.get(k)]
                problems.append(f"{name}: differs at {keys}")
        elif not filecmp.cmp(pa, pb, shallow=False):
            problems.append(f"{name}: byte mismatch")
    return problems
