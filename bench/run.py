#!/usr/bin/env python3
"""droughtnet benchmark: per-phase host time of one seeded scenario,
end to end, in three routing workloads, with an optional traced run
that splits the time by layer.

    python3 bench/run.py --workload tree-default --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Every repetition is its own
single-threaded process (``bench/rep.py``) and repetitions run one at a
time.  ``--trace 0`` runs set-up probes, then repetitions while the next
one is expected to finish within ``--seconds`` (at least one), and
reports the median of each end-to-end metric; each repetition runs
analyse, export and classify in several rounds.  ``--trace 1`` runs one
untraced and one traced repetition and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give quartiles, the export digest, the machine stamps and the times
as measured.  The reported times are scaled to a reference host speed
by the probe in ``bench/hostspeed.py``, which samples the shared host's
speed while each phase runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).resolve().parent / "rep.py"

# routing mode and simulated days; every horizon holds at least two
# 30-day windows so evolve_all does real work
WORKLOADS = {
    "tree-default": ("tree", 91),
    "flood-storm": ("flooding", 61),
    "combined-dup": ("combined", 61),
}
QUICK_DAYS = 61

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "simulate_cpu_s": "s",
    "analyse_s": "s",
    "export_s": "s",
    "reclassify_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "kernel.events": "count",
    "kernel.schedule_calls": "count",
    "kernel.schedule_s": "s",
    "kernel.queue_peak": "count",
    "kernel.dispatch_self_s": "s",
    "kernel.events_per_s": "1/s",
    "stack.events.wake": "count",
    "stack.events.mac_retry": "count",
    "stack.events.link": "count",
    "stack.events.fan": "count",
    "stack.wake_s": "s",
    "stack.mac_retry_s": "s",
    "stack.link_s": "s",
    "stack.fan_s": "s",
    "stack.mac_retry_share": "ratio",
    "stack.relay_useful_ratio": "ratio",
    "stack.frames_sent": "count",
    "stack.frames_dropped": "count",
    "stack.transport.send_s": "s",
    "stack.reports_unaccounted": "count",
    "environment.samples": "count",
    "environment.sample_s": "s",
    "energy.tx_rx_mJ": "mJ",
    "geometry.tile_region_s": "s",
    "geometry.connectivity_check_s": "s",
    "runner.build_binary_tree_s": "s",
    "backbone.ingest_calls": "count",
    "backbone.ingest_s": "s",
    "backbone.central_add_calls": "count",
    "backbone.central_add_s": "s",
    "backbone.central_duplicates": "count",
    "backbone.central_useful_ratio": "ratio",
    "backbone.to_csv_s": "s",
    "backbone.from_csv_s": "s",
    "backbone.from_csv_rows_per_s": "1/s",
    "analytics.indicators_all_s": "s",
    "analytics.evolve_all_s": "s",
    "analytics.advect_forecast_s": "s",
    "analytics.rows_scanned": "count",
    "runner.export_bytes": "B",
    "runner.central_db_bytes": "B",
    "runner.write_exports_self_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBES = 5
ROUNDS = 2  # export and classify runs per repetition; analyse runs 8 * ROUNDS - 7
DEADLINE_S = 170.0  # every run must end within 180 s


class Runner:
    """Starts repetition processes one at a time and keeps the tally."""

    def __init__(self, routing: str, days: int, seed: int, work: Path, deadline: float):
        self.base = ["--routing", routing, "--days", str(days), "--seed", str(seed)]
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed = min(self.failed + 1, self.attempted)
        self.problems.append(problem)

    def rep(self, *flags: str) -> dict | None:
        self.attempted += 1
        rep_dir = self.work / f"rep{self.attempted}"
        cmd = [sys.executable, str(REP), *self.base, "--work", str(rep_dir), *flags]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.fail(f"repetition {self.attempted} {flags} timed out")
            return None
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            self.fail(f"repetition {self.attempted} {flags} exited {done.returncode}: {tail[0]}")
            return None
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.fail(f"repetition {self.attempted} {flags} printed no result")
            return None
        if result.get("problems"):
            self.fail(f"repetition {self.attempted} {flags}: " + "; ".join(result["problems"]))
        return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(runner: Runner, seconds: float, quick: bool) -> tuple[dict, dict]:
    """Untraced: set-up probes, then repetitions within ``seconds``."""
    probes = []
    if not quick:
        probes = [r for r in (runner.rep("--setup-only") for _ in range(SETUP_PROBES)) if r]
    start = time.monotonic()
    reps = []
    while True:
        t0 = time.monotonic()
        result = runner.rep("--rounds", "1" if quick else str(ROUNDS))
        if result is None:
            break
        reps.append(result)
        took = time.monotonic() - t0
        if quick or time.monotonic() - start + took > seconds:
            break
    samples = {name: [r[name] for r in reps] for name in END_TO_END}
    samples["setup_s"] = [r["setup_s"] for r in probes] + samples["setup_s"]
    detail = {name: {"n": len(v), "q1_q2_q3": quartiles(v)} for name, v in samples.items() if v}
    raw = {name: [r["raw"][name] for r in probes + reps if name in r["raw"]]
           for name in reps[0]["raw"]} if reps else {}
    detail["raw_median"] = {name: statistics.median(v) for name, v in raw.items()}
    detail["host_speed"] = [r["host_speed"] for r in reps]
    if reps:
        for key in ("digest", "events"):
            seen = {r[key] for r in reps}
            if len(seen) > 1:
                runner.fail(f"repetitions of one seed differ in {key}: {sorted(seen)}")
        detail["digest"] = reps[0]["digest"]
        detail["kernel.events"] = reps[0]["events"]
    metrics = {name: statistics.median(v) for name, v in samples.items() if v}
    return metrics, detail


def measure_traced(runner: Runner) -> tuple[dict, dict]:
    """One untraced and one traced repetition of the same seed."""
    plain = runner.rep()
    traced = runner.rep("--trace")
    if plain is None or traced is None:
        return {}, {}
    for key in ("digest", "events"):
        if plain[key] != traced[key]:
            runner.fail(f"traced run {key} {traced[key]} != untraced {plain[key]}")
    metrics = {name: traced[name] for name in PER_LAYER if name in traced}
    metrics["kernel.events_per_s"] = plain["events"] / plain["simulate_s"]
    metrics["trace.overhead_ratio"] = traced["pipeline_s"] / plain["pipeline_s"] - 1.0
    detail = {
        "digest": plain["digest"],
        "untraced": {name: plain[name] for name in END_TO_END},
        "traced": {name: traced[name] for name in END_TO_END},
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help=f"{QUICK_DAYS} simulated days, one repetition of one round, no set-up probes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "droughtnet" / "__init__.py").is_file():
        print(f"droughtnet sources not found under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    routing, days = WORKLOADS[args.workload]
    if args.quick:
        days = QUICK_DAYS
    started = time.monotonic()
    stamps = {
        "workload": args.workload, "routing": routing, "horizon_days": days,
        "seed": args.seed, "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "loadavg_before": os.getloadavg(),
    }
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(routing, days, args.seed, work, started + DEADLINE_S)
    try:
        runner.rep("--setup-only")  # compiles bytecode; not measured
        if args.trace:
            metrics, detail = measure_traced(runner)
            units = PER_LAYER
        else:
            metrics, detail = measure(runner, args.seconds, args.quick)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamps["loadavg_after"] = os.getloadavg()
    stamps["run_s"] = time.monotonic() - started

    missing = sorted(set(units) - set(metrics))
    correct = not runner.problems and not missing
    error_rate = runner.failed / runner.attempted
    for problem in runner.problems:
        print(f"FAILED {problem}")
    for name in units:
        if name in metrics:
            q = detail.get(name, {}).get("q1_q2_q3")
            spread = f"  q1 {q[0]:.6g}  q3 {q[2]:.6g}  n {detail[name]['n']}" if q else ""
            print(f"{name:34s} {metrics[name]:>14.6g} {units[name]:6s}{spread}")
    print(f"{'error_rate':34s} {error_rate:>14.6g} ratio  ({runner.failed} of {runner.attempted})")
    print("detail " + json.dumps({"stamps": stamps, **detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
