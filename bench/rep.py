#!/usr/bin/env python3
"""One benchmark repetition: a single process that runs one seeded
droughtnet scenario end to end and prints its measurements as one JSON
line.  ``bench/run.py`` starts these one at a time; run one by hand with

    PYTHONPATH=src python3 bench/rep.py --routing tree --days 91 --seed 1 \
        --work .bench_work/manual [--rounds 2] [--trace | --setup-only]

Phases: import droughtnet and validate the config, then
``runner.run_scenario`` (build_scenario, simulate, analyse, write_exports
into a fresh directory), then ``droughtnet classify`` on the run's
``central_db.csv``.  With ``--rounds N`` export and classify run N
times in all, analyse 8N - 7 times, and each reports its median; every
export must give the first one's digest.  Only ``sys``,
``time``, ``argparse`` and the host-speed probe are loaded before the
set-up clock starts, so set-up pays for the imports a ``droughtnet
run`` pays for.

Every time is reported twice: under its metric name scaled to the
reference speed of ``hostspeed.py``, and measured as is under
``raw``.  The probe runs from before the set-up clock starts to the
end, and the scaling is worked out after the last phase, outside every
timed region.
"""

import argparse
import sys
import time

import hostspeed

# the probe loop that does each phase's kind of work; "format" for the rest
PROBE_KIND = {"simulate": "dispatch"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--routing", required=True)
    ap.add_argument("--days", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="empty directory for this repetition's files")
    ap.add_argument("--rounds", type=int, default=1,
                    help="times to run analyse, export and classify after the simulation")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true", help="wrap every layer's entry points")
    mode.add_argument("--setup-only", action="store_true", help="stop after build_scenario")
    return ap.parse_args(argv)


def main() -> int:
    args = parse_args()
    probe = hostspeed.SpeedProbe()
    probe.start()
    try:
        return measure(args, probe)
    finally:
        probe.stop()


def measure(args, probe) -> int:
    started = time.perf_counter()
    from droughtnet import cli, runner
    from droughtnet.config import config_from_dict

    cfg = config_from_dict({
        "seed": args.seed,
        "horizon_s": args.days * 86_400,
        "routing_mode": args.routing,
    })
    validated = time.perf_counter()

    import json

    if args.setup_only:
        runner.build_scenario(cfg)
        built = time.perf_counter()
        print(json.dumps({"setup_s": probe.scaled(started, built, "format"),
                          "raw": {"setup_s": built - started}}))
        return 0

    import contextlib
    import io
    import resource
    import shutil
    from pathlib import Path
    from statistics import median

    import tracing
    from checks import export_digest, reclassify_problems, tree_ledger_problems

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # per phase: (start, end, CPU seconds) of each call, scaled at the end
    windows: dict[str, list[tuple[float, float, float]]] = {}
    kept = {}  # last result of each phase

    def timed(name, fn):
        def phase(*a):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    kept[name] = fn(*a)
                else:
                    tracer.phase = name
                    kept[name] = tracer.call("phase." + name, fn, *a)
                return kept[name]
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                windows.setdefault(name, []).append((t0, t1, c1 - c0))
        return phase

    phases = ("build_scenario", "simulate", "analyse", "write_exports")
    for name in phases:
        setattr(runner, name, timed(name, getattr(runner, name)))

    work = Path(args.work)
    run_dir = work / "run"
    t0 = time.perf_counter()
    report = runner.run_scenario(cfg, out_dir=run_dir)
    t1 = time.perf_counter()
    digest = export_digest(run_dir)

    reclassify = timed("reclassify", cli.main)
    problems = []

    def check_reclassify(k):
        out = work / f"classify{k}"
        argv = ["classify", "--db", str(run_dir / "central_db.csv"), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            status = reclassify(argv)
        if status != 0:
            return [f"classify exited with {status}"]
        found = reclassify_problems(run_dir, out)
        shutil.rmtree(out)
        return found

    # repeat the short phases, so that their medians span more than one
    # moment of a shared machine's speed; the shorter the phase, the more
    # often it runs in an extra round
    problems += check_reclassify(1)
    scn = kept["build_scenario"]
    for k in range(2, args.rounds + 1):
        for _ in range(8):
            analysed = runner.analyse(scn)
        out = work / f"run{k}"
        runner.write_exports(scn, report, *analysed, out)
        if export_digest(out) != digest:
            problems.append(f"export round {k} digest differs from the first")
        shutil.rmtree(out)
        problems += check_reclassify(k)

    # wall and CPU seconds of every call, scaled and raw
    wall, cpu, raw_wall, raw_cpu = {}, {}, {}, {}
    for name, calls in windows.items():
        kind = PROBE_KIND.get(name, "format")
        speeds = [probe.speed(a, b, kind) for a, b, _ in calls]
        wall[name] = [(b - a) * v for (a, b, _), v in zip(calls, speeds)]
        cpu[name] = [c * v for (_, _, c), v in zip(calls, speeds)]
        raw_wall[name] = [b - a for a, b, _ in calls]
        raw_cpu[name] = [c for _, _, c in calls]
    import_validate_s = probe.scaled(started, validated, "format")
    raw_import_validate_s = validated - started
    # each phase scaled by its own probe kind, the glue between them by "format"
    glue_s = t1 - t0 - sum(raw_wall[name][0] for name in phases)
    pipeline_s = (import_validate_s + sum(wall[name][0] for name in phases)
                  + glue_s * probe.speed(t0, t1, "format"))

    if args.routing == "tree":
        problems += tree_ledger_problems(report)
    regions = report["per_region"].values()
    unaccounted = sum(
        r["reports_originated"] - r["reports_delivered"]
        - r["rf_losses"] - r["queue_losses"] - r["sleep_losses"]
        for r in regions
    )
    result = {
        "problems": problems,
        "digest": digest,
        "events": report["event_count"],
        "records": report["record_count"],
        "setup_s": import_validate_s + wall["build_scenario"][0],
        "simulate_s": wall["simulate"][0],
        "simulate_cpu_s": cpu["simulate"][0],
        "analyse_s": median(wall["analyse"]),
        "export_s": median(wall["write_exports"]),
        "reclassify_s": median(wall["reclassify"]),
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": {
            "setup_s": raw_import_validate_s + raw_wall["build_scenario"][0],
            "simulate_s": raw_wall["simulate"][0],
            "simulate_cpu_s": raw_cpu["simulate"][0],
            "analyse_s": median(raw_wall["analyse"]),
            "export_s": median(raw_wall["write_exports"]),
            "reclassify_s": median(raw_wall["reclassify"]),
            "pipeline_s": raw_import_validate_s + t1 - t0,
        },
        "host_speed": {kind: probe.speed(started, time.perf_counter(), kind)
                       for kind in hostspeed.KINDS},
        "stack.reports_unaccounted": unaccounted,
        "runner.export_bytes": sum(p.stat().st_size for p in run_dir.iterdir()),
        "runner.central_db_bytes": (run_dir / "central_db.csv").stat().st_size,
    }
    if tracer is not None:
        tracer.speed = {name: sum(wall[name]) / sum(raw_wall[name]) for name in wall}
        result.update(tracing.layer_metrics(tracer, report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
