"""Command-line harness.

Subcommands: plan (placement only), run (full pipeline), classify
(re-run analytics on an existing central-db export), replay (verify a
stored run reproduces byte-identically).  DROUGHTNET_OUT overrides the
output directory.  A config that does not parse or validate ends the
command with exit status 1 and its error, which names the key, on
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .backbone import BackboneError, CentralDatabase
from .config import ConfigError, ScenarioConfig, config_from_dict, load_config, validate
from .runner import analyse_db, compare_runs, place, run_scenario, write_analysis, write_placement


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else validate(ScenarioConfig())
    out = args.out or os.environ.get("DROUGHTNET_OUT")
    return cfg.with_overrides(
        seed=args.seed,
        routing_mode=getattr(args, "routing", None),
        output_dir=out,
        trace=True if getattr(args, "trace", False) else None,
    )


def cmd_plan(args) -> int:
    cfg = _load(args)
    placed = place(cfg)
    for plan, conn in placed:
        print(f"region {plan.region_id}: {len(plan.all_positions())} nodes "
              f"({cfg.cell_shape.value}, range {cfg.radio_range_km} km), "
              f"connected={conn.connected}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_placement(out, [plan for plan, _ in placed])
    print(f"wrote {out / 'placement.json'}")
    return 0


def cmd_run(args) -> int:
    cfg = _load(args)
    report = run_scenario(cfg, out_dir=cfg.output_dir)
    print(f"seed {report['seed']}  routing {report['routing_mode']}  "
          f"events {report['event_count']}  records {report['record_count']}  "
          f"wall {report['wall_clock_s']:.1f}s")
    for region in sorted(report["classes"], key=int):
        print(f"region {region}: {report['classes'][region]}"
              f" -> forecast {report['forecast'][region]}")
    print(f"outputs in {cfg.output_dir}")
    return 0


def cmd_classify(args) -> int:
    cfg = _load(args)
    try:
        with open(args.db, encoding="utf-8") as fh:
            db = CentralDatabase.from_csv_lines(fh)
    except BackboneError as exc:
        print(f"{args.db}: {exc}", file=sys.stderr)
        return 1
    if len(db) and not {r.region_id for r in cfg.regions} & set(db.region):
        print("no configured regions present in the database", file=sys.stderr)
        return 1
    classes, _, patterns, forecast = analyse_db(cfg, db)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_analysis(out, classes, patterns, forecast)
    for region in sorted(classes):
        print(f"region {region}: {classes[region].label} -> forecast {forecast[region].label}")
    print(f"wrote {out / 'pattern.csv'} and {out / 'forecast.json'}")
    return 0


def cmd_replay(args) -> int:
    run_dir = Path(args.out or os.environ.get("DROUGHTNET_OUT") or "out")
    report_path = run_dir / "run_report.json"
    if not report_path.exists():
        print(f"no run report at {report_path}", file=sys.stderr)
        return 1
    stored = json.loads(report_path.read_text(encoding="utf-8"))
    cfg = config_from_dict(stored["config"])
    with tempfile.TemporaryDirectory(prefix="droughtnet-replay-") as tmp:
        run_scenario(cfg, out_dir=tmp)
        problems = compare_runs(run_dir, Path(tmp))
    if problems:
        for p in problems:
            print(f"MISMATCH {p}")
        return 1
    print(f"replay of {run_dir} reproduced byte-identically")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droughtnet",
        description="three-tier wireless sensor network simulator for drought-severity prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, routing=True):
        p.add_argument("--config", help="scenario config file (JSON); defaults otherwise")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (or DROUGHTNET_OUT)")
        if routing:
            p.add_argument("--routing", choices=["tree", "diffusion", "flooding", "combined"],
                           help="override the routing mode")

    p = sub.add_parser("plan", help="compute and export node placement only")
    common(p, routing=False)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("run", help="run the full pipeline and write all exports")
    common(p)
    p.add_argument("--trace", action="store_true", help="write the per-event trace")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("classify", help="re-run analytics on an existing central-db CSV")
    common(p, routing=False)
    p.add_argument("--db", required=True, help="central_db.csv from a previous run")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("replay", help="re-run a stored run and verify identical exports")
    p.add_argument("--out", help="directory of the stored run (or DROUGHTNET_OUT)")
    p.set_defaults(fn=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
