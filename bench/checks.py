"""Output checks made on every benchmark repetition."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from droughtnet.runner import EXPORT_FILES


def export_digest(run_dir: Path) -> str:
    """SHA-256 over the files ``compare_runs`` compares, with the run
    report's ``wall_clock_s`` dropped as it drops it."""
    h = hashlib.sha256()
    for name in EXPORT_FILES:
        data = (run_dir / name).read_bytes()
        if name == "run_report.json":
            report = json.loads(data)
            report.pop("wall_clock_s", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def _pattern_labels(path: Path) -> list[tuple[str, ...]]:
    # region, window start, window end and class; the indicator digits
    # may differ between the run and classify paths
    return [tuple(line.split(",")[:4]) for line in path.read_text(encoding="utf-8").splitlines()]


def reclassify_problems(run_dir: Path, reclass_dir: Path) -> list[str]:
    """``classify`` on the run's central_db.csv must give the run's
    per-region classes, forecast and per-window classes."""
    problems = []
    run_fc = json.loads((run_dir / "forecast.json").read_text(encoding="utf-8"))
    re_fc = json.loads((reclass_dir / "forecast.json").read_text(encoding="utf-8"))
    if run_fc != re_fc:
        problems.append(f"classify forecast {re_fc} differs from the run's {run_fc}")
    if _pattern_labels(run_dir / "pattern.csv") != _pattern_labels(reclass_dir / "pattern.csv"):
        problems.append("classify pattern.csv classes differ from the run's")
    return problems


def tree_ledger_problems(report: dict) -> list[str]:
    """Tree mode: every originated report is stored centrally or counted lost."""
    problems = []
    for region, r in sorted(report["per_region"].items()):
        losses = r["rf_losses"] + r["queue_losses"] + r["sleep_losses"]
        if r["reports_originated"] != r["central_records"] + losses:
            problems.append(
                f"region {region}: originated {r['reports_originated']} != "
                f"central {r['central_records']} + losses {losses}"
            )
    return problems
