"""The names the benchmark patches and reads in src/ are still there: a
traced repetition of bench/rep.py, run as the benchmark runs it, counts
every layer it wraps, and an untraced one passes its checks on every
export round."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_rep(tmp_path, *args):
    """One bench/rep.py repetition of 2 days, seed 1; its result line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "rep.py"), "--days", "2", "--seed", "1", *args,
         "--work", str(tmp_path / "work")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_bench_repetition_counts_every_layer(tmp_path):
    result = run_rep(tmp_path, "--routing", "tree", "--trace")
    assert result["problems"] == []
    for name in ("kernel.schedule_calls", "stack.events.link", "backbone.central_add_calls"):
        assert result[name] > 0, name
    # the export goes through the to_csv_lines that the tracer wraps
    assert result["backbone.to_csv_s"] > 0


def test_untraced_export_rounds_agree(tmp_path):
    """A second export round must give the first one's digest, and
    classify the run's labels, as the benchmark's repetitions check."""
    assert run_rep(tmp_path, "--routing", "combined", "--rounds", "2")["problems"] == []
