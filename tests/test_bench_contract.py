"""The names the benchmark patches and reads in src/ are still there: a
traced repetition of bench/rep.py, run as the benchmark runs it, counts
every layer it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_bench_repetition_counts_every_layer(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "rep.py"), "--routing", "tree", "--days", "2",
         "--seed", "1", "--trace", "--work", str(tmp_path / "work")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    for name in ("kernel.schedule_calls", "stack.events.link", "backbone.central_add_calls"):
        assert result[name] > 0, name
