"""Smoke tests of the experiment scripts, run as a user runs them: in a
subprocess, from the command line, against the package's source tree."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_run_default_scenario_script(tmp_path):
    out = tmp_path / "out"
    proc = run_script("run_default_scenario.py", "--days", "2", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("simulated 2 days, seed 42: ")
    assert "horizon too short for classification (needs >= 30 days)" in lines[1]
    assert sum(line.startswith("  region ") for line in lines[2:]) == 5
    assert lines[-1] == f"exports in {out}"
    assert (out / "central_db.csv").is_file()


def test_compare_routing_energy_script(tmp_path):
    proc = run_script("compare_routing_energy.py", "--days", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("diffusion : tx+rx ")
    assert lines[1].startswith("flooding  : tx+rx ")
    assert lines[2] == "delivered sets match: True"
    assert lines[3].startswith("energy ratio diffusion/flooding: ")
    assert 0.0 < float(lines[3].rsplit(" ", 1)[1]) <= 1.0
