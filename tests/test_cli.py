import json

import pytest

from droughtnet.cli import main

TINY = '{"horizon_s": 172800}'  # two days
SMALL_ONE_REGION = json.dumps(
    {
        "horizon_s": 70 * 86_400,
        "regions": [{"region_id": 3}],
    }
)
COMBINED_ONE_REGION = json.dumps(
    {
        "horizon_s": 61 * 86_400,
        "routing_mode": "combined",
        "regions": [{"region_id": 4}],
    }
)


def write_cfg(tmp_path, text, name="cfg.json"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_plan_writes_placement(tmp_path, capsys):
    rc = main(["plan", "--out", str(tmp_path / "o")])
    assert rc == 0
    placement = json.loads((tmp_path / "o" / "placement.json").read_text())
    assert len(placement) == 5
    out = capsys.readouterr().out
    assert "connected=True" in out

    # plan and run share one placement path and one writer
    cfg = write_cfg(tmp_path, TINY)
    main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
    main(["plan", "--config", cfg, "--out", str(tmp_path / "p")])
    assert ((tmp_path / "p" / "placement.json").read_bytes()
            == (tmp_path / "r" / "placement.json").read_bytes())


def test_run_writes_all_exports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--trace"])
    assert rc == 0
    for name in (
        "placement.json",
        "central_db.csv",
        "energy.csv",
        "pattern.csv",
        "forecast.json",
        "plots_temperature.csv",
        "plots_precipitation.csv",
        "plots_energy.csv",
        "run_report.json",
        "trace.tsv",
    ):
        assert (tmp_path / "o" / name).exists(), name
    report = json.loads((tmp_path / "o" / "run_report.json").read_text())
    assert report["record_count"] == 5 * 9 * 96
    trace_first = (tmp_path / "o" / "trace.tsv").read_text().splitlines()[0]
    t, seq, target, tag = trace_first.split("\t")
    assert t.isdigit() and seq.isdigit() and ":" in target and tag


def test_seed_override_changes_run(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "777"])
    ra = json.loads((tmp_path / "a" / "run_report.json").read_text())
    rb = json.loads((tmp_path / "b" / "run_report.json").read_text())
    assert ra["seed"] == 42 and rb["seed"] == 777
    assert ra["energy"] != rb["energy"]


def test_replay_reproduces_and_detects_tampering(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "o"
    main(["run", "--config", cfg, "--out", str(out)])
    assert main(["replay", "--out", str(out)]) == 0
    assert "byte-identically" in capsys.readouterr().out

    db = out / "central_db.csv"
    db.write_text(db.read_text().replace("20", "21", 1), encoding="utf-8")
    assert main(["replay", "--out", str(out)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_replay_compares_trace_and_truth_dump(tmp_path, capsys):
    cfg = write_cfg(tmp_path, json.dumps({"horizon_s": 172800, "trace": True, "truth_dump": True}))
    out = tmp_path / "o"
    main(["run", "--config", cfg, "--out", str(out)])
    assert main(["replay", "--out", str(out)]) == 0
    for name in ("trace.tsv", "truth_daily.csv"):
        path = out / name
        original = path.read_text(encoding="utf-8")
        lines = original.splitlines()
        lines[5] += "0"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", "--out", str(out)]) == 1, name
        assert f"MISMATCH {name}: byte mismatch" in capsys.readouterr().out
        path.write_text(original, encoding="utf-8")


def test_replay_without_report_fails(tmp_path, capsys):
    assert main(["replay", "--out", str(tmp_path)]) == 1


def test_classify_recomputes_from_db_export(tmp_path, capsys):
    # classify on a run's central_db.csv writes that run's analysis files,
    # also for a run too short to classify
    for name, text in (("small", SMALL_ONE_REGION), ("combined", COMBINED_ONE_REGION),
                       ("tiny", TINY)):
        cfg = write_cfg(tmp_path, text, name=f"{name}.json")
        out, again = tmp_path / name, tmp_path / f"{name}-classify"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        rc = main([
            "classify", "--config", cfg, "--db", str(out / "central_db.csv"),
            "--out", str(again),
        ])
        assert rc == 0, name
        for export in ("pattern.csv", "forecast.json"):
            assert (again / export).read_bytes() == (out / export).read_bytes(), (name, export)
        printed = capsys.readouterr().out
        if name == "small":
            assert "region 3: Serious" in printed
            forecast = json.loads((again / "forecast.json").read_text())
            assert forecast["3"]["current"] == "Serious"
        if name == "tiny":
            assert (again / "forecast.json").read_text() == "{}\n"


def test_classify_rejects_malformed_db_without_traceback(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    lines = (tmp_path / "o" / "central_db.csv").read_text().splitlines()
    for name, row in (("long", lines[2] + ",1.0"), ("short", lines[2].rsplit(",", 1)[0])):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join([*lines[:2], row, *lines[3:]]) + "\n")
        capsys.readouterr()
        rc = main(["classify", "--config", cfg, "--db", str(bad), "--out", str(tmp_path / name)])
        err = capsys.readouterr().err
        assert rc == 1, name
        assert err.count("\n") == 1 and "line 3:" in err and "Traceback" not in err, err


def test_routing_flag(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--routing", "flooding"])
    report = json.loads((tmp_path / "o" / "run_report.json").read_text())
    assert report["routing_mode"] == "flooding"


def test_env_var_output_dir(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, TINY)
    monkeypatch.setenv("DROUGHTNET_OUT", str(tmp_path / "envout"))
    main(["run", "--config", cfg])
    assert (tmp_path / "envout" / "run_report.json").exists()


@pytest.mark.parametrize("command", ["plan", "run", "classify", "replay"])
def test_config_error_exits_without_traceback(tmp_path, capsys, command):
    bad = {"horizon_s": 172800, "backbone": {"latency_s": "x"}}
    if command == "replay":
        # a stored run whose config echo no longer validates
        (tmp_path / "o").mkdir()
        (tmp_path / "o" / "run_report.json").write_text(json.dumps({"config": bad}))
        argv = ["replay", "--out", str(tmp_path / "o")]
    else:
        argv = [command, "--config", write_cfg(tmp_path, json.dumps(bad)),
                "--out", str(tmp_path / "o")]
        if command == "classify":
            argv += ["--db", str(tmp_path / "central_db.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "invalid config: backbone.latency_s must be a number, got 'x'\n", err
