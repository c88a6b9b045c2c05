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


def test_run_owns_its_output_directory(tmp_path, capsys):
    """A run into a directory that holds an earlier run's exports leaves
    only its own there, so it replays clean, and files that are not
    exports stay."""
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    assert main(["run", "--config", cfg, "--out", str(out), "--trace"]) == 0
    assert (out / "trace.tsv").exists()
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "trace.tsv").exists()
    assert main(["replay", "--out", str(out)]) == 0, capsys.readouterr().out
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "o"]  # no fresh directory left


def test_replay_of_a_report_that_echoes_the_retired_key(tmp_path, capsys):
    """Reports of older versions echo interest.attributes, which no run
    read: replay drops it from the stored echo and still reproduces."""
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, TINY), "--out", str(out)]) == 0
    report = out / "run_report.json"
    stored = json.loads(report.read_text(encoding="utf-8"))
    stored["config"]["interest"]["attributes"] = ["temperature_c", "precipitation_mm"]
    report.write_text(json.dumps(stored, indent=2, sort_keys=True), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--out", str(out)]) == 0, capsys.readouterr()
    assert "byte-identically" in capsys.readouterr().out


def test_replay_without_report_fails(tmp_path, capsys):
    assert main(["replay", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("kind", ["truncated", "not-utf8", "directory", "no-config",
                                  "not-an-object", "config-not-an-object"])
def test_replay_rejects_a_bad_report_without_traceback(tmp_path, capsys, kind):
    report = tmp_path / "o" / "run_report.json"
    report.parent.mkdir()
    if kind == "directory":
        report.mkdir()
    else:
        report.write_bytes({
            "truncated": b'{"seed": 1, "config": {"seed"',
            "not-utf8": b'{"seed": "\xff"}',
            "no-config": b'{"seed": 1}',
            "not-an-object": b"[1, 2]",
            "config-not-an-object": b'{"config": [1]}',
        }[kind])
    assert main(["replay", "--out", str(report.parent)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{report}: ") and err.count("\n") == 1, err


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


def test_classify_rejects_malformed_db_without_traceback(tmp_path, capsys, cpus, started,
                                                         share_rows):
    cfg = write_cfg(tmp_path, TINY)
    main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    lines = (tmp_path / "o" / "central_db.csv").read_text().splitlines()
    share_rows(len(lines) // 8)  # so that 2 CPUs split it
    cells = lines[-2].split(",")
    cells[10] = "wet"
    # a row of the first share, then of the second, with a wrong field count or a bad value
    for name, at, row in (("long", 2, lines[2] + ",1.0"), ("short", 2, lines[2].rsplit(",", 1)[0]),
                          ("long-second", len(lines) - 2, lines[-2] + ",1.0"),
                          ("bad-value-second", len(lines) - 2, ",".join(cells))):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join([*lines[:at], row, *lines[at + 1:]]) + "\n")
        errors = []
        for n in (1, 2):
            cpus(n)
            capsys.readouterr()
            del started[:]
            rc = main(["classify", "--config", cfg, "--db", str(bad),
                       "--out", str(tmp_path / name)])
            err = capsys.readouterr().err
            assert rc == 1, name
            assert err.count("\n") == 1 and f"line {at + 1}:" in err, err
            assert "Traceback" not in err
            assert len(started) == (n if n > 1 else 0)
            errors.append(err)
        assert errors[0] == errors[1]  # the serial load's message
    assert "bad raw_humidity_pct value 'wet'" in errors[0]


def test_classify_rejects_a_region_without_a_window(tmp_path, capsys):
    """A configured region with no records in an evolution window fails
    the analysis: one line naming the file and the fault, exit status 1
    and no analysis files."""
    cfg = write_cfg(tmp_path, json.dumps(
        {"horizon_s": 61 * 86_400, "regions": [{"region_id": 1}, {"region_id": 2}]}))
    main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    lines = (tmp_path / "o" / "central_db.csv").read_text().splitlines()
    # region 2's rows from day 30 on, the second 30-day window, are gone
    kept = [line for line in lines
            if not (line.startswith("2,") and int(line.split(",")[2]) >= 30 * 86_400)]
    assert len(kept) < len(lines)
    db = tmp_path / "db.csv"
    db.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    out = tmp_path / "classify"
    assert main(["classify", "--config", cfg, "--db", str(db), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"{db}: no region-2 records in window 1\n"
    assert not (out / "pattern.csv").exists() and not (out / "forecast.json").exists()


def test_classify_rejects_a_db_of_no_configured_region(tmp_path, capsys):
    """Records none of which is of a configured region fail the analysis,
    also when they span less than the 30-day minimum window: one line
    naming the file, exit status 1 and no analysis files."""
    run_cfg = write_cfg(tmp_path, json.dumps({"horizon_s": 172800, "regions": [{"region_id": 1}]}),
                        name="run.json")
    main(["run", "--config", run_cfg, "--out", str(tmp_path / "o")])
    capsys.readouterr()
    db, out = tmp_path / "o" / "central_db.csv", tmp_path / "classify"
    cfg = write_cfg(tmp_path, json.dumps({"horizon_s": 172800, "regions": [{"region_id": 3}]}))
    assert main(["classify", "--config", cfg, "--db", str(db), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"{db}: no configured regions present in the database\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_classify_rejects_unreadable_db_without_traceback(tmp_path, capsys, kind):
    db = tmp_path / "db.csv"
    if kind == "directory":
        db.mkdir()
    elif kind == "not-utf8":
        db.write_bytes(b"region_id,node_id\n\xff\xfe\n")
    rc = main(["classify", "--config", write_cfg(tmp_path, TINY), "--db", str(db),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"{db}: ") and err.count("\n") == 1 and "Traceback" not in err, err


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


def test_non_finite_config_exits_without_traceback(tmp_path, capsys):
    # json reads NaN: validate() used to die in math.ceil with a traceback
    cfg = write_cfg(tmp_path, '{"radio_range_km": NaN}')
    assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "invalid config: radio_range_km must be a finite number, got nan\n", err


@pytest.mark.parametrize("text, message", [
    # an integer too large for a float, at a float key: an OverflowError
    ('{"radio_range_km": 1' + "0" * 400 + "}",
     "radio_range_km must be a finite number, got an integer too large for a float"),
    # an integer literal past the interpreter's digit limit, at any key:
    # json.loads raised a ValueError that is not a JSONDecodeError
    ('{"seed": 1' + "0" * 4400 + "}", "{path}: Exceeds the limit (4300 digits)"),
], ids=["huge_float", "digit_limit"])
def test_huge_number_config_exits_without_traceback(tmp_path, capsys, text, message):
    cfg = write_cfg(tmp_path, text)
    assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid config: " + message.format(path=cfg)), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
