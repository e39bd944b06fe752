import json
import math

import numpy as np
import pytest

from pathfollow.cli import main
from pathfollow.config import (
    ConfigError,
    default_scenario,
    load_scenario,
    parse_scenario,
)


def write_config(tmp_path, data, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------


def test_default_scenario_parses():
    cfg = parse_scenario(default_scenario())
    assert cfg.speed == 5.0
    assert cfg.lookahead == 10.0
    assert cfg.start == (-15.0, 0.0)
    assert len(cfg.sweep_headings_deg) == 11
    assert cfg.sweep_headings_deg[0] == pytest.approx(-20.882)
    assert cfg.sweep_headings_deg[-1] == pytest.approx(129.118)
    assert cfg.optimizer.d_limit == pytest.approx(2 * cfg.lookahead)


def test_partial_overrides_merge_with_defaults():
    cfg = parse_scenario({"vehicle": {"heading_deg": 90.0}})
    assert cfg.heading_deg == 90.0
    assert cfg.speed == 5.0


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_scenario({"vehicel": {}})


def test_bad_values_collected():
    try:
        parse_scenario(
            {
                "vehicle": {"speed": -1.0, "start": [0], "heading_deg": "n"},
                "guidance": {"lookahead": 0.0},
                "controller": "bogus",
            }
        )
    except ConfigError as exc:
        msgs = "\n".join(exc.problems)
        assert "vehicle.speed" in msgs
        assert "vehicle.start" in msgs
        assert "vehicle.heading_deg" in msgs
        assert "guidance.lookahead" in msgs
        assert "controller" in msgs
    else:
        pytest.fail("expected ConfigError")


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="not found"):
        load_scenario("/nonexistent/cfg.json")


def test_path_builders_from_config(tmp_path):
    for spec, probe in [
        ({"kind": "line", "start": [0, 0], "direction": [1, 0], "length": 50.0}, 50.0),
        ({"kind": "circle", "center": [0, 0], "radius": 10.0, "turns": 1.0}, 2 * math.pi * 10),
    ]:
        cfg = parse_scenario({"path": spec})
        assert cfg.build_path().total_length == pytest.approx(probe, rel=1e-6)
    pts = [[x, 0.5 * x] for x in np.linspace(0, 30, 40)]
    cfg = parse_scenario({"path": {"kind": "polyline", "points": pts}})
    assert cfg.build_path().total_length == pytest.approx(30 * math.hypot(1, 0.5), rel=1e-3)


def test_polyline_path_from_csv_file(tmp_path):
    pts = np.column_stack([np.linspace(0, 30, 40), np.linspace(0, 15, 40)])
    np.savetxt(tmp_path / "pts.csv", pts, delimiter=",")
    cfgp = write_config(tmp_path, {"path": {"kind": "polyline", "file": "pts.csv"}})
    cfg = load_scenario(cfgp)  # relative file resolves next to the config
    assert cfg.build_path().total_length == pytest.approx(30 * math.hypot(1, 0.5), rel=1e-3)


# ----------------------------------------------------------------------
# CLI: run
# ----------------------------------------------------------------------


def fast_scenario():
    # Short line path keeps CLI tests quick.
    return {
        "path": {"kind": "line", "start": [0.0, 0.0], "direction": [1.0, 0.0], "length": 60.0},
        "vehicle": {"speed": 5.0, "start": [0.0, 2.0], "heading_deg": 0.0},
        "optimizer": {"enabled": False},
        "controller": "both",
    }


def test_cmd_run_writes_expected_files(tmp_path):
    cfgp = write_config(tmp_path, fast_scenario())
    out = tmp_path / "out"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
    assert (out / "path.csv").exists()
    assert (out / "trajectory_baseline.csv").exists()
    assert (out / "trajectory_proposed.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "improvements" in summary
    header = (out / "trajectory_baseline.csv").read_text().splitlines()[0]
    assert header == "t,x,y,psi,a_cmd,cte,phase,k1,k2"


def test_cmd_run_single_controller(tmp_path):
    cfg = fast_scenario()
    cfg["controller"] = "baseline"
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "solo"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
    assert (out / "trajectory_baseline.csv").exists()
    assert not (out / "trajectory_proposed.csv").exists()


def test_cmd_run_rejects_malformed_config(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"vehicle": {"speed": -3}})
    out = tmp_path / "bad"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()  # no partial outputs


def test_cmd_run_rejects_invalid_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 2


def test_cmd_run_infeasible_geometry_exit_code(tmp_path):
    cfg = {
        "path": {"kind": "sinusoid", "x_start": 0.0, "x_end": 150.0},
        "vehicle": {"speed": 5.0, "start": [60.0, 80.0], "heading_deg": 45.0},
        "controller": "baseline",
    }
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "inf"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 3
    assert (out / "diagnostics.json").exists()


def test_cmd_run_byte_identical_reruns(tmp_path):
    cfgp = write_config(tmp_path, fast_scenario())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", cfgp, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfgp, "--out", str(out2)]) == 0
    for name in ("trajectory_baseline.csv", "trajectory_proposed.csv", "path.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ----------------------------------------------------------------------
# CLI: sweep / compare / oracle
# ----------------------------------------------------------------------


def sweep_scenario():
    cfg = fast_scenario()
    cfg["sweep"] = {"headings_deg": [-10.0, 15.0]}
    return cfg


def test_cmd_sweep_table(tmp_path):
    cfgp = write_config(tmp_path, sweep_scenario())
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("heading_deg,base_a_rms,base_d_rms,base_a_max,prop_a_rms")
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 10
    assert (out / "sweep.txt").exists()


def test_cmd_sweep_single_row_matches_run(tmp_path):
    cfg = sweep_scenario()
    cfg["sweep"] = {"headings_deg": [-10.0]}
    cfg["vehicle"]["heading_deg"] = -10.0
    cfgp = write_config(tmp_path, cfg)
    out_s = tmp_path / "sw1"
    out_r = tmp_path / "rn1"
    assert main(["sweep", "--config", cfgp, "--out", str(out_s)]) == 0
    assert main(["run", "--config", cfgp, "--out", str(out_r)]) == 0
    row = (out_s / "sweep.csv").read_text().splitlines()[1].split(",")
    summary = json.loads((out_r / "summary.json").read_text())
    assert float(row[1]) == pytest.approx(summary["baseline"]["close_range"]["a_rms"], rel=1e-12)
    assert float(row[5]) == pytest.approx(summary["proposed"]["close_range"]["d_rms"], rel=1e-12)


def test_cmd_sweep_parallel_matches_serial(tmp_path):
    cfgp = write_config(tmp_path, sweep_scenario())
    out1, out2 = tmp_path / "ser", tmp_path / "par"
    assert main(["sweep", "--config", cfgp, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfgp, "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_cmd_sweep_records_failed_rows(tmp_path):
    cfg = {
        "path": {"kind": "sinusoid", "x_start": 0.0, "x_end": 150.0},
        "vehicle": {"speed": 5.0, "start": [60.0, 80.0], "heading_deg": 45.0},
        "optimizer": {"enabled": False},
        # First heading is infeasible (away from both circles), second works.
        "sweep": {"headings_deg": [45.0, -150.0]},
    }
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "swf"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "nan" in lines[1]
    assert "nan" not in lines[2]
    assert (out / "sweep_errors.json").exists()


def test_cmd_sweep_polyline_file_relative_to_config(tmp_path):
    pts = np.column_stack([np.linspace(0, 30, 40), np.linspace(0, 15, 40)])
    np.savetxt(tmp_path / "pts.csv", pts, delimiter=",")
    cfg = sweep_scenario()
    cfg["path"] = {"kind": "polyline", "file": "pts.csv"}
    cfg["sweep"] = {"headings_deg": [20.0]}
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "swp"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert all(math.isfinite(float(v)) for v in lines[1].split(","))


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "path_spec",
    [
        {"kind": "line", "start": [0.0, 0.0], "direction": [0, 0]},
        {"kind": "polyline", "file": "missing.csv"},
    ],
    ids=["zero_direction", "missing_file"],
)
def test_path_construction_errors_exit_2(tmp_path, capsys, command, path_spec):
    cfg = sweep_scenario()
    cfg["path"] = path_spec
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "bad"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not out.exists()


def test_cmd_compare(tmp_path, capsys):
    cfgp = write_config(tmp_path, fast_scenario())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfgp, "--out", str(out1)])
    main(["run", "--config", cfgp, "--out", str(out2)])
    assert main(["compare", str(out1), str(out2)]) == 0
    report = capsys.readouterr().out
    assert "identical" in report
    assert "DIFFERS" not in report


def test_cmd_oracle_deterministic(tmp_path, capsys):
    assert main(["oracle", "--seed", "3", "--scenarios", "20", "--samples", "200"]) == 0
    first = capsys.readouterr().out
    assert main(["oracle", "--seed", "3", "--scenarios", "20", "--samples", "200"]) == 0
    assert capsys.readouterr().out == first
    assert "ok" in first
