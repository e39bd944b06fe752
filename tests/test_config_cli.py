import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathfollow
from pathfollow import cli
from pathfollow.cli import main
from pathfollow.config import (
    ConfigError,
    default_scenario,
    load_scenario,
    parse_scenario,
)
from pathfollow.optimizer import OptimizerSettings
from pathfollow.path import make_sinusoid_path
from pathfollow.supervisor import Mission, MissionConfig
from pathfollow.vehicle import VehicleState


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
    assert cfg.mission.lookahead == 10.0
    assert cfg.start == (-15.0, 0.0)
    assert len(cfg.sweep_headings_deg) == 11
    assert cfg.sweep_headings_deg[0] == pytest.approx(-20.882)
    assert cfg.sweep_headings_deg[-1] == pytest.approx(129.118)
    assert cfg.optimizer.d_limit == pytest.approx(2 * cfg.mission.lookahead)
    assert cfg.mission == MissionConfig(k1=1.0, k2=0.0, optimizer=OptimizerSettings())
    # The blended-command bound also admits the optimizer's largest default gains.
    assert parse_scenario({"guidance": {"k1": 10.0, "k2": 10.0}}).mission == dataclasses.replace(cfg.mission, k1=10.0, k2=10.0)


# The stock scenario written out by hand, independent of config's schema table.
STOCK_SCENARIO = {
    "path": {"kind": "sinusoid", "x_start": -15.0, "x_end": 150.0},
    "vehicle": {"speed": 5.0, "start": [-15.0, 0.0], "heading_deg": 39.118},
    "guidance": {"lookahead": 10.0, "initiation_radius": None, "k1": 1.0, "k2": 0.0},
    "sim": {"dt": 0.01, "a_max": None, "max_time": 1800.0},
    "controller": "both",
    "optimizer": {"enabled": True, "k_max": 10.0, "grid": 11, "refine_rounds": 2, "d_limit": None},
    "tolerances": {"arrive_pos": 0.25, "arrive_heading_deg": 2.0, "end_s": 0.1},
    "sweep": {"headings_deg": [-20.882 + 15.0 * k for k in range(11)]},
}


def test_default_scenario_is_the_stock_dict():
    got = default_scenario()
    assert list(got) == list(STOCK_SCENARIO)
    for key, section in STOCK_SCENARIO.items():
        assert json.dumps(got[key]) == json.dumps(section), key  # key order and int/float too
    got["sweep"]["headings_deg"].append(0.0)
    got["vehicle"]["start"][0] = 1.0
    assert default_scenario() == STOCK_SCENARIO  # each call returns fresh lists


def test_readme_schema_block_is_the_default_scenario():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenario configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    documented, stock = parse_scenario(json.loads(block)), parse_scenario(default_scenario())
    assert documented.sweep_headings_deg == pytest.approx(stock.sweep_headings_deg, abs=1e-12)
    assert dataclasses.replace(documented, sweep_headings_deg=[]) == dataclasses.replace(stock, sweep_headings_deg=[])


def test_path_without_kind_is_a_sinusoid():
    cfg = parse_scenario({"path": {"x_end": 100.0}})
    assert cfg.path_spec == {"kind": "sinusoid", "x_start": -15.0, "x_end": 100.0}
    assert cfg.build_path().total_length == make_sinusoid_path(-15.0, 100.0).total_length


def test_integer_values_parse_as_floats():
    # A baseline scenario: the tuner refuses a 5 m step.
    cfg = parse_scenario({"vehicle": {"heading_deg": 90, "speed": 5, "start": [-15, 0]}, "sim": {"dt": 1},
                          "controller": "baseline"})
    assert [type(v) for v in (cfg.heading_deg, cfg.speed, *cfg.start, cfg.mission.dt)] == [float] * 5
    assert type(cfg.optimizer.grid) is int


@pytest.mark.parametrize(
    "scenario, problems",
    [
        ({"path": {"x_start": 5.0, "x_end": 5}}, ["path: empty domain, x_start must be below x_end"]),
        ({"path": {"kind": "polyline"}}, ["path: polyline needs 'points' or 'file'"]),
        ({"path": {"kind": "circle", "center": [0, 0], "sense": "cw"}},
         ["path.radius: missing value", "path.sense: invalid 'cw'"]),
        ({"path": {"kind": "line", "start": [0], "direction": [0, 0.0]}},
         ["path.start: expected [x, y] numbers, got [0]", "path.direction: must be a non-zero vector"]),
        ({"guidance": {"k1": -1, "k2": True, "initiation_radius": 0}},
         ["guidance.initiation_radius: must be positive, got 0", "guidance.k1: must be non-negative",
          "guidance.k2: expected a finite number, got True"]),
        ({"optimizer": {"enabled": 1, "grid": 11.0, "refine_rounds": -1, "d_limit": float("nan")}},
         ["optimizer.enabled: expected true/false, got 1", "optimizer.grid: expected integer in [3, 101], got 11.0",
          "optimizer.refine_rounds: expected integer >= 0, got -1",
          "optimizer.d_limit: expected a finite number, got nan"]),
        ({"guidance": {"lookahead": 1e4}, "optimizer": {"d_limit": None}},
         ["optimizer.d_limit: a rollout's min(d_limit, 1e+06) / speed / dt steps must be at most 10000,"
          " got 400000 at d_limit 20000.0, speed 5.0, dt 0.01"]),
        # A gain update's horizon, min(d_limit, curvature radius) / speed, must not underflow to 0; d_limit defaults
        # to twice the look-ahead.
        ({"guidance": {"lookahead": 5e-324}},
         ["optimizer.d_limit: a gain update's least horizon min(d_limit, 0.001) / speed must be positive,"
          " got 0.0 at d_limit 1e-323, speed 5.0"]),
        ({"optimizer": {"d_limit": 1e-323}},
         ["optimizer.d_limit: a gain update's least horizon min(d_limit, 0.001) / speed must be positive,"
          " got 0.0 at d_limit 1e-323, speed 5.0"]),
        ({"sweep": {"headings_deg": []}}, ["sweep.headings_deg: expected a non-empty list"]),
        ({"sweep": {"headings_deg": [1, "a", None]}}, ["sweep.headings_deg: non-numeric entries ['a', None]"]),
        ({"controller": "bogus", "vehicel": {}},
         ["unknown top-level keys: ['vehicel']", "controller: expected baseline/proposed/both, got 'bogus'"]),
        # The flight envelope is checked only once every key has parsed: dt 1e-6 alone is a too-long mission.
        ({"vehicle": {"heading_deg": "x"}, "sim": {"dt": 1e-6}}, ["vehicle.heading_deg: expected a finite number, got 'x'"]),
        # The tuner's batched projection cannot follow a 0.5 m step; the baseline never rolls out.
        ({"vehicle": {"speed": 50.0}},
         ["sim.dt: a rollout's step speed * dt must be at most 0.4 m, got 0.5 at speed 50.0, dt 0.01"]),
        ([1, 2], ["top level: expected an object"]),
    ],
)
def test_problem_messages(scenario, problems):
    with pytest.raises(ConfigError) as exc:
        parse_scenario(scenario)
    assert exc.value.problems == problems


def test_rollout_step_bound_applies_only_with_the_tuner():
    assert parse_scenario({"guidance": {"lookahead": 1e4}, "optimizer": {"enabled": False}}).optimizer is None
    assert parse_scenario({"vehicle": {"speed": 50.0}, "controller": "baseline"}).speed == 50.0
    assert parse_scenario({"vehicle": {"speed": 50.0}, "optimizer": {"enabled": False}}).optimizer is None


@pytest.mark.parametrize("argv", [["run"], ["sweep"]])
def test_a_step_the_tuner_cannot_follow_exits_2(tmp_path, capsys, argv):
    cfgp = write_config(tmp_path, {"vehicle": {"speed": 40.0}, "sim": {"dt": 0.0125}})
    out = tmp_path / "out"
    assert main([*argv, "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: sim.dt: a rollout's step speed * dt must be at most 0.4 m, got 0.5 at speed 40.0, dt 0.0125"
    ]
    assert not out.exists()


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
# CLI: sweep / compare
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


def test_cmd_sweep_parallel_matches_serial():
    # The pooled sweep renders the bytes of the rows flown in this process.
    cfg = parse_scenario(sweep_scenario())
    rows = [cli._sweep_row(cfg, h) for h in cfg.sweep_headings_deg]
    assert cli._render_sweep_csv(cli.run_sweep(cfg)) == cli._render_sweep_csv(rows)


@pytest.mark.parametrize("cpus, workers", [(2, 2), (64, 3), (None, 1), (1, 1)])
def test_cmd_sweep_caps_worker_processes(tmp_path, monkeypatch, cpus, workers):
    # A pool of more workers than rows or CPUs would only start idle
    # processes, so the sweep sizes it from both.  The fake pool starts no process.
    sizes = []

    class FakePool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_sweep_row", lambda cfg, h: {"heading_deg": h, "error": "not flown"})
    cfg = sweep_scenario()
    cfg["sweep"] = {"headings_deg": [-10.0, 15.0, 40.0]}
    out = tmp_path / "sw"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert sizes == [workers]
    assert len((out / "sweep.csv").read_text().splitlines()) == 4


def test_sweep_has_no_threads_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--out", str(tmp_path / "sw"), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


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


def zero_baseline_scenario():
    # On the line and along it: the baseline never commands or deviates.
    cfg = fast_scenario()
    cfg["vehicle"]["start"] = [0.0, 0.0]
    cfg["sweep"] = {"headings_deg": [0.0]}
    return cfg


def test_cmd_sweep_zero_baseline_writes_nan(tmp_path):
    cfgp = write_config(tmp_path, zero_baseline_scenario())
    out = tmp_path / "zb"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    row = dict(zip(*[line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]))
    assert row["base_a_rms"] == row["base_a_max"] == "0"
    assert row["imp_a_rms_pct"] == row["imp_a_max_pct"] == "nan"
    assert "nan" in (out / "sweep.txt").read_text()
    assert not (out / "sweep_errors.json").exists()


def test_cmd_run_zero_baseline_writes_null(tmp_path):
    cfgp = write_config(tmp_path, zero_baseline_scenario())
    out = tmp_path / "zbr"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
    text = (out / "summary.json").read_text()
    assert "NaN" not in text
    assert json.loads(text)["improvements"]["ae_rms_pct"] is None


def test_sweep_row_propagates_unexpected_errors(monkeypatch):
    def broken(*args):
        raise ValueError("not a geometry problem")

    monkeypatch.setattr(cli, "run_mission", broken)
    cfg = parse_scenario(fast_scenario())
    with pytest.raises(ValueError, match="not a geometry problem"):
        cli._sweep_row(cfg, 0.0)


def test_cmd_sweep_timed_out_mission_is_error_row(tmp_path):
    # At the stock heading both missions reach close range before 5 s but
    # need far longer to finish the path.
    cfgp = write_config(tmp_path, {"sim": {"max_time": 5.0}, "sweep": {"headings_deg": [39.118]}})
    out = tmp_path / "to"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[1:] == ["nan"] * 9
    errors = json.loads((out / "sweep_errors.json").read_text())
    assert list(errors.values()) == ["baseline mission timed out at t=5.00 s"]
    assert "failed: baseline mission timed out" in (out / "sweep.txt").read_text()


def test_cmd_run_timed_out_mission_exits_5(tmp_path, capsys):
    # Both missions pass the 5 s limit; run still writes all its outputs.
    cfgp = write_config(tmp_path, {"sim": {"max_time": 5.0}})
    out = tmp_path / "to"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 5
    names = ["path.csv", "summary.json", "trajectory_baseline.csv", "trajectory_proposed.csv"]
    assert sorted(p.name for p in out.iterdir()) == names
    summary = json.loads((out / "summary.json").read_text())
    assert summary["baseline"]["timed_out"] and summary["proposed"]["timed_out"]
    assert capsys.readouterr().err.splitlines() == [
        "baseline mission timed out at t=5.00 s",
        "proposed mission timed out at t=5.00 s",
    ]


def test_cmd_run_timeout_before_close_range_exits_5(tmp_path, capsys):
    # Neither mission reaches close range in 2 s: summarize raised "run has no close-range samples", exit 1,
    # after path.csv and one trajectory were written.
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    cfg = {"path": {"kind": "sinusoid", "x_start": 0, "x_end": 150}, "vehicle": {"start": [0, 80], "heading_deg": -90},
           "controller": "both", "sim": {"max_time": 2}}
    out = tmp_path / "far"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 5
    names = ["path.csv", "summary.json", "trajectory_baseline.csv", "trajectory_proposed.csv"]
    assert sorted(p.name for p in out.iterdir()) == names
    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    for controller in ("baseline", "proposed"):
        assert summary[controller]["close_range"] is None
        assert summary[controller]["timed_out"] and summary[controller]["phases"] == ["midcourse"]
        assert summary[controller]["full_mission"]["d_rms"] > 0.0
    assert summary["improvements"] is None
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "baseline: no close-range samples (200 steps)",
        "proposed: no close-range samples (200 steps)",
    ]
    assert captured.err.splitlines() == [
        "baseline mission timed out at t=1.99 s",
        "proposed mission timed out at t=1.99 s",
    ]


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


def test_pooled_sweep_workers_build_a_relative_polyline_file_as_this_process_does(tmp_path, monkeypatch):
    # Workers get the scenario, not the path: each builds it from the file named relative to the
    # config's directory, itself given relative to the working directory.
    (tmp_path / "scen").mkdir()
    pts = np.column_stack([np.linspace(0, 30, 40), 4.0 * np.sin(np.linspace(0, 3, 40))])
    np.savetxt(tmp_path / "scen" / "pts.csv", pts, delimiter=",")
    cfg = sweep_scenario()
    cfg["path"] = {"kind": "polyline", "file": "pts.csv"}
    cfg["guidance"] = {"k2": 1.0}
    write_config(tmp_path / "scen", cfg)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", "scen/scenario.json", "--out", "swp"]) == 0
    scenario = load_scenario("scen/scenario.json")
    rows = [cli._sweep_row(scenario, h) for h in scenario.sweep_headings_deg]
    assert all("error" not in r for r in rows), rows
    assert (tmp_path / "swp" / "sweep.csv").read_text() == cli._render_sweep_csv(rows)


@pytest.mark.parametrize("guidance", [{"k1": 1e300, "k2": 1e300}, {"k2": 1e305}], ids=["k1_k2_1e300", "k2_1e305"])
def test_a_baseline_scenario_is_not_bounded_by_gains_it_never_flies(tmp_path, guidance):
    # The baseline flies (1, 0): these gains exited 2 with a guidance.k1/k2 line, and now fly the stock baseline.
    assert parse_scenario({"controller": "baseline", "guidance": guidance}).controller == "baseline"
    stock, out = tmp_path / "stock", tmp_path / "big"
    assert main(["run", "--controller", "baseline", "--out", str(stock)]) == 0
    cfgp = write_config(tmp_path, {"controller": "baseline", "guidance": guidance})
    assert main(["run", "--controller", "baseline", "--config", cfgp, "--out", str(out)]) == 0
    names = sorted(p.name for p in stock.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    assert all((stock / name).read_bytes() == (out / name).read_bytes() for name in names)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "path_spec",
    [
        {"kind": "line", "start": [0.0, 0.0], "direction": [0, 0]},
        {"kind": "polyline", "file": "missing.csv"},
        # Nearly repeated points: a 1,255 m spline and a MemoryError before
        # make_polyline_path rejected them.
        {"kind": "polyline", "points": [[0, 0], [10, 0], [10.00000001, 0], [20, 5]]},
        {"kind": "polyline", "points": [[0, 0], [10, 0], [10 + 1e-12, 0], [20, 5]]},
        # Optional fields of the wrong type were TypeError tracebacks (exit 1).
        {"kind": "line", "start": [0, 0], "direction": [1, 0], "length": "abc"},
        {"kind": "circle", "center": [0, 0], "radius": 10.0, "turns": "two"},
        {"kind": "circle", "center": [0, 0], "radius": 10.0, "start_angle_deg": None},
        {"kind": "polyline", "file": 5},
        # A boolean ran as 1 turn.
        {"kind": "circle", "center": [0, 0], "radius": 10.0, "turns": True},
        {"kind": "line", "start": [0, 0], "direction": [1, 0], "length": -5.0},
        # Tables and fine grids past MAX_SAMPLES are refused before allocation.
        {"kind": "line", "start": [0, 0], "direction": [1, 0], "length": 1e12},
        {"kind": "sinusoid", "x_start": 0.0, "x_end": 1e9},
        {"kind": "circle", "center": [0, 0], "radius": 1e9},
        {"kind": "polyline", "points": [[0, 0], [1e9, 0], [2e9, 5]]},
        # Points that are not numbers were a TypeError traceback.
        {"kind": "polyline", "points": {"a": 1}},
        # A NaN point read as too many samples, an infinite one as a repeated point; an overflowing
        # chord warned first; squared chords that underflow warned, then flew (exit 5 or 3).
        {"kind": "polyline", "points": [[0, 0], [math.nan, 1], [2, 0]]},
        {"kind": "polyline", "points": [[0, 0], [math.inf, 1], [2, 0]]},
        {"kind": "polyline", "points": [[1e308, 0], [-1e308, 0], [1e308, 5]]},
        {"kind": "polyline", "points": [[0, 0], [1e-300, 0], [2e-300, 1e-300]]},
        {"kind": "polyline", "points": [[1e200, 0], [1e200, 1e-190], [1e200, 2e-190]]},
    ],
    ids=[
        "zero_direction", "missing_file", "near_coincident_1e-8", "near_coincident_1e-12",
        "length_str", "turns_str", "start_angle_null", "file_int", "turns_bool", "length_negative",
        "line_1e12", "sinusoid_1e9", "circle_r1e9", "polyline_2e9", "points_object",
        "polyline_nan", "polyline_inf", "polyline_chord_overflow", "polyline_1e-300", "polyline_1e200",
    ],
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


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("under", ["", "sub"], ids=["a_file", "under_a_file"])
def test_unusable_out_exits_2_before_flying(tmp_path, capsys, monkeypatch, command, under):
    # An --out that names a file, or a path under one, was a FileExistsError or
    # NotADirectoryError traceback.
    def fly(*args):
        raise AssertionError("flew a mission")

    monkeypatch.setattr(cli, "run_mission", fly)
    monkeypatch.setattr(cli, "run_sweep", fly)
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / under if under else blocker
    assert main([command, "--config", write_config(tmp_path, sweep_scenario()), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"output error: --out {out}: ")
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "override, message",
    [
        # A section that is not an object was a TypeError traceback.
        ({"vehicle": 5}, "vehicle: expected an object, got 5"),
        ({"sim": "fast"}, "sim: expected an object, got 'fast'"),
        ({"path": [1, 2]}, "path: expected an object, got [1, 2]"),
        # An unknown key in a section ran silently on the defaults.
        ({"guidance": {"lookahed": 5.0}}, "unknown guidance keys: ['lookahed']"),
        ({"optimizer": {"grdi": 3}}, "unknown optimizer keys: ['grdi']"),
        (
            {"path": {"kind": "circle", "center": [0, 0], "radius": 10.0, "radius_typo": 5.0}},
            "unknown path keys: ['radius_typo']",
        ),
        # An unhashable kind and an int past the float range were tracebacks.
        ({"path": {"kind": ["circle"]}}, "path.kind: expected one of"),
        ({"vehicle": {"heading_deg": 10**400}}, "vehicle.heading_deg: "),
    ],
    ids=[
        "vehicle_int", "sim_str", "path_list", "guidance_typo", "optimizer_typo", "circle_typo", "kind_list", "huge_int",
    ],
)
def test_schema_rejections_exit_2(tmp_path, capsys, command, override, message):
    cfg = {**sweep_scenario(), **override}
    out = tmp_path / "bad"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {message}")
    assert not out.exists()


# Scenarios whose floats or step counts overflowed a run, each with the one problem it is now refused with.
OVERFLOWING_SCENARIOS = [
    # The arc command overflowed: ValueError: invalid command: inf from vehicle.step, exit 1.
    (
        {"vehicle": {"speed": 1e300}, "controller": "baseline", "sim": {"max_time": 5}},
        "vehicle.speed: must keep the arc command 2 speed^2 / 0.1 finite, got 1e+300",
    ),
    # The coast's step count overflowed: OverflowError in Mission._coast_steps, exit 1.
    (
        {"vehicle": {"speed": 5e-300}, "guidance": {"lookahead": 1e301}, "controller": "baseline",
         "sim": {"max_time": 5}},
        "guidance.lookahead: lookahead / speed / dt must be finite, got 1e+301 / 5e-300 / 0.01",
    ),
    # The heading update overflowed: ValueError: math domain error from vehicle.step, exit 1.
    (
        {"vehicle": {"speed": 1e150}, "controller": "baseline", "sim": {"max_time": 5, "dt": 1e200}},
        "sim.dt: the turn per step dt * 2 speed / 0.1 must be finite, got 1e+200 at speed 1e+150",
    ),
    # The blended command overflowed: ValueError: invalid command: nan from vehicle.step, exit 1.
    (
        {"vehicle": {"speed": 1e100}, "controller": "proposed", "optimizer": {"enabled": False},
         "guidance": {"k1": 1e300, "k2": 1e300}, "sim": {"max_time": 5}},
        "guidance.k1/k2: the blended command must be finite, got 1e+300 / 1e+300 at speed 1e+100",
    ),
    # A squared distance overflowed: OverflowError from ReferencePath.project, exit 1, output directory made.
    (
        {"vehicle": {"speed": 1e150}, "controller": "baseline", "sim": {"max_time": 1e159, "dt": 1e156}},
        "sim.max_time: the farthest flight speed * max_time must square to a finite float, got 1e+159 at speed 1e+150",
    ),
    # The rollout horizon reached the 1e6 m radius clamp: 2e7 steps per candidate row, a practical hang.
    (
        {"optimizer": {"d_limit": 1e300}, "controller": "proposed", "sim": {"max_time": 0.5}},
        "optimizer.d_limit: a rollout's min(d_limit, 1e+06) / speed / dt steps must be at most 10000,"
        " got 2e+07 at d_limit 1e+300, speed 5.0, dt 0.01",
    ),
    # A mission of 1.8e9 steps: about 221 B of telemetry per step, hundreds of GB before it could end.
    (
        {"sim": {"dt": 1e-6}},
        "sim.max_time: a mission's max_time / dt steps must be at most 2000000, got 1.8e+09 at max_time 1800.0, dt 1e-06",
    ),
    # The tuner's own gains reach k_max: IndexError from ReferencePath.point_at_many, exit 1.
    (
        {"optimizer": {"k_max": 1e308}, "controller": "proposed"},
        "guidance.k1/k2: the blended command must be finite, got 1.0 / 0.0 (tuned up to optimizer.k_max 1e+308)"
        " at speed 5.0",
    ),
]
OVERFLOWING_IDS = ["arc_command", "coast_steps", "heading_turn", "blended_command", "farthest_flight", "rollout_steps",
                   "mission_steps", "tuned_blended_command"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("cfg, message", OVERFLOWING_SCENARIOS, ids=OVERFLOWING_IDS)
def test_overflowing_speeds_exit_2(tmp_path, capsys, command, cfg, message):
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", OVERFLOWING_SCENARIOS, ids=OVERFLOWING_IDS)
def test_mission_refuses_what_the_schema_refuses(cfg, message):
    # The same scenario built without parse_scenario: Mission raises up front, with the config error's text.
    veh, gd, sim, tuner = (cfg.get(key, {}) for key in ("vehicle", "guidance", "sim", "optimizer"))
    lookahead = gd.get("lookahead", 10.0)
    settings = None if tuner.get("enabled") is False else OptimizerSettings(
        k_max=tuner.get("k_max", 10.0), d_limit=tuner.get("d_limit", 2.0 * lookahead))
    config = MissionConfig(
        lookahead=lookahead, dt=sim.get("dt", 0.01), max_time=sim.get("max_time", 1800.0), k1=gd.get("k1", 1.0),
        k2=gd.get("k2", 0.0), optimizer=settings, controller=cfg.get("controller", "proposed"),
    )
    state = VehicleState(-15.0, 0.0, math.radians(39.118), veh.get("speed", 5.0))
    with pytest.raises(ValueError) as exc:
        Mission(make_sinusoid_path(-15.0, 150.0), state, config)
    assert str(exc.value) == message


@pytest.mark.parametrize("argv", [["run", "--controller", "proposed"], ["sweep"]], ids=["run_proposed", "sweep"])
def test_tuned_missions_a_baseline_scenario_adds_are_checked_up_front(tmp_path, capsys, argv):
    # The scenario flies the baseline alone, inside the envelope; the tuned mission these commands add is outside it.
    cfgp = write_config(tmp_path, {"vehicle": {"speed": 1e150}, "controller": "baseline", "sim": {"max_time": 5}})
    out = tmp_path / "out"
    assert main([*argv, "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: sim.dt: a rollout's step speed * dt must be at most 0.4 m, got 1e+148 at speed 1e+150, dt 0.01",
        "config error: guidance.k1/k2: the blended command must be finite, got 1.0 / 0.0"
        " (tuned up to optimizer.k_max 10.0) at speed 1e+150",
    ]
    assert not out.exists()


def test_summary_json_is_strict_json(tmp_path):
    # Commands near 1e299 square to inf: a_rms was written as Infinity, which strict parsers reject.
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    cfgp = write_config(tmp_path, {"vehicle": {"speed": 1e150}, "controller": "baseline", "sim": {"max_time": 5}})
    out = tmp_path / "inf"
    with np.errstate(over="ignore"):
        assert main(["run", "--config", cfgp, "--out", str(out)]) == 5
    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    assert summary["baseline"]["close_range"]["a_rms"] is None
    assert summary["baseline"]["close_range"]["a_max"] > 1e298


@pytest.mark.filterwarnings("error")
def test_overflowing_rms_warns_nothing(tmp_path, capsys):
    # The RMS of commands near 1e299 squares past the float range: stderr holds only the run's own line.
    cfgp = write_config(tmp_path, {"vehicle": {"speed": 1e150}, "controller": "baseline", "sim": {"max_time": 5}})
    out = tmp_path / "inf"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 5
    assert capsys.readouterr().err.splitlines() == ["baseline mission timed out at t=5.00 s"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["baseline"]["close_range"]["a_rms"] is None


def test_stock_run_outputs_are_unchanged(tmp_path):
    out = tmp_path / "stock"
    assert main(["run", "--controller", "baseline", "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == {
        "path.csv": "0528e1b26ec768cbcf332c75d0b60a5104ff8453ba0aa543b5ef513addef1a08",
        "summary.json": "f5e932bc0eae8096cc7a74e4ad4dfbffdd0fd264e802c49b3c235c5f40fdd897",
        "trajectory_baseline.csv": "1a8e16370d89c845dc02236a11313b9f95b79dfedc42fac6f1b5107e16482f64",
    }


def test_two_phase_run_outputs_are_unchanged(tmp_path):
    # Criterion 5's geometry: the stock runs never leave close range, this one flies all three phases.
    cfgp = write_config(tmp_path, {
        "path": {"kind": "sinusoid", "x_start": 0.0, "x_end": 150.0},
        "vehicle": {"start": [-45.0, 20.0], "heading_deg": 0.0},
        "guidance": {"initiation_radius": 10.0},
    })
    out = tmp_path / "two_phase"
    assert main(["run", "--controller", "baseline", "--config", cfgp, "--out", str(out)]) == 0
    with open(out / "trajectory_baseline.csv", newline="") as f:
        phases = Counter(row["phase"] for row in csv.DictReader(f))
    assert phases == {"midcourse": 1003, "circle": 1139, "close": 4367}
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == {
        "path.csv": "99fbe0f277edc323f49ae9e1492374280feeea550a8d485d0fe2fad84c77a6ea",
        "summary.json": "f70df83e5b4e31da3c79a6fde970106e8ad326cf73141baff563bf1a4adec259",
        "trajectory_baseline.csv": "586399111fc3a88415f7a1779e865a0be07bca1c99d64c6c076de67e2cc744bf",
    }


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, unreadable):
    # Both were tracebacks (IsADirectoryError, UnicodeDecodeError) with exit 1.
    cfgp = tmp_path / "scenario.json"
    if unreadable == "directory":
        cfgp.mkdir()
    else:
        cfgp.write_bytes(b'{"controller": "baseline\xff"}')
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot read config {cfgp}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_oversized_optimizer_grid_exits_2(tmp_path, capsys, command):
    # A million-point grid asked numpy for 7.28 TiB and died with a traceback.
    cfg = sweep_scenario()
    cfg["optimizer"] = {"grid": 1_000_000}
    cfg["controller"] = "proposed"
    out = tmp_path / "bad"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: optimizer.grid")
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "summary.json").write_text("{}")
    src = str(Path(pathfollow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "pathfollow", "compare", str(a), str(b)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "summary.json: identical\n"


def test_polyline_runs_without_scipy(tmp_path):
    cfg = {
        "path": {"kind": "polyline", "points": [[0, 0], [8, 3], [15, -2], [25, 4], [33, 0]]},
        "vehicle": {"start": [0.0, 0.0], "heading_deg": 20.0},
        "controller": "baseline",
        "optimizer": {"enabled": False},
    }
    src = str(Path(pathfollow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys; sys.modules['scipy'] = None; from pathfollow.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "trajectory_baseline.csv").exists()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    exponent=st.floats(-300.0, 300.0),
    points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=3, max_size=12),
    holes=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 1), st.sampled_from([math.nan, math.inf, -math.inf])), max_size=2
    ),
)
def test_hostile_polylines_run_or_exit_with_one_line(exponent, points, holes):
    # Warnings are errors in this suite, so a numpy warning or a traceback fails the example.
    pts = [[x * 10.0**exponent, y * 10.0**exponent] for x, y in points]
    for i, j, v in holes:
        pts[i % len(pts)][j] = v
    cfg = {
        "path": {"kind": "polyline", "points": pts},
        "controller": "baseline",
        "optimizer": {"enabled": False},
        "sim": {"max_time": 2.0},
    }
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", write_config(Path(d), cfg), "--out", str(Path(d) / "out")])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 5)
    assert sum(line.startswith("config error: ") for line in lines) == (code == 2)
    assert code != 2 or len(lines) == 1


def test_cmd_compare(tmp_path, capsys):
    cfgp = write_config(tmp_path, fast_scenario())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfgp, "--out", str(out1)])
    main(["run", "--config", cfgp, "--out", str(out2)])
    assert main(["compare", str(out1), str(out2)]) == 0
    report = capsys.readouterr().out
    assert "identical" in report
    assert "DIFFERS" not in report


def test_cmd_compare_names_files_in_one_directory_only(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "same.csv").write_text("1\n")
    (b / "same.csv").write_text("1\n")
    (a / "first.csv").write_text("x\n")
    (b / "second.csv").write_text("y\n")
    assert main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "first.csv: only in first directory", "same.csv: identical", "second.csv: only in second directory"
    ]


def test_cmd_compare_refuses_a_non_directory(tmp_path, capsys):
    (tmp_path / "run").mkdir()
    (tmp_path / "file").write_text("")
    for pair in (["run", "file"], ["missing", "run"]):
        assert main(["compare", *(str(tmp_path / name) for name in pair)]) == 2
        assert capsys.readouterr().err.splitlines() == ["compare: both arguments must be run directories"]
