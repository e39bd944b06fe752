"""Command-line front end: single runs, heading sweeps, run diffs.

Exit codes: 0 success, 2 invalid configuration or an unusable ``--out``,
3 infeasible mid-course geometry, 5 a ``run`` mission timed out (its outputs
are still written); 4 is unused and reserved.  Outputs are plain CSV/JSON
written atomically, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from itertools import repeat
from pathlib import Path as FsPath

from . import metrics
from .config import CONTROLLER_BOTH, ConfigError, ScenarioConfig, load_scenario
from .metrics import CSV_HEADER, RunRecord
from .midcourse import InfeasibleGeometryError
from .supervisor import CONTROLLER_BASELINE, CONTROLLER_PROPOSED, run_mission

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_TIMEOUT = 5


def _fmt(v: float) -> str:
    return format(v, ".12g")


def _write_atomic(path: FsPath, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _trajectory_csv(run: RunRecord) -> str:
    rows = (f"{_fmt(t)},{_fmt(x)},{_fmt(y)},{_fmt(psi)},{_fmt(a)},{_fmt(cte)},{phase},{_fmt(k1)},{_fmt(k2)}\n"
            for t, x, y, psi, a, cte, phase, k1, k2 in run.rows())
    return ",".join(CSV_HEADER) + "\n" + "".join(rows)


def _path_csv(path) -> str:
    px, py, *_ = path.sample_table()
    lines = ["x,y"]
    for x, y in zip(px.tolist(), py.tolist()):
        lines.append(f"{_fmt(x)},{_fmt(y)}")
    return "\n".join(lines) + "\n"


def _json_numbers(values: dict) -> dict:
    """JSON has no nan or inf: a non-finite number is written as null."""
    return {k: v if math.isfinite(v) else None for k, v in values.items()}


def _summary_dict(run: RunRecord, close: metrics.RunSummary | None) -> dict:
    return {
        "controller": run.controller,
        "samples": len(run),
        "duration_s": run.t[-1] if run.t else 0.0,
        "phases": sorted(set(run.phase), key=run.phase.index),
        "close_range": None if close is None else _json_numbers(asdict(close)),
        "full_mission": _json_numbers(asdict(metrics.summarize(run, close_only=False))),
        "timed_out": run.timed_out,
    }


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _config_error(exc: ConfigError) -> int:
    for p in exc.problems:
        print(f"config error: {p}", file=sys.stderr)
    return EXIT_CONFIG


def _out_dir(name: str) -> FsPath | None:
    """The output directory, made if missing; None, after one stderr line, if it cannot be."""
    out = FsPath(name)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: --out {name}: {exc.strerror or exc}", file=sys.stderr)
        return None
    return out


def cmd_run(args) -> int:
    try:
        cfg = load_scenario(args.config)
        missions = {controller: cfg.mission_config(controller) for controller in cfg.controllers(args.controller)}
        path = cfg.build_path()
    except ConfigError as exc:
        return _config_error(exc)

    out = _out_dir(args.out)
    if out is None:
        return EXIT_CONFIG

    runs: dict[str, RunRecord] = {}
    try:
        for controller, mission in missions.items():
            runs[controller] = run_mission(path, cfg.build_state(), mission)
    except InfeasibleGeometryError as exc:
        diag = {"error": "infeasible geometry", "detail": str(exc)}
        _write_atomic(out / "diagnostics.json", json.dumps(diag, indent=2) + "\n")
        print(f"infeasible geometry: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    _write_atomic(out / "path.csv", _path_csv(path))
    summary = {"scenario": {"heading_deg": cfg.heading_deg, "controllers": list(missions)}}
    for controller, run in runs.items():
        _write_atomic(out / f"trajectory_{controller}.csv", _trajectory_csv(run))
        # Only a mission that timed out can end without close-range samples.
        close = metrics.summarize(run) if metrics.PHASE_CLOSE in run.phase else None
        summary[controller] = _summary_dict(run, close)
        print(f"{controller}: no close-range samples ({len(run)} steps)" if close is None else (
            f"{controller}: a_rms={close.a_rms:.4f} m/s^2  d_rms={close.d_rms:.4f} m  "
            f"a_max={close.a_max:.4f} m/s^2  ({len(run)} steps)"
        ))
    if len(runs) == 2:
        summary["improvements"] = None
        if all(metrics.PHASE_CLOSE in run.phase for run in runs.values()):
            cte_pct, ae_pct = metrics.improvements(runs[CONTROLLER_BASELINE], runs[CONTROLLER_PROPOSED])
            # A percentage over a zero baseline is undefined (nan), so null.
            summary["improvements"] = _json_numbers({"cte_rms_pct": cte_pct, "ae_rms_pct": ae_pct})
            print(f"improvement: cte_rms={cte_pct:.3f}%  ae_rms={ae_pct:.3f}%")
    _write_atomic(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for controller, run in runs.items():
        if run.timed_out:
            print(f"{controller} mission timed out at t={run.t[-1]:.2f} s", file=sys.stderr)
    return EXIT_TIMEOUT if any(run.timed_out for run in runs.values()) else EXIT_OK


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

_SWEEP_COLUMNS = (
    "heading_deg",
    "base_a_rms", "base_d_rms", "base_a_max",
    "prop_a_rms", "prop_d_rms", "prop_a_max",
    "imp_a_rms_pct", "imp_d_rms_pct", "imp_a_max_pct",
)


def _sweep_row(cfg: ScenarioConfig, heading_deg: float) -> dict:
    """One sweep row: baseline and proposed runs at a fixed initial heading, on a path built from ``cfg``.

    Infeasible geometry or a timed-out mission makes an error row; any other
    exception propagates."""
    row = {"heading_deg": heading_deg}
    path, summaries = cfg.build_path(), []
    for controller in (CONTROLLER_BASELINE, CONTROLLER_PROPOSED):
        try:
            run = run_mission(path, cfg.build_state(heading_deg), cfg.mission_config(controller))
        except InfeasibleGeometryError as exc:
            return {**row, "error": str(exc)}
        if run.timed_out:
            return {**row, "error": f"{controller} mission timed out at t={run.t[-1]:.2f} s"}
        summaries.append(metrics.summarize(run))
    sb, sp = summaries
    for key in ("a_rms", "d_rms", "a_max"):
        base, prop = getattr(sb, key), getattr(sp, key)
        row[f"base_{key}"] = base
        row[f"prop_{key}"] = prop
        row[f"imp_{key}_pct"] = metrics.improvement_pct(base, prop)
    return row


def _render_sweep_text(rows: list[dict]) -> str:
    head = (
        f"{'heading':>9} | {'base a_rms':>10} {'base d_rms':>10} {'base a_max':>10} | "
        f"{'prop a_rms':>10} {'prop d_rms':>10} {'prop a_max':>10} | "
        f"{'imp a%':>8} {'imp d%':>8} {'imp amax%':>9}"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        if "error" in r:
            lines.append(f"{r['heading_deg']:>9.3f} | failed: {r['error']}")
            continue
        lines.append(
            f"{r['heading_deg']:>9.3f} | {r['base_a_rms']:>10.3f} {r['base_d_rms']:>10.3f} {r['base_a_max']:>10.3f} | "
            f"{r['prop_a_rms']:>10.3f} {r['prop_d_rms']:>10.3f} {r['prop_a_max']:>10.3f} | "
            f"{r['imp_a_rms_pct']:>8.3f} {r['imp_d_rms_pct']:>8.3f} {r['imp_a_max_pct']:>9.3f}"
        )
    return "\n".join(lines) + "\n"


def _render_sweep_csv(rows: list[dict]) -> str:
    lines = [",".join(_SWEEP_COLUMNS)]
    for r in rows:
        if "error" in r:
            lines.append(f"{_fmt(r['heading_deg'])}," + ",".join(["nan"] * 9))
        else:
            lines.append(",".join(_fmt(r[c]) for c in _SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def run_sweep(cfg: ScenarioConfig) -> list[dict]:
    """The sweep's rows, one per heading in order, each flown in a worker process.

    Each row's worker gets the scenario and builds its own path from it (about
    15 ms for the stock path), so no path crosses a process boundary.  The pool
    holds one worker per CPU and at most one per heading.  Workers are spawned,
    not forked: numpy's BLAS threads are already running here.  So a script
    that calls this must guard its own top level with
    ``if __name__ == "__main__"``, as spawned workers import it."""
    headings = cfg.sweep_headings_deg
    workers = min(len(headings), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(_sweep_row, repeat(cfg), headings))


def cmd_sweep(args) -> int:
    try:
        cfg = load_scenario(args.config)
        cfg.mission_config(CONTROLLER_PROPOSED)  # the sweep flies both controllers, whatever the scenario names
        cfg.build_path()  # refused here, before any output; each worker builds its own
    except ConfigError as exc:
        return _config_error(exc)

    out = _out_dir(args.out)
    if out is None:
        return EXIT_CONFIG
    rows = run_sweep(cfg)
    _write_atomic(out / "sweep.csv", _render_sweep_csv(rows))
    text = _render_sweep_text(rows)
    _write_atomic(out / "sweep.txt", text)
    errors = {str(r["heading_deg"]): r["error"] for r in rows if "error" in r}
    if errors:
        _write_atomic(out / "sweep_errors.json", json.dumps(errors, indent=2) + "\n")
    print(text, end="")
    return EXIT_OK


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def cmd_compare(args) -> int:
    a, b = FsPath(args.dir_a), FsPath(args.dir_b)
    if not a.is_dir() or not b.is_dir():
        print("compare: both arguments must be run directories", file=sys.stderr)
        return EXIT_CONFIG
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    for name in names:
        fa, fb = a / name, b / name
        if not fa.exists() or not fb.exists():
            print(f"{name}: only in {'first' if fa.exists() else 'second'} directory")
            continue
        same = fa.read_bytes() == fb.read_bytes()
        print(f"{name}: {'identical' if same else 'DIFFERS'}")
    return EXIT_OK


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfollow",
        description="Two-phase look-ahead path-following guidance: simulate, sweep, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and write trajectory CSVs")
    p_run.add_argument("--config", default=None, help="scenario JSON (defaults to the stock benchmark)")
    p_run.add_argument("--out", default="runs/run", help="output directory")
    p_run.add_argument("--controller", choices=[CONTROLLER_BASELINE, CONTROLLER_PROPOSED, CONTROLLER_BOTH])
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the initial-heading sweep comparison table")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--out", default="runs/sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="diff two run directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
