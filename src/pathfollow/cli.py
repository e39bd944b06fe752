"""Command-line front end: single runs, heading sweeps, run diffs, oracles.

Exit codes: 0 success, 2 invalid configuration, 3 infeasible mid-course
geometry, 4 oracle failure.  Outputs are plain CSV/JSON written atomically,
so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path as FsPath

import numpy as np

from . import guidance, metrics, midcourse as mc
from .config import CONTROLLER_BOTH, ConfigError, ScenarioConfig, load_scenario
from .geom import wrap_angle
from .metrics import CSV_HEADER, RunRecord
from .midcourse import InfeasibleGeometryError
from .path import ReferencePath, make_sinusoid_path
from .supervisor import CONTROLLER_BASELINE, CONTROLLER_PROPOSED, run_mission
from .vehicle import VehicleState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE = 4


def _fmt(v: float) -> str:
    return format(v, ".12g")


def _write_atomic(path: FsPath, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _trajectory_csv(run: RunRecord) -> str:
    lines = [",".join(CSV_HEADER)]
    for t, x, y, psi, a, cte, phase, k1, k2 in run.rows():
        lines.append(
            f"{_fmt(t)},{_fmt(x)},{_fmt(y)},{_fmt(psi)},{_fmt(a)},{_fmt(cte)},{phase},{_fmt(k1)},{_fmt(k2)}"
        )
    return "\n".join(lines) + "\n"


def _path_csv(path) -> str:
    px, py, *_ = path.sample_table()
    lines = ["x,y"]
    for x, y in zip(px.tolist(), py.tolist()):
        lines.append(f"{_fmt(x)},{_fmt(y)}")
    return "\n".join(lines) + "\n"


def _summary_dict(run: RunRecord) -> dict:
    close = metrics.summarize(run)
    full = metrics.summarize(run, close_only=False)
    return {
        "controller": run.controller,
        "samples": len(run),
        "duration_s": run.t[-1] if run.t else 0.0,
        "phases": sorted(set(run.phase), key=run.phase.index),
        "close_range": {"a_rms": close.a_rms, "d_rms": close.d_rms, "a_max": close.a_max},
        "full_mission": {"a_rms": full.a_rms, "d_rms": full.d_rms, "a_max": full.a_max},
        "timed_out": run.timed_out,
    }


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _config_error(exc: ConfigError) -> int:
    for p in exc.problems:
        print(f"config error: {p}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_run(args) -> int:
    try:
        cfg = load_scenario(args.config)
        controllers = cfg.controllers(args.controller)
        path = cfg.build_path()
    except ConfigError as exc:
        return _config_error(exc)

    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)

    runs: dict[str, RunRecord] = {}
    try:
        for controller in controllers:
            state = cfg.build_state()
            runs[controller] = run_mission(path, state, cfg.mission_config(controller))
    except InfeasibleGeometryError as exc:
        diag = {"error": "infeasible geometry", "detail": str(exc)}
        _write_atomic(out / "diagnostics.json", json.dumps(diag, indent=2) + "\n")
        print(f"infeasible geometry: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    _write_atomic(out / "path.csv", _path_csv(path))
    summary = {"scenario": {"heading_deg": cfg.heading_deg, "controllers": controllers}}
    for controller, run in runs.items():
        _write_atomic(out / f"trajectory_{controller}.csv", _trajectory_csv(run))
        summary[controller] = _summary_dict(run)
        s = summary[controller]["close_range"]
        print(
            f"{controller}: a_rms={s['a_rms']:.4f} m/s^2  d_rms={s['d_rms']:.4f} m  "
            f"a_max={s['a_max']:.4f} m/s^2  ({len(run)} steps)"
        )
    if len(runs) == 2:
        cte_pct, ae_pct = metrics.improvements(runs[CONTROLLER_BASELINE], runs[CONTROLLER_PROPOSED])
        summary["improvements"] = {"cte_rms_pct": cte_pct, "ae_rms_pct": ae_pct}
        print(f"improvement: cte_rms={cte_pct:.3f}%  ae_rms={ae_pct:.3f}%")
    _write_atomic(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

_SWEEP_COLUMNS = (
    "heading_deg",
    "base_a_rms", "base_d_rms", "base_a_max",
    "prop_a_rms", "prop_d_rms", "prop_a_max",
    "imp_a_rms_pct", "imp_d_rms_pct", "imp_a_max_pct",
)


def _sweep_row(cfg: ScenarioConfig, path: ReferencePath, heading_deg: float) -> dict:
    """One sweep row: baseline and proposed runs at a fixed initial heading."""
    try:
        base = run_mission(path, cfg.build_state(heading_deg), cfg.mission_config(CONTROLLER_BASELINE))
        prop = run_mission(path, cfg.build_state(heading_deg), cfg.mission_config(CONTROLLER_PROPOSED))
        sb = metrics.summarize(base)
        sp = metrics.summarize(prop)
        return {
            "heading_deg": heading_deg,
            "base_a_rms": sb.a_rms, "base_d_rms": sb.d_rms, "base_a_max": sb.a_max,
            "prop_a_rms": sp.a_rms, "prop_d_rms": sp.d_rms, "prop_a_max": sp.a_max,
            "imp_a_rms_pct": (1.0 - sp.a_rms / sb.a_rms) * 100.0,
            "imp_d_rms_pct": (1.0 - sp.d_rms / sb.d_rms) * 100.0,
            "imp_a_max_pct": (1.0 - sp.a_max / sb.a_max) * 100.0,
        }
    except (InfeasibleGeometryError, ValueError) as exc:
        return {"heading_deg": heading_deg, "error": str(exc)}


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


def cmd_sweep(args) -> int:
    try:
        cfg = load_scenario(args.config)
        path = cfg.build_path()
    except ConfigError as exc:
        return _config_error(exc)

    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    headings = cfg.sweep_headings_deg

    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(_sweep_row, [cfg] * len(headings), [path] * len(headings), headings))
    else:
        rows = [_sweep_row(cfg, path, h) for h in headings]

    lines = [",".join(_SWEEP_COLUMNS)]
    for r in rows:
        if "error" in r:
            lines.append(f"{_fmt(r['heading_deg'])}," + ",".join(["nan"] * 9))
        else:
            lines.append(",".join(_fmt(r[c]) for c in _SWEEP_COLUMNS))
    _write_atomic(out / "sweep.csv", "\n".join(lines) + "\n")

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
# oracle
# ----------------------------------------------------------------------


def cmd_oracle(args) -> int:
    rng = np.random.default_rng(args.seed)
    report: list[str] = []
    failures = 0

    # Tangency geometry against the exhaustive aim-point sweep.
    cell = 2.0 * math.pi / 3600
    max_dev = 0.0
    for _ in range(args.scenarios):
        center = rng.uniform(-50.0, 50.0, 2)
        radius = float(rng.uniform(2.0, 20.0))
        sense = mc.SENSE_ANTICLOCKWISE if rng.random() < 0.5 else mc.SENSE_CLOCKWISE
        circle = mc.InitiationCircle((center[0], center[1]), radius, sense)
        ang = float(rng.uniform(-math.pi, math.pi))
        d = radius * float(rng.uniform(1.3, 8.0))
        p = (center[0] + d * math.cos(ang), center[1] + d * math.sin(ang))
        to_center = math.atan2(center[1] - p[1], center[0] - p[0])
        psi = wrap_angle(to_center + float(rng.uniform(-1.4, 1.4)))
        sols = mc.contact_solutions(p, psi, circle, speed=5.0)
        phi_analytic = circle.angle_of(sols[0].w)
        phi_sweep = mc.brute_force_extremum(p, psi, circle, 3600)
        dev = abs(wrap_angle(phi_analytic - phi_sweep))
        max_dev = max(max_dev, dev)
        if dev > cell + 1e-12:
            failures += 1
    report.append(
        f"tangency oracle: {args.scenarios} scenarios, max deviation {max_dev:.3e} rad "
        f"(cell {cell:.3e}) -> {'ok' if max_dev <= cell + 1e-12 else 'FAIL'}"
    )

    # Corrector-point line membership on random poses near the bench path.
    path = make_sinusoid_path(0.0, 150.0)
    total = path.total_length
    max_res = 0.0
    for _ in range(args.samples):
        s = float(rng.uniform(5.0, total - 15.0))
        off = float(rng.uniform(-3.0, 3.0))
        pp = path.point_at(s)
        nx, ny = -pp.tangent[1], pp.tangent[0]
        state = VehicleState(
            x=pp.position[0] + off * nx,
            y=pp.position[1] + off * ny,
            heading=math.atan2(pp.tangent[1], pp.tangent[0]) + float(rng.uniform(-1.0, 1.0)),
            speed=5.0,
        )
        geom = guidance.corrector_geometry(state, path, max(s - 5.0, 0.0), 10.0)
        tx, ty = geom.proj.tangent
        r_tan = abs(tx * (geom.p4[1] - geom.proj.position[1]) - ty * (geom.p4[0] - geom.proj.position[0]))
        hx, hy = math.cos(state.heading), math.sin(state.heading)
        r_perp = abs(hx * (geom.p4[0] - geom.p2.position[0]) + hy * (geom.p4[1] - geom.p2.position[1]))
        max_res = max(max_res, r_tan, r_perp)
    res_ok = max_res < 1e-6
    if not res_ok:
        failures += 1
    report.append(
        f"corrector membership: {args.samples} constructions, max residual {max_res:.3e} m "
        f"-> {'ok' if res_ok else 'FAIL'}"
    )

    text = "\n".join(report) + "\n"
    print(text, end="")
    if args.out:
        out = FsPath(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_atomic(out / "oracle.txt", text)
    return EXIT_ORACLE if failures else EXIT_OK


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfollow",
        description="Two-phase look-ahead path-following guidance: simulate, sweep, verify.",
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
    p_sweep.add_argument("--threads", type=int, default=1, help="parallel sweep rows")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="diff two run directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.set_defaults(func=cmd_compare)

    p_orc = sub.add_parser("oracle", help="randomized geometry checks against brute-force oracles")
    p_orc.add_argument("--seed", type=int, default=0)
    p_orc.add_argument("--scenarios", type=int, default=100, help="tangency scenarios")
    p_orc.add_argument("--samples", type=int, default=10000, help="corrector constructions")
    p_orc.add_argument("--out", default=None)
    p_orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
