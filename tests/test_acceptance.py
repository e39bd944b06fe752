"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The heading sweep backing criterion 4 runs once as a session
fixture; everything else is self-contained.
"""

import math
import time

import numpy as np
import pytest

import pathfollow as pf
from pathfollow.cli import _sweep_row
from pathfollow.config import DEFAULT_SWEEP_HEADINGS, default_scenario, parse_scenario
from pathfollow.guidance import GuidanceGains, blend_weights, blended_command, corrector_geometry
from pathfollow.metrics import PHASE_CIRCLE, PHASE_CLOSE, PHASE_MIDCOURSE
from pathfollow.midcourse import InitiationCircle, brute_force_extremum, contact_solutions
from pathfollow.optimizer import OptimizerSettings
from pathfollow.supervisor import Mission, MissionConfig, run_mission
from pathfollow.vehicle import VehicleState, step

SPEED = 5.0
LOOKAHEAD = 10.0

# Reference comparison column for the stock benchmark scenario
# (fixed-look-ahead controller), keyed by initial heading in degrees:
# (a_rms, d_rms, a_max).
REFERENCE_FIXED_L1 = {
    -20.882: (1.715, 1.211, 4.830),
    -5.882: (1.536, 1.007, 4.330),
    9.118: (1.465, 0.847, 3.536),
    24.118: (1.402, 0.718, 2.500),
    39.118: (1.330, 0.632, 2.293),
    54.118: (1.336, 0.609, 2.293),
    69.118: (1.326, 0.654, 2.294),
    84.118: (1.347, 0.760, 2.294),
    99.118: (1.401, 0.912, 2.294),
    114.118: (1.470, 1.099, 2.294),
    129.118: (1.548, 1.311, 2.294),
}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")


# ----------------------------------------------------------------------
# 1. Baseline recovery
# ----------------------------------------------------------------------


def test_criterion_1_baseline_recovery():
    path = pf.make_sinusoid_path(-15.0, 150.0)
    state = VehicleState(-15.0, 0.0, math.radians(39.118), SPEED)

    t0 = time.perf_counter()
    rb = run_mission(path, state, MissionConfig(controller="baseline"))
    rp = run_mission(path, state, MissionConfig(controller="proposed", k1=1.0, k2=0.0))
    elapsed = time.perf_counter() - t0

    worst = max(
        max(abs(a - b) for a, b in zip(rb.x, rp.x)),
        max(abs(a - b) for a, b in zip(rb.y, rp.y)),
    )
    ok = worst <= 1e-9 and len(rb) == len(rp) and elapsed < 1.0
    report("1 baseline recovery", ok, f"pointwise diff {worst:.2e} m, runtime {elapsed:.2f} s")
    assert len(rb) == len(rp)
    assert worst <= 1e-9
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# 2. Circle tracking
# ----------------------------------------------------------------------


def test_criterion_2_circle_tracking():
    path = pf.make_circle_path((0.0, 0.0), 10.0, turns=2.2)
    state = VehicleState(10.0, 0.0, math.pi / 2, SPEED)
    run = run_mission(path, state, MissionConfig(controller="baseline"))

    t = np.array(run.t)
    rev = 2 * math.pi * 10.0 / SPEED
    win = (t >= rev) & (t <= 20.0)
    cte = np.abs(np.array(run.cte)[win])
    a = np.array(run.a_cmd)[win]
    target = SPEED * SPEED / 10.0
    cte_ok = float(cte.max()) < 1e-2
    a_ok = bool(np.all(np.abs(a - target) <= 0.01 * target))
    report(
        "2 circle tracking",
        cte_ok and a_ok,
        f"steady |CTE| max {cte.max():.2e} m, command within "
        f"{float(np.max(np.abs(a - target))) / target * 100:.3f}% of {target} m/s^2",
    )
    assert cte_ok
    assert a_ok


# ----------------------------------------------------------------------
# 3. Tangency oracle and mid-course constancy
# ----------------------------------------------------------------------


def test_criterion_3_tangency_oracle():
    rng = np.random.default_rng(2024)
    cell = 2 * math.pi / 3600
    worst = 0.0
    for _ in range(100):
        center = rng.uniform(-50, 50, 2)
        radius = float(rng.uniform(2, 20))
        sense = "anticlockwise" if rng.random() < 0.5 else "clockwise"
        circle = InitiationCircle((center[0], center[1]), radius, sense)
        ang = float(rng.uniform(-math.pi, math.pi))
        d = radius * float(rng.uniform(1.3, 8.0))
        p = (center[0] + d * math.cos(ang), center[1] + d * math.sin(ang))
        to_c = math.atan2(center[1] - p[1], center[0] - p[0])
        psi = pf.wrap_angle(to_c + float(rng.uniform(-1.4, 1.4)))
        sols = contact_solutions(p, psi, circle, SPEED)
        phi_analytic = circle.angle_of(sols[0].w)
        phi_sweep = brute_force_extremum(p, psi, circle, 3600)
        worst = max(worst, abs(pf.wrap_angle(phi_analytic - phi_sweep)))
    oracle_ok = worst <= cell + 1e-12

    # Closed-loop mid-course command constancy on the head-on geometry.
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    sol = next(s for s in contact_solutions((30.0, 0.0), math.pi, circle, SPEED) if s.feasible)
    state = VehicleState(30.0, 0.0, math.pi, SPEED)
    mags = []
    while math.hypot(state.x - sol.w[0], state.y - sol.w[1]) > 0.3:
        cmd = pf.midcourse_command(state, sol)
        mags.append(abs(cmd))
        state = step(state, cmd, 0.01)
    spread = max(mags) - min(mags)
    const_ok = spread < 1e-3

    report(
        "3 tangency oracle",
        oracle_ok and const_ok,
        f"100 scenarios, worst deviation {worst:.2e} rad (cell {cell:.2e}); "
        f"mid-course |a| spread {spread:.2e} m/s^2",
    )
    assert oracle_ok
    assert const_ok


# ----------------------------------------------------------------------
# 4. Heading sweep comparison
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def sweep_rows():
    cfg = parse_scenario(default_scenario())
    t0 = time.perf_counter()
    rows = [_sweep_row(cfg, cfg.build_path(), h) for h in DEFAULT_SWEEP_HEADINGS]
    elapsed = time.perf_counter() - t0
    assert all("error" not in r for r in rows), rows
    return rows, elapsed


def test_criterion_4a_cross_track_dominance(sweep_rows):
    rows, _ = sweep_rows
    wins = sum(1 for r in rows if r["prop_d_rms"] <= r["base_d_rms"])
    ok = wins >= 10
    report("4a d_rms dominance", ok, f"proposed d_rms <= baseline in {wins}/11 headings")
    assert ok


def test_criterion_4b_command_effort_parity(sweep_rows):
    rows, _ = sweep_rows
    wins = sum(1 for r in rows if r["prop_a_rms"] <= r["base_a_rms"])
    worst = max(r["prop_a_rms"] / r["base_a_rms"] for r in rows)
    ok = wins == 11
    report(
        "4b a_rms parity",
        ok,
        f"proposed a_rms <= baseline in {wins}/11 headings (worst ratio {worst:.4f}); "
        "the cross-track-only gain search trades command effort for tighter tracking "
        "against a baseline that already sits below the path's curvature-demand RMS",
    )
    assert ok, (
        f"proposed a_rms exceeded baseline in {11 - wins} of 11 headings "
        f"(worst ratio {worst:.4f})"
    )


def test_criterion_4c_baseline_matches_reference(sweep_rows):
    rows, _ = sweep_rows
    worst = 0.0
    for r in rows:
        ref = REFERENCE_FIXED_L1[round(r["heading_deg"], 3)]
        for got, want in ((r["base_a_rms"], ref[0]), (r["base_d_rms"], ref[1])):
            worst = max(worst, abs(got / want - 1.0))
            assert abs(got / want - 1.0) <= 0.20, (r["heading_deg"], got, want)
    # Peak-command check at the exemplar heading.
    r5 = next(r for r in rows if abs(r["heading_deg"] - 39.118) < 1e-9)
    amax_dev = abs(r5["base_a_max"] / REFERENCE_FIXED_L1[39.118][2] - 1.0)
    ok = worst <= 0.20 and amax_dev <= 0.20
    report(
        "4c baseline vs reference",
        ok,
        f"a_rms/d_rms worst deviation {worst * 100:.1f}% over 11 headings; "
        f"a_max deviation at 39.118 deg {amax_dev * 100:.1f}%",
    )
    assert amax_dev <= 0.20


def test_criterion_4d_sweep_runtime(sweep_rows):
    _, elapsed = sweep_rows
    ok = elapsed < 300.0
    report("4d sweep runtime", ok, f"11-heading sweep took {elapsed:.1f} s (< 300 s)")
    assert ok


# ----------------------------------------------------------------------
# 5. Full-mission phase behavior
# ----------------------------------------------------------------------


def test_criterion_5_full_mission_phases():
    path = pf.make_sinusoid_path(0.0, 150.0)
    r0 = pf.curvature_radius(path.point_at(0.0))
    state = VehicleState(-45.0, 20.0, 0.0, SPEED)
    sx, sy = path.start.position
    assert math.hypot(state.x - sx, state.y - sy) >= 2 * r0

    radius = 10.0
    cfg = MissionConfig(
        controller="proposed", optimizer=OptimizerSettings(), initiation_radius=radius
    )
    mission = Mission(path, state, cfg)
    run = mission.run()

    order = [p for i, p in enumerate(run.phase) if i == 0 or run.phase[i - 1] != p]
    seq_ok = order == [PHASE_MIDCOURSE, PHASE_CIRCLE, PHASE_CLOSE] and mission.done

    phase = np.array(run.phase)
    cte = np.array(run.cte)
    t = np.array(run.t)

    # Monotone decrease while approaching from afar (farther than one
    # initiation-circle diameter from the path start).
    mid = phase == PHASE_MIDCOURSE
    far = mid & (cte > 2 * radius)
    mono_ok = bool(np.all(np.diff(cte[far]) <= 1e-9))

    # Transient rise while swinging around the circle, then decay below
    # 0.05 m shortly after the close-range handoff.
    close_idx = np.nonzero(phase == PHASE_CLOSE)[0]
    rise = float(cte[phase == PHASE_CIRCLE].max())
    handoff = float(cte[close_idx[0]])
    rise_ok = rise > handoff + 1.0
    early_close = close_idx[: int(2.0 / cfg.dt)]
    settled = float(cte[early_close].min())
    decay_ok = settled < 0.05

    a = np.abs(np.array(run.a_cmd))
    hard_bound = 2 * SPEED * SPEED / min(LOOKAHEAD, 0.1)
    practical = 2 * SPEED * SPEED / LOOKAHEAD
    bound_ok = float(a.max()) <= hard_bound and float(a.max()) <= practical + 1e-9

    ok = seq_ok and mono_ok and rise_ok and decay_ok and bound_ok
    report(
        "5 full mission",
        ok,
        f"phases {order} -> done={mission.done}; monotone approach={mono_ok}; "
        f"rise to {rise:.2f} m then {settled:.3f} m within 2 s of handoff; "
        f"max |a| {a.max():.2f} m/s^2 (practical bound {practical})",
    )
    assert seq_ok
    assert mono_ok
    assert rise_ok
    assert decay_ok
    assert bound_ok
    # Done is absorbing: further steps command zero and emit nothing.
    n = len(run)
    cmd, _ = mission.step()
    assert cmd == 0.0 and len(mission.record) == n


# ----------------------------------------------------------------------
# 6. Property suites
# ----------------------------------------------------------------------


def test_criterion_6_property_suites(tmp_path):
    # Straight-line corrector degeneracy: gain independence to 1e-9.
    line = pf.make_line_path((0.0, 0.0), (1.0, 0.5), 300.0)
    rng = np.random.default_rng(77)
    worst_spread = 0.0
    for _ in range(200):
        st = VehicleState(
            float(rng.uniform(10, 200)),
            float(rng.uniform(-5, 105)),
            float(rng.uniform(-math.pi, math.pi)),
            SPEED,
        )
        g = corrector_geometry(st, line, 0.0, LOOKAHEAD)
        if g.fallback:
            continue
        cmds = [
            blended_command(st, g, GuidanceGains(k1, k2, LOOKAHEAD))
            for k1, k2 in ((1, 0), (0, 1), (3, 2), (0.1, 9.5))
        ]
        worst_spread = max(worst_spread, max(cmds) - min(cmds))
    degeneracy_ok = worst_spread <= 1e-9

    # Weight monotonicity.
    gains = GuidanceGains(1.0, 1.0, LOOKAHEAD)
    mono_ok = True
    for _ in range(200):
        r = float(rng.uniform(0.5, 500))
        l23 = float(rng.uniform(0, 20))
        l43 = float(rng.uniform(0, 20))
        v_m = float(rng.uniform(0.1, 25))
        w1, w2 = blend_weights(gains, r, l23, l43, v_m)
        w1b, w2b = blend_weights(gains, r * 1.01, l23, l43, v_m)
        mono_ok &= w1b > w1 and w2b < w2
        mono_ok &= blend_weights(gains, r, l23 + 0.1, l43, v_m)[0] < w1
        mono_ok &= blend_weights(gains, r, l23, l43 + 0.1, v_m)[1] < w2
        mono_ok &= blend_weights(gains, r, l23, l43, v_m * 1.01)[1] > w2

    # RK4 order: halving dt cuts the one-revolution circle error ~16x.
    def circle_err(dt):
        st = VehicleState(10.0, 0.0, math.pi / 2, SPEED)
        worst = 0.0
        for _ in range(int(round(2 * math.pi * 10.0 / SPEED / dt))):
            st = step(st, SPEED * SPEED / 10.0, dt)
            worst = max(worst, abs(math.hypot(st.x, st.y) - 10.0))
        return worst

    ratio = circle_err(0.05) / circle_err(0.025)
    rk4_ok = 10.0 < ratio < 22.0

    # Determinism: identical configs give byte-identical outputs.
    from pathfollow.cli import main

    import json

    cfg = default_scenario()
    cfg["controller"] = "baseline"
    cfgp = tmp_path / "scenario.json"
    cfgp.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(cfgp), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfgp), "--out", str(out2)]) == 0
    det_ok = all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes()
        for n in ("trajectory_baseline.csv", "path.csv", "summary.json")
    )

    ok = degeneracy_ok and mono_ok and rk4_ok and det_ok
    report(
        "6 property suites",
        ok,
        f"degeneracy spread {worst_spread:.2e}; weight monotonicity {mono_ok}; "
        f"RK4 halving ratio {ratio:.1f}; byte-identical reruns {det_ok}",
    )
    assert degeneracy_ok
    assert mono_ok
    assert rk4_ok
    assert det_ok
