import math

import numpy as np
import pytest

from pathfollow.guidance import (
    GuidanceGains,
    baseline_step,
    blend_weights,
    blended_command,
    corrector_geometry,
    eta,
    latax_l1,
    weighted_blend,
)
from pathfollow.path import make_circle_path, make_line_path, make_sinusoid_path
from pathfollow.vehicle import VehicleState, step


def state_at(x, y, heading_deg, speed=5.0):
    return VehicleState(x, y, math.radians(heading_deg), speed)


# ----------------------------------------------------------------------
# eta / latax
# ----------------------------------------------------------------------


def test_eta_left_target():
    assert eta(state_at(0, 0, 0), (0.0, 5.0)) == pytest.approx(math.pi / 2)


def test_eta_ahead_target():
    assert eta(state_at(0, 0, 0), (5.0, 0.0)) == 0.0


def test_eta_right_target():
    assert eta(state_at(0, 0, 0), (5.0, -5.0)) == pytest.approx(-math.pi / 4)


def test_eta_zero_los_raises():
    with pytest.raises(ValueError, match="zero LOS"):
        eta(state_at(1, 2, 0), (1.0, 2.0))


def test_latax_direct_substitution():
    # 2 V^2 sin(eta) / L with V=5, L=10, eta=pi/6 gives 2.5.
    s = state_at(0, 0, 0)
    target = (10 * math.cos(math.pi / 6), 10 * math.sin(math.pi / 6))
    assert latax_l1(s, target, 10.0) == pytest.approx(2.5)


def test_latax_zero_eta():
    assert latax_l1(state_at(0, 0, 0), (7.0, 0.0), 10.0) == 0.0


def test_latax_perpendicular_gives_max_turn_rate():
    # eta = pi/2 at V=5, L=10: a = 5 m/s^2, i.e. a/V = 1 rad/s = 57.30 deg/s.
    a = latax_l1(state_at(0, 0, 0), (0.0, 10.0), 10.0)
    assert a == pytest.approx(5.0)
    assert math.degrees(a / 5.0) == pytest.approx(57.2958, abs=1e-3)


# ----------------------------------------------------------------------
# baseline law
# ----------------------------------------------------------------------


def test_baseline_on_circle_matches_chord_geometry():
    # On-circle look-ahead: sin(eta) = L/(2R), so a = 2 V^2/L * L/(2R) = V^2/R.
    circ = make_circle_path((0.0, 0.0), 10.0, turns=1.5)
    s = state_at(10.0, 0.0, 90.0)
    cmd, res = baseline_step(s, circ, 0.0, 10.0)
    assert cmd == pytest.approx(25.0 / 10.0, abs=1e-4)
    assert not res.fallback


def test_baseline_aligned_on_straight_path():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    cmd, _ = baseline_step(state_at(20.0, 0.0, 0.0), line, 0.0, 10.0)
    assert cmd == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# corrector geometry
# ----------------------------------------------------------------------


def test_corrector_on_straight_path_degenerates_to_lookahead():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    g = corrector_geometry(state_at(0.0, 3.0, 0.0), line, 0.0, 10.0)
    x2 = math.sqrt(91.0)
    assert g.p2.position == pytest.approx((x2, 0.0), abs=1e-9)
    assert g.p4 == pytest.approx(g.p2.position, abs=1e-9)
    assert g.l43 == pytest.approx(g.l23, abs=1e-9)
    assert g.eta14 == pytest.approx(g.eta12, abs=1e-9)


def test_corrector_circle_construction():
    circ = make_circle_path((0.0, 0.0), 10.0, turns=1.5)
    g = corrector_geometry(state_at(10.0, 0.0, 90.0), circ, 0.0, 10.0)
    y60 = 10.0 * math.sin(math.radians(60))
    assert g.p2.position == pytest.approx((5.0, y60), abs=1e-3)
    assert g.eta12 == pytest.approx(math.radians(30.0), abs=1e-4)
    assert g.p3 == pytest.approx((10.0, y60), abs=1e-3)
    assert g.p4 == pytest.approx((10.0, y60), abs=1e-3)
    assert g.lc == pytest.approx(y60, abs=1e-3)
    assert g.l23 == pytest.approx(5.0, abs=1e-3)
    assert g.l43 == pytest.approx(0.0, abs=1e-3)
    assert g.eta14 == pytest.approx(0.0, abs=1e-4)
    assert g.r_l1 == pytest.approx(10.0, abs=1e-6)


def test_corrector_on_path_aligned():
    path = make_sinusoid_path(0.0, 150.0)
    pp = path.point_at(30.0)
    s = VehicleState(pp.position[0], pp.position[1], math.atan2(pp.tangent[1], pp.tangent[0]), 5.0)
    g = corrector_geometry(s, path, 25.0, 10.0)
    assert g.proj_dist < 1e-9
    # Aligned on the path, the tangent line is the heading line, so the
    # corrector sits on it: eta14 vanishes.
    assert abs(g.eta14) < 1e-6


def test_corrector_line_memberships_randomized():
    path = make_sinusoid_path(0.0, 150.0)
    rng = np.random.default_rng(12)
    for _ in range(2000):
        s0 = float(rng.uniform(5.0, path.total_length - 15.0))
        pp = path.point_at(s0)
        off = float(rng.uniform(-3, 3))
        nx, ny = -pp.tangent[1], pp.tangent[0]
        st = VehicleState(
            pp.position[0] + off * nx,
            pp.position[1] + off * ny,
            math.atan2(pp.tangent[1], pp.tangent[0]) + float(rng.uniform(-1.0, 1.0)),
            5.0,
        )
        g = corrector_geometry(st, path, max(s0 - 5.0, 0.0), 10.0)
        tx, ty = g.proj.tangent
        r_tan = abs(tx * (g.p4[1] - g.proj.position[1]) - ty * (g.p4[0] - g.proj.position[0]))
        hx, hy = math.cos(st.heading), math.sin(st.heading)
        r_perp = abs(hx * (g.p4[0] - g.p2.position[0]) + hy * (g.p4[1] - g.p2.position[1]))
        assert r_tan < 1e-6
        assert r_perp < 1e-6
        # Distance bookkeeping.
        assert g.lc == pytest.approx(math.hypot(g.p4[0] - st.x, g.p4[1] - st.y), abs=1e-12)
        assert g.v_m == pytest.approx(0.5 * (st.speed + g.v_l), abs=1e-12)


def test_corrector_perpendicular_heading_falls_back():
    # Heading perpendicular to the path tangent: the corrector lines are
    # parallel and the corrector collapses onto the look-ahead point.
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    g = corrector_geometry(state_at(20.0, 1.0, 90.0), line, 0.0, 10.0)
    assert g.fallback
    assert g.p4 == pytest.approx(g.p2.position, abs=1e-12)


# ----------------------------------------------------------------------
# look-ahead point speed
# ----------------------------------------------------------------------


def test_lookahead_speed_straight_aligned():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    s = state_at(20.0, 0.0, 0.0)
    g = corrector_geometry(s, line, 0.0, 10.0)
    assert g.v_l == pytest.approx(5.0, abs=1e-9)
    assert g.v_m == pytest.approx(5.0, abs=1e-9)


def test_lookahead_speed_circle_range_rate_balance():
    # On a circle the look-ahead geometry is stationary, so the look-ahead
    # point slides at the vehicle speed; verify the zero-range-rate claim
    # numerically by stepping the closed loop once.
    circ = make_circle_path((0.0, 0.0), 10.0, turns=1.5)
    s = state_at(10.0, 0.0, 90.0)
    g = corrector_geometry(s, circ, 0.0, 10.0)
    assert g.v_l == pytest.approx(5.0, abs=1e-3)

    d0 = g.l1
    s2 = step(s, 2.5, 0.001)
    g2 = corrector_geometry(s2, circ, g.p2.s - 0.5, 10.0)
    assert (g2.l1 - d0) / 0.001 == pytest.approx(0.0, abs=1e-2)


def test_lookahead_speed_perpendicular_los_is_clamped_to_zero():
    # Vehicle on the x axis heading north: the look-ahead point 10 m down the
    # path lies square to the velocity, so V cos(eta12) vanishes.
    line = make_line_path((-50.0, 0.0), (1.0, 0.0), 100.0)
    g = corrector_geometry(state_at(0.0, 0.0, 90.0), line, 45.0, 10.0)
    assert g.eta12 == pytest.approx(-math.pi / 2, abs=1e-9)
    assert g.v_l == pytest.approx(0.0, abs=1e-12)
    # Turned further away the look-ahead point falls behind the velocity;
    # the negative range-rate speed is clamped to exactly zero.
    g_behind = corrector_geometry(state_at(0.0, 0.0, 100.0), line, 45.0, 10.0)
    assert math.cos(g_behind.eta12) < 0.0
    assert g_behind.v_l == 0.0
    assert g_behind.v_m == pytest.approx(2.5)


# ----------------------------------------------------------------------
# blended command
# ----------------------------------------------------------------------


def test_blended_recovers_baseline_at_gains_one_zero():
    path = make_sinusoid_path(0.0, 150.0)
    rng = np.random.default_rng(13)
    for _ in range(200):
        st = VehicleState(
            float(rng.uniform(0, 140)),
            float(rng.uniform(-35, 35)),
            float(rng.uniform(-math.pi, math.pi)),
            5.0,
        )
        g = corrector_geometry(st, path, 0.0, 10.0)
        cmd_b, _ = baseline_step(st, path, 0.0, 10.0)
        cmd_p = blended_command(st, g, GuidanceGains(1.0, 0.0, 10.0))
        assert cmd_p == cmd_b  # bitwise: same geometry, same arithmetic


def test_blended_single_term_selection():
    circ = make_circle_path((0.0, 0.0), 10.0, turns=1.5)
    st = state_at(9.0, 0.5, 80.0)
    g = corrector_geometry(st, circ, 0.0, 10.0)
    a12 = latax_l1(st, g.p2.position, max(g.l1, 0.1))
    a14 = latax_l1(st, g.p4, max(g.lc, 0.1))
    assert blended_command(st, g, GuidanceGains(1.0, 0.0, 10.0)) == pytest.approx(a12, abs=1e-12)
    assert blended_command(st, g, GuidanceGains(0.0, 1.0, 10.0)) == pytest.approx(a14, abs=1e-12)
    assert blended_command(st, g, GuidanceGains(0.0, 0.0, 10.0)) == pytest.approx(a12, abs=1e-12)


def test_weighted_blend_arithmetic():
    assert weighted_blend(2.0, 1.0, 3.0, 0.0) == pytest.approx(2.0)
    assert weighted_blend(0.0, 0.0, 3.0, 7.0) == 3.0
    assert weighted_blend(0.0, 2.0, 3.0, 7.0) == 7.0


def test_bounded_lookahead_command():
    # |a12| <= 2 V^2 / L1 for any geometry: at the look-ahead distance the
    # bound is tight, and fallback targets are farther away than that.
    path = make_sinusoid_path(0.0, 150.0)
    rng = np.random.default_rng(14)
    for _ in range(300):
        st = VehicleState(
            float(rng.uniform(0, 140)),
            float(rng.uniform(-35, 35)),
            float(rng.uniform(-math.pi, math.pi)),
            5.0,
        )
        cmd, _ = baseline_step(st, path, 0.0, 10.0)
        assert abs(cmd) <= 2 * 25.0 / 10.0 + 1e-9


def test_straight_line_gain_independence():
    line = make_line_path((0.0, 0.0), (2.0, 1.0), 200.0)
    rng = np.random.default_rng(15)
    for _ in range(200):
        st = VehicleState(
            float(rng.uniform(5, 120)),
            float(rng.uniform(-5, 60)),
            float(rng.uniform(-math.pi, math.pi)),
            5.0,
        )
        g = corrector_geometry(st, line, 0.0, 10.0)
        if g.fallback:
            continue
        base = blended_command(st, g, GuidanceGains(1.0, 0.0, 10.0))
        for k1, k2 in ((1.0, 1.0), (0.3, 4.0), (0.0, 1.0), (7.0, 7.0)):
            assert blended_command(st, g, GuidanceGains(k1, k2, 10.0)) == pytest.approx(base, abs=1e-9)


def test_weight_monotonicity():
    rng = np.random.default_rng(16)
    gains = GuidanceGains(1.3, 2.1, 10.0)
    for _ in range(300):
        r = float(rng.uniform(0.5, 500))
        l23 = float(rng.uniform(0, 20))
        l43 = float(rng.uniform(0, 20))
        v_m = float(rng.uniform(0.1, 25))
        w1, w2 = blend_weights(gains, r, l23, l43, v_m)
        w1_r, w2_r = blend_weights(gains, r * 1.1, l23, l43, v_m)
        assert w1_r > w1 and w2_r < w2
        w1_l, _ = blend_weights(gains, r, l23 * 1.1 + 0.1, l43, v_m)
        assert w1_l < w1
        _, w2_l = blend_weights(gains, r, l23, l43 * 1.1 + 0.1, v_m)
        assert w2_l < w2
        _, w2_v = blend_weights(gains, r, l23, l43, v_m * 1.1)
        assert w2_v > w2


def test_gains_validation():
    with pytest.raises(ValueError):
        GuidanceGains(-0.1, 0.0, 10.0)
    with pytest.raises(ValueError):
        GuidanceGains(0.0, -0.1, 10.0)
    with pytest.raises(ValueError):
        GuidanceGains(1.0, 0.0, 0.0)
