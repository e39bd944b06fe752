import math

import numpy as np
import pytest

from pathfollow.geom import wrap_angle
from pathfollow.midcourse import (
    InfeasibleGeometryError,
    InitiationCircle,
    brute_force_extremum,
    candidate_circles,
    circle_follow_command,
    contact_solutions,
    midcourse_command,
    select_circle,
)
from pathfollow.path import make_line_path, make_sinusoid_path
from pathfollow.vehicle import VehicleState, step

SPEED = 5.0


# ----------------------------------------------------------------------
# Candidate circles
# ----------------------------------------------------------------------


def test_candidate_circles_normal_offsets():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    left, right = candidate_circles(line, 5.0)
    assert left.center == pytest.approx((0.0, 5.0), abs=1e-9)
    assert left.sense == "anticlockwise"
    assert right.center == pytest.approx((0.0, -5.0), abs=1e-9)
    assert right.sense == "clockwise"


def test_candidate_circles_tangent_at_start():
    path = make_sinusoid_path(0.0, 150.0)
    start = path.start
    for c in candidate_circles(path, 5.0):
        d = math.hypot(c.center[0] - start.position[0], c.center[1] - start.position[1])
        assert d == pytest.approx(5.0, abs=1e-9)
        # Traversal sense passes the start moving along the start tangent.
        assert c.tangent_at(start.position) == pytest.approx(start.tangent, abs=1e-9)


# ----------------------------------------------------------------------
# Tangency solutions
# ----------------------------------------------------------------------


def test_contact_solutions_head_on_pair():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    sols = contact_solutions((30.0, 0.0), math.pi, circle, SPEED)
    assert len(sols) == 2
    assert sols[0].lam == pytest.approx(40.0, rel=1e-12)
    assert sols[1].lam == pytest.approx(40.0, rel=1e-12)
    ws = sorted((round(s.w[0], 9), round(s.w[1], 9)) for s in sols)
    assert ws[0] == pytest.approx((6.0, -8.0))
    assert ws[1] == pytest.approx((6.0, 8.0))
    for s in sols:
        assert abs(s.a_const) == pytest.approx(25.0 / 40.0)
        # Tangency point lies on the circle.
        assert math.hypot(*s.w) == pytest.approx(10.0, abs=1e-9)
        # Arc center sits at the tangency distance from the circle center.
        assert abs(s.a_const) == pytest.approx(SPEED * SPEED / s.lam)


def test_contact_solution_centers_verify_tangency():
    rng = np.random.default_rng(21)
    for _ in range(200):
        center = rng.uniform(-30, 30, 2)
        radius = float(rng.uniform(2, 15))
        circle = InitiationCircle((center[0], center[1]), radius, "anticlockwise")
        ang = float(rng.uniform(-math.pi, math.pi))
        d = radius * float(rng.uniform(1.3, 6.0))
        p = (center[0] + d * math.cos(ang), center[1] + d * math.sin(ang))
        to_c = math.atan2(center[1] - p[1], center[0] - p[0])
        psi = wrap_angle(to_c + float(rng.uniform(-1.4, 1.4)))
        for sol in contact_solutions(p, psi, circle, SPEED):
            if not math.isfinite(sol.lam):
                continue
            # The vehicle arc center lies on the heading normal through p and
            # its distance to the circle center equals lam +/- radius.
            nx, ny = -math.sin(psi), math.cos(psi)
            sigma = 1.0 if sol.a_const >= 0 else -1.0
            qx, qy = p[0] + sigma * sol.lam * nx, p[1] + sigma * sol.lam * ny
            dq = math.hypot(qx - center[0], qy - center[1])
            expected = sol.lam + radius if sol.kind == "external" else sol.lam - radius
            assert dq == pytest.approx(expected, rel=1e-9)
            assert math.hypot(sol.w[0] - center[0], sol.w[1] - center[1]) == pytest.approx(
                radius, abs=1e-9
            )


def test_contact_vehicle_on_circle_degenerates():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    sols = contact_solutions((10.0, 0.0), math.pi / 2, circle, SPEED)
    assert len(sols) == 1
    assert sols[0].w == pytest.approx((10.0, 0.0))
    assert math.isinf(sols[0].lam)
    assert sols[0].a_const == 0.0
    assert sols[0].feasible


def test_contact_heading_line_tangent_to_circle():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    sols = contact_solutions((30.0, 10.0), math.pi, circle, SPEED)
    straight = [s for s in sols if s.kind == "straight"]
    assert len(straight) == 1
    assert straight[0].w == pytest.approx((0.0, 10.0), abs=1e-9)
    # At the top of the circle the anticlockwise tangent points along -x,
    # exactly the approach heading.
    assert straight[0].feasible is True


def test_contact_preconditions():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    with pytest.raises(ValueError, match="inside initiation circle"):
        contact_solutions((3.0, 0.0), math.pi, circle, SPEED)
    with pytest.raises(ValueError, match="heading away"):
        contact_solutions((30.0, 0.0), 0.0, circle, SPEED)


# ----------------------------------------------------------------------
# Brute-force oracle
# ----------------------------------------------------------------------


def test_brute_force_matches_geometric_construction():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    phi = brute_force_extremum((30.0, 0.0), math.pi, circle, 3600)
    # Symmetric scenario: two mirror minima; the tie breaks to positive phi.
    assert phi == pytest.approx(math.atan2(8.0, 6.0), abs=2 * math.pi / 3600)


def test_brute_force_on_circle_returns_vehicle_angle():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    phi = brute_force_extremum((10.0, 0.0), math.pi / 2, circle, 3600)
    assert phi == pytest.approx(0.0, abs=2 * math.pi / 3600)


def test_brute_force_requires_enough_samples():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    with pytest.raises(ValueError):
        brute_force_extremum((30.0, 0.0), math.pi, circle, 100)


def test_oracle_equivalence_randomized():
    # The least-|command| tangency solution must agree with the sweep
    # minimizer to one grid cell across random scenarios.
    rng = np.random.default_rng(22)
    cell = 2 * math.pi / 3600
    for _ in range(100):
        center = rng.uniform(-50, 50, 2)
        radius = float(rng.uniform(2, 20))
        sense = "anticlockwise" if rng.random() < 0.5 else "clockwise"
        circle = InitiationCircle((center[0], center[1]), radius, sense)
        ang = float(rng.uniform(-math.pi, math.pi))
        d = radius * float(rng.uniform(1.3, 8.0))
        p = (center[0] + d * math.cos(ang), center[1] + d * math.sin(ang))
        to_c = math.atan2(center[1] - p[1], center[0] - p[0])
        psi = wrap_angle(to_c + float(rng.uniform(-1.4, 1.4)))
        sols = contact_solutions(p, psi, circle, SPEED)
        phi_analytic = circle.angle_of(sols[0].w)
        phi_sweep = brute_force_extremum(p, psi, circle, 3600)
        assert abs(wrap_angle(phi_analytic - phi_sweep)) <= cell + 1e-12


# ----------------------------------------------------------------------
# Circle selection
# ----------------------------------------------------------------------


def test_select_behind_symmetric_ties_to_anticlockwise():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    cands = candidate_circles(line, 5.0)
    circle, sol = select_circle((-30.0, 0.0), 0.0, cands, SPEED)
    assert circle.sense == "anticlockwise"
    # On-axis approach: the heading line is tangent to both circles, so the
    # best option is the straight run into the path start.
    assert sol.a_const == 0.0
    assert sol.w == pytest.approx((0.0, 0.0), abs=1e-9)


@pytest.mark.parametrize("p, heading", [((-30.0, 0.0), 0.0), ((30.0, 0.0), math.pi)], ids=["straight", "arc"])
def test_select_mirrored_ties_go_anticlockwise_in_either_candidate_order(p, heading):
    # The circles mirror each other across the path's start tangent, so their best commands tie
    # within 1e-12 (exactly 0 on the straight run, 3 ULP apart on the arc).
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    left, right = candidate_circles(line, 5.0)
    best = next(s for s in contact_solutions(p, heading, left, SPEED) if s.feasible)
    for cands in ((left, right), (right, left)):
        assert select_circle(p, heading, cands, SPEED) == (left, best)


def test_select_behind_generic_minimizes_command():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    cands = candidate_circles(line, 5.0)
    circle, sol = select_circle((-40.0, 12.0), -0.3, cands, SPEED)
    assert sol.feasible
    # Enumeration really returns the smallest feasible |command|.
    best = min(
        abs(s.a_const)
        for c in cands
        for s in contact_solutions((-40.0, 12.0), -0.3, c, SPEED)
        if s.feasible
    )
    assert abs(sol.a_const) == pytest.approx(best, rel=1e-12)


def test_select_ahead_heading_away_uses_enclosing_arc():
    # Vehicle ahead of the path start moving away from one candidate circle:
    # that candidate is discarded and the enclosing-tangency branch of the
    # other circle wins.
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    cands = candidate_circles(line, 5.0)
    circle, sol = select_circle((20.0, 0.0), math.pi / 2, cands, SPEED)
    assert circle.sense == "anticlockwise"
    assert sol.kind == "internal"
    assert sol.feasible


def test_select_reports_infeasible():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    cands = candidate_circles(line, 5.0)
    # Heading directly away from both circle centers.
    with pytest.raises(InfeasibleGeometryError):
        select_circle((50.0, 0.0), 0.0, cands, SPEED)


# ----------------------------------------------------------------------
# Mid-course and circle-follow commands
# ----------------------------------------------------------------------


def test_midcourse_command_magnitude():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    sols = contact_solutions((30.0, 0.0), math.pi, circle, SPEED)
    sol = next(s for s in sols if s.feasible)
    cmd = midcourse_command(VehicleState(30.0, 0.0, math.pi, SPEED), sol)
    assert abs(cmd) == pytest.approx(0.625, abs=1e-9)


def test_midcourse_command_constant_along_arc():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    sols = contact_solutions((30.0, 0.0), math.pi, circle, SPEED)
    sol = next(s for s in sols if s.feasible)
    state = VehicleState(30.0, 0.0, math.pi, SPEED)
    mags = []
    while math.hypot(state.x - sol.w[0], state.y - sol.w[1]) > 0.3:
        cmd = midcourse_command(state, sol)
        mags.append(abs(cmd))
        state = step(state, cmd, 0.01)
    assert max(mags) - min(mags) < 1e-3
    # Arrival heading is tangent to the initiation circle.
    tang = circle.tangent_at(sol.w)
    err = abs(wrap_angle(state.heading - math.atan2(tang[1], tang[0])))
    assert math.degrees(err) < 0.5


def test_midcourse_zero_command_on_straight_approach():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    sols = contact_solutions((30.0, 10.0), math.pi, circle, SPEED)
    straight = next(s for s in sols if s.kind == "straight")
    cmd = midcourse_command(VehicleState(30.0, 10.0, math.pi, SPEED), straight)
    assert cmd == pytest.approx(0.0, abs=1e-12)


def test_circle_follow_on_circle_command():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    state = VehicleState(10.0, 0.0, math.pi / 2, SPEED)
    assert circle_follow_command(state, circle, 10.0) == pytest.approx(2.5, abs=1e-9)


def test_circle_follow_long_chord_clamped():
    circle = InitiationCircle((0.0, 0.0), 5.0, "anticlockwise")
    state = VehicleState(5.0, 0.0, math.pi / 2, SPEED)
    cmd = circle_follow_command(state, circle, 10.0)
    # Chord clamped to 1.8 R = 9: finite, well-defined command.
    assert math.isfinite(cmd)
    span = 2 * math.asin(9.0 / 10.0)
    expected = 2 * SPEED * SPEED * math.sin(span / 2) / 9.0
    assert cmd == pytest.approx(expected, abs=1e-9)


def test_circle_follow_radial_offset_decays():
    circle = InitiationCircle((0.0, 0.0), 10.0, "anticlockwise")
    state = VehicleState(10.1, 0.0, math.pi / 2, SPEED)
    n = int(2 * math.pi * 10.0 / SPEED / 0.01)
    for _ in range(n):
        state = step(state, circle_follow_command(state, circle, 10.0), 0.01)
    assert abs(math.hypot(state.x, state.y) - 10.0) < 0.01
