import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as hs

from pathfollow.guidance import GuidanceGains, blended_command, corrector_geometry
from pathfollow.optimizer import (
    OptimizerSettings,
    adaptive_interval,
    optimize_gains,
    rollout_cost,
)
from pathfollow.path import make_circle_path, make_line_path, make_sinusoid_path
from pathfollow.vehicle import VehicleState, step


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizerSettings(k_max=0.0)
    with pytest.raises(ValueError):
        OptimizerSettings(grid=2)
    with pytest.raises(ValueError):
        OptimizerSettings(d_limit=0.0)


# ----------------------------------------------------------------------
# Adaptive interval
# ----------------------------------------------------------------------


def test_adaptive_interval_limited_by_d_limit():
    # Large curvature radius at the projection: the cap wins, 20 / 5 = 4 s.
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    st = VehicleState(50.0, 1.0, 0.0, 5.0)
    assert adaptive_interval(st, line, 20.0) == pytest.approx(4.0)


def test_adaptive_interval_follows_local_radius():
    circ = make_circle_path((0.0, 0.0), 5.0, turns=1.5)
    st = VehicleState(5.0, 0.0, math.pi / 2, 5.0)
    assert adaptive_interval(st, circ, 20.0) == pytest.approx(1.0, rel=1e-6)


def test_adaptive_interval_straight_segment_saturates():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    st = VehicleState(10.0, 0.0, 0.0, 5.0)
    assert adaptive_interval(st, line, 14.0) == pytest.approx(14.0 / 5.0)


# ----------------------------------------------------------------------
# Rollout cost
# ----------------------------------------------------------------------


def test_rollout_zero_cost_on_straight_aligned():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    st = VehicleState(10.0, 0.0, 0.0, 5.0)
    for gains in (GuidanceGains(1, 0, 10.0), GuidanceGains(2, 3, 10.0), GuidanceGains(0, 1, 10.0)):
        assert rollout_cost(st, line, 0.0, gains, 4.0, 0.01) < 1e-9


def scalar_reference_cost(path, st, s_min, gains, n_steps):
    # Independent rollout built directly from the scalar guidance operations,
    # mirroring how the mission loop tracks hints.
    s_proj = None
    state = st
    ctes = []
    for _ in range(n_steps):
        g = corrector_geometry(state, path, s_min, gains.lookahead, proj_hint=s_proj)
        ctes.append(g.proj_dist)
        s_proj = g.proj.s
        s_min = max(s_min, g.p2.s)
        state = step(state, blended_command(state, g, gains), 0.01)
    return float(np.sqrt(np.mean(np.square(ctes))))


def near_path_state(path, s0, offset, heading_off):
    pp = path.point_at(s0)
    nx, ny = -pp.tangent[1], pp.tangent[0]
    return VehicleState(
        pp.position[0] + offset * nx,
        pp.position[1] + offset * ny,
        math.atan2(pp.tangent[1], pp.tangent[0]) + heading_off,
        5.0,
    )


ROLLOUT_PATHS = {
    "sinusoid": make_sinusoid_path(0.0, 150.0),
    "circle": make_circle_path((0.0, 0.0), 20.0, turns=2.0),
}


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(
    kind=hs.sampled_from(sorted(ROLLOUT_PATHS)),
    s_frac=hs.floats(0.0, 1.0),
    offset=hs.floats(-5.0, 5.0),
    heading_deg=hs.floats(-60.0, 60.0),
    k1=hs.floats(0.0, 10.0),
    k2=hs.floats(0.0, 10.0),
    horizon=hs.floats(0.5, 4.0),
)
def test_rollout_matches_independent_closed_loop(kind, s_frac, offset, heading_deg, k1, k2, horizon):
    # Start within L1/2 of the path and 60 degrees of its tangent; the
    # rollout, plus two look-ahead distances, ends before the path does.
    path = ROLLOUT_PATHS[kind]
    gains = GuidanceGains(k1, k2, 10.0)
    s0 = s_frac * (path.total_length - 5.0 * horizon - 2.0 * gains.lookahead)
    state = near_path_state(path, s0, offset, math.radians(heading_deg))
    s_min = max(s0 - 6.0, 0.0)
    expected = scalar_reference_cost(path, state, s_min, gains, max(1, int(round(horizon / 0.01))))
    got = rollout_cost(state, path, s_min, gains, horizon, 0.01)
    assert got == pytest.approx(expected, abs=1e-7)


def test_rollout_matches_scalar_for_blended_gains():
    # A fixed blended-gain case, kept alongside the property test above.
    path = make_sinusoid_path(0.0, 150.0)
    st = near_path_state(path, 60.0, -2.0, math.radians(-25.0))
    gains = GuidanceGains(2.0, 1.5, 10.0)
    expected = scalar_reference_cost(path, st, 54.0, gains, 300)
    got = rollout_cost(st, path, 54.0, gains, 3.0, 0.01)
    assert got == pytest.approx(expected, abs=1e-7)


def test_rollout_deterministic():
    path = make_sinusoid_path(0.0, 150.0)
    st = VehicleState(20.0, 18.0, 0.4, 5.0)
    gains = GuidanceGains(1.0, 2.0, 10.0)
    a = rollout_cost(st, path, 10.0, gains, 4.0, 0.01)
    b = rollout_cost(st, path, 10.0, gains, 4.0, 0.01)
    assert a == b


# ----------------------------------------------------------------------
# Gain search
# ----------------------------------------------------------------------


def test_optimize_flat_objective_ties_to_smallest_gains():
    # Straight aligned path: every candidate costs ~0, ties resolve to the
    # smallest k2 then smallest k1.
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    st = VehicleState(10.0, 0.0, 0.0, 5.0)
    res = optimize_gains(st, line, 0.0, OptimizerSettings(), 10.0, 0.01)
    assert (res.k1, res.k2) == (0.0, 0.0)
    assert not res.fallback


def test_optimize_never_loses_to_baseline_pair():
    circ = make_circle_path((0.0, 0.0), 10.0, turns=2.0)
    st = VehicleState(10.5, 0.0, math.radians(95.0), 5.0)
    settings = OptimizerSettings()
    res = optimize_gains(st, circ, 0.0, settings, 10.0, 0.01)
    base = rollout_cost(st, circ, 0.0, GuidanceGains(1.0, 0.0, 10.0), res.horizon, 0.01)
    assert res.cost <= base + 1e-12


def test_optimize_baseline_pair_included_for_any_grid():
    # Even when the grid would not naturally contain (1, 0).
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    st = VehicleState(10.0, 0.5, 0.1, 5.0)
    settings = OptimizerSettings(k_max=7.0, grid=5, refine_rounds=1)
    res = optimize_gains(st, line, 0.0, settings, 10.0, 0.01)
    base = rollout_cost(st, line, 0.0, GuidanceGains(1.0, 0.0, 10.0), res.horizon, 0.01)
    assert res.cost <= base + 1e-12


def test_optimize_deterministic_and_bounded():
    path = make_sinusoid_path(0.0, 150.0)
    st = VehicleState(40.0, 20.0, 0.5, 5.0)
    settings = OptimizerSettings()
    r1 = optimize_gains(st, path, 30.0, settings, 10.0, 0.01)
    r2 = optimize_gains(st, path, 30.0, settings, 10.0, 0.01)
    assert (r1.k1, r1.k2, r1.cost) == (r2.k1, r2.k2, r2.cost)
    assert 0.0 <= r1.k1 <= settings.k_max
    assert 0.0 <= r1.k2 <= settings.k_max


def test_optimize_horizon_comes_from_adaptive_interval():
    path = make_sinusoid_path(0.0, 150.0)
    st = VehicleState(10.0, 20.0, 0.6, 5.0)
    res = optimize_gains(st, path, 0.0, OptimizerSettings(), 10.0, 0.01)
    pp, _ = path.project(st.position)
    from pathfollow.path import curvature_radius

    assert res.horizon == pytest.approx(min(20.0, curvature_radius(pp)) / 5.0)
