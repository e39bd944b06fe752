import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as hs

from pathfollow.guidance import GuidanceGains, blended_command, corrector_geometry
from pathfollow.optimizer import (
    MAX_GRID,
    OptimizerSettings,
    _rollout_costs,
    adaptive_interval,
    optimize_gains,
    rollout_cost,
)
from pathfollow.path import (
    ReferencePath,
    make_circle_path,
    make_line_path,
    make_sinusoid_path,
)
from pathfollow.vehicle import VehicleState, step


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizerSettings(k_max=0.0)
    with pytest.raises(ValueError):
        OptimizerSettings(grid=2)
    with pytest.raises(ValueError):
        OptimizerSettings(grid=MAX_GRID + 1)
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


def scalar_reference_cost(path, st, s_min, gains, n_steps, a_max=None):
    # Independent rollout built directly from the scalar guidance operations,
    # mirroring how the mission loop tracks hints and saturates commands.
    s_proj = None
    state = st
    ctes = []
    for _ in range(n_steps):
        g = corrector_geometry(state, path, s_min, gains.lookahead, proj_hint=s_proj)
        ctes.append(g.proj_dist)
        s_proj = g.proj.s
        s_min = max(s_min, g.p2.s)
        state = step(state, blended_command(state, g, gains), 0.01, a_max)
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


@pytest.mark.parametrize("a_max", [None, 0.5])
def test_rollout_matches_scalar_for_blended_gains(a_max):
    # A fixed blended-gain case, kept alongside the property test above.  At
    # a_max = 0.5 the saturated vehicle ends far off the path (6.956 m RMS
    # against 2.587 m unsaturated), so the rollout must clamp as it does.
    path = make_sinusoid_path(0.0, 150.0)
    st = near_path_state(path, 60.0, -2.0, math.radians(-25.0))
    gains = GuidanceGains(2.0, 1.5, 10.0)
    expected = scalar_reference_cost(path, st, 54.0, gains, 300, a_max)
    got = rollout_cost(st, path, 54.0, gains, 3.0, 0.01, a_max=a_max)
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


# ----------------------------------------------------------------------
# Bit-for-bit identity of the batched kernel
# ----------------------------------------------------------------------

# Gain updates of the stock proposed mission (sinusoid over x in [-15, 150],
# heading 39.118 deg): (x, y, heading, s_min, s_proj) and the exact result
# of optimize_gains before the kernel was vectorized further.
STOCK_UPDATES = [
    (
        (-3.6107740019546357, 16.372402235837207, 0.9868956497560274, 32.27070017999215, 22.041166313054696),
        (3.4299999999999997, 2.23, 0.27511607978894936, 4.0),
    ),
    (
        (24.43046214266706, 1.7895839933998166, -1.0900750793979341, 71.9024930779502, 61.90537057239762),
        (0.45, 10.0, 0.1756926210547684, 4.0),
    ),
    (
        (117.1026665225003, -17.041043220297382, -0.48186735444866713, 212.0025011839532, 201.60748577609303),
        (0.0, 0.0, 0.5100157821840258, 2.2852003583098273),
    ),
]


@pytest.fixture(scope="module")
def stock_path():
    return make_sinusoid_path(-15.0, 150.0)


@pytest.mark.parametrize("update, expected", STOCK_UPDATES)
def test_optimize_gains_reproduces_recorded_stock_updates(stock_path, update, expected):
    x, y, heading, s_min, s_proj = update
    res = optimize_gains(VehicleState(x, y, heading, 5.0), stock_path, s_min, OptimizerSettings(), 10.0, 0.01, s_proj)
    assert (res.k1, res.k2, res.cost, res.horizon) == expected
    assert not res.fallback


# optimize_gains away from the default settings: an even grid, a grid whose
# axis misses (1, 0), deeper refinement and saturated rollouts, at two stock
# updates and the circle state of test_optimize_never_loses_to_baseline_pair.
# (k1, k2, cost, horizon, fallback), recorded before round 0 joined the
# refinement loop.
PINNED_SETTINGS = [
    (OptimizerSettings(grid=4), None),
    (OptimizerSettings(k_max=7.0, grid=5, refine_rounds=1), None),
    (OptimizerSettings(k_max=3.0, grid=12, refine_rounds=3), None),
    (OptimizerSettings(k_max=7.0, grid=5, refine_rounds=1), 2.0),
]
PINNED_RESULTS = {
    "stock0": [
        (9.444444444444445, 6.111111111111112, 0.27511769597919605, 4.0, False),
        (6.125, 3.9375, 0.2751249564846639, 4.0, False),
        (2.9046171709582675, 1.8882931493750426, 0.27511607290801054, 4.0, False),
        (0.0, 0.0, 0.7044892138319792, 4.0, False),
    ],
    "stock1": [
        (1.1111111111111112, 10.0, 0.18552100126784418, 4.0, False),
        (0.875, 7.0, 0.1868527155723762, 4.0, False),
        (0.12283996994740795, 3.0, 0.17484855427467852, 4.0, False),
        (0.875, 7.0, 0.1868527155723762, 4.0, False),
    ],
    "circle": [
        (0.0, 0.0, 0.23469162147297146, 2.0, False),
        (0.0, 0.0, 0.23469162147297146, 2.0, False),
        (0.0, 0.0, 0.23469162147297146, 2.0, False),
        (0.0, 0.0, 0.3427751944116086, 2.0, False),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_RESULTS))
def test_optimize_gains_reproduces_recorded_results_at_other_settings(stock_path, name):
    if name == "circle":
        path = make_circle_path((0.0, 0.0), 10.0, turns=2.0)
        st, s_min, s_proj = VehicleState(10.5, 0.0, math.radians(95.0), 5.0), 0.0, None
    else:
        x, y, heading, s_min, s_proj = STOCK_UPDATES[int(name[-1])][0]
        path, st = stock_path, VehicleState(x, y, heading, 5.0)
    for (settings, a_max), expected in zip(PINNED_SETTINGS, PINNED_RESULTS[name]):
        res = optimize_gains(st, path, s_min, settings, 10.0, 0.01, s_proj, a_max)
        assert (res.k1, res.k2, res.cost, res.horizon, res.fallback) == expected


@pytest.mark.parametrize("rows", [[0], [60], [7, 120, 3], list(range(0, 121, 7)), list(range(40, 58))])
def test_rollout_rows_are_bitwise_independent(stock_path, rows):
    # A search round rolls out only distinct gain values and re-rolls the
    # incumbent, which is exact only if a row's cost does not depend on the
    # other rows in the batch.
    x, y, heading, s_min, s_proj = STOCK_UPDATES[1][0]
    st = VehicleState(x, y, heading, 5.0)
    axis = np.linspace(0.0, 10.0, 11)
    k1s, k2s = [a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")]
    full = _rollout_costs(stock_path, st, s_min, s_proj, k1s, k2s, 10.0, 0.01, 400)
    sub = _rollout_costs(stock_path, st, s_min, s_proj, k1s[rows], k2s[rows], 10.0, 0.01, 400)
    assert full[rows].tobytes() == sub.tobytes()


def test_batched_projection_agrees_with_scalar_project(stock_path, monkeypatch):
    # The rollout projects all rows with a short window (project_many); the
    # mission projects one state with project.  Over every row and step of the
    # first search round of a recorded stock update both give the same arc
    # length bit for bit, and distances within 2 ULP (numpy's x * x against
    # Python's x ** 2).  Both stay: each is the faster form for its queries.
    calls = []
    batched = ReferencePath.project_many

    def recording(self, x, y, s_prev):
        s, d = batched(self, x, y, s_prev)
        calls.append((x, y, s_prev, s, d))
        return s, d

    monkeypatch.setattr(ReferencePath, "project_many", recording)
    x, y, heading, s_min, s_proj = STOCK_UPDATES[1][0]
    st = VehicleState(x, y, heading, 5.0)
    optimize_gains(st, stock_path, s_min, OptimizerSettings(refine_rounds=0), 10.0, 0.01, s_proj)
    rows = 0
    for xs, ys, s_prev, s, d in calls:
        for i in range(xs.size):
            pp, dist = stock_path.project((xs[i], ys[i]), s_hint=s_prev[i])
            assert pp.s == s[i]
            assert abs(dist - d[i]) <= 2 * np.spacing(dist)
            rows += 1
    assert rows == 121 * 400
