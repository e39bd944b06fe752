import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfollow.geom import wrap_angle
from pathfollow.vehicle import VehicleState, step, step_arrays, step_operands


def run_steps(state, a_cmd, dt, n, a_max=None):
    for _ in range(n):
        state = step(state, a_cmd, dt, a_max)
    return state


def test_state_is_a_slotted_value_record():
    # Positional (x, y, heading, speed) is how perfbench's spans.py builds a state.
    assert list(inspect.signature(VehicleState).parameters) == ["x", "y", "heading", "speed", "t"]
    a = VehicleState(1.0, 2.0, 0.5, 5.0)
    assert a == VehicleState(x=1.0, y=2.0, heading=0.5, speed=5.0, t=0.0)
    assert a != VehicleState(1.0, 2.0, 0.5, 5.0, 0.01)
    assert a != (1.0, 2.0, 0.5, 5.0, 0.0)
    b = dataclasses.replace(a, heading=1.5 * math.pi, t=1.0)
    assert (b.x, b.y, b.heading, b.speed, b.t) == (1.0, 2.0, wrap_angle(1.5 * math.pi), 5.0, 1.0)
    assert a.heading == 0.5
    # Slots without an instance __dict__: a frozen dataclass took ~3x as long to build.
    assert VehicleState.__slots__ == ("x", "y", "heading", "speed", "t")
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("speed", [0.0, -1.0, math.nan])
def test_state_rejects_non_positive_speed(speed):
    with pytest.raises(ValueError, match="speed must be positive"):
        VehicleState(0.0, 0.0, 0.0, speed)
    with pytest.raises(ValueError, match="speed must be positive"):
        dataclasses.replace(VehicleState(0.0, 0.0, 0.0, 5.0), speed=speed)


@pytest.mark.parametrize(
    "heading, wrapped",
    [(0.5, 0.5), (math.pi, math.pi), (-math.pi, math.pi), (1.5 * math.pi, 1.5 * math.pi - 2.0 * math.pi),
     (-7.0, -7.0 + 2.0 * math.pi), (20.0, wrap_angle(20.0))],
)
def test_state_wraps_heading_into_half_open_branch(heading, wrapped):
    h = VehicleState(0.0, 0.0, heading, 5.0).heading
    assert h == wrapped and -math.pi < h <= math.pi


def test_straight_flight():
    s = run_steps(VehicleState(0, 0, 0, 5.0), 0.0, 1.0, 1)
    assert (s.x, s.y) == pytest.approx((5.0, 0.0), abs=1e-12)
    assert s.heading == 0.0
    assert s.t == pytest.approx(1.0)


def test_constant_rate_turn_heading():
    # a = 5 at V = 5 gives a 1 rad/s turn; after pi seconds the heading has
    # rotated by pi exactly (the turn rate is constant within each step).
    dt = math.pi / 1000
    s = run_steps(VehicleState(0, 0, 0, 5.0), 5.0, dt, 1000)
    assert abs(s.heading) == pytest.approx(math.pi, abs=1e-6)


def circle_error(dt, revolutions=1.0):
    # Closed form: constant a = V^2 / R holds the vehicle on a circle of
    # radius R; measure the worst radial deviation over the run.
    v, r = 5.0, 10.0
    state = VehicleState(r, 0.0, math.pi / 2, v)
    n = int(round(revolutions * 2 * math.pi * r / v / dt))
    worst = 0.0
    for _ in range(n):
        state = step(state, v * v / r, dt)
        worst = max(worst, abs(math.hypot(state.x, state.y) - r))
    return worst


def test_circle_hold_accuracy():
    assert circle_error(0.01) < 1e-4


def test_rk4_order_check():
    # Fourth order: halving dt cuts the one-revolution error about 16x.
    e1 = circle_error(0.05)
    e2 = circle_error(0.025)
    assert 10.0 < e1 / e2 < 22.0


def test_speed_is_conserved_exactly():
    state = VehicleState(0, 0, 0.3, 5.0)
    for _ in range(100):
        state = step(state, 3.7, 0.01)
    assert state.speed == 5.0


def test_invalid_command_rejected():
    with pytest.raises(ValueError, match="invalid command"):
        step(VehicleState(0, 0, 0, 5.0), math.nan, 0.01)
    with pytest.raises(ValueError, match="invalid command"):
        step(VehicleState(0, 0, 0, 5.0), math.inf, 0.01)


def test_bad_dt_rejected():
    with pytest.raises(ValueError):
        step(VehicleState(0, 0, 0, 5.0), 0.0, 0.0)


def test_optional_saturation():
    free = step(VehicleState(0, 0, 0, 5.0), 50.0, 0.01)
    capped = step(VehicleState(0, 0, 0, 5.0), 50.0, 0.01, a_max=10.0)
    expect = step(VehicleState(0, 0, 0, 5.0), 10.0, 0.01)
    assert capped == expect
    assert capped.heading < free.heading


@pytest.mark.parametrize("a_max", [0.0, -0.0, -1.0, math.nan, -math.inf])
def test_step_refuses_the_a_max_the_schema_refuses(a_max):
    # The clamp applied -1.0 for an a_max of -1, and a NaN one let the command through unclamped.
    with pytest.raises(ValueError, match="a_max"):
        step(VehicleState(0, 0, 0, 5.0), 0.5, 0.01, a_max=a_max)


def test_state_requires_positive_speed():
    with pytest.raises(ValueError):
        VehicleState(0, 0, 0, 0.0)


COORD = st.floats(-1e4, 1e4)
HEADING = st.one_of(st.sampled_from((math.pi, -math.pi, -0.0, 0.0)), st.floats(-math.pi, math.pi))
COMMAND = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-100.0, 100.0))
# The smallest subnormal clamps every command to +-0.0 or +-5e-324, and inf clamps none.
A_MAX = st.sampled_from((None, 5e-324, 0.5, 3.0, math.inf))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    speed=st.floats(0.1, 40.0),
    dt=st.floats(1e-4, 0.05),
    rows=st.lists(st.tuples(COORD, COORD, HEADING, COMMAND), min_size=1, max_size=8),
    a_max=A_MAX,
)
def test_step_arrays_matches_scalar(speed, dt, rows, a_max):
    # step_arrays is step bit for bit, from the wrapped heading a state holds, as the rollouts start from it,
    # clamping at a_max as step does; the commands passed in keep their values.
    states = [VehicleState(x, y, psi, speed) for x, y, psi, _ in rows]
    pos, psi = np.array([(s.x, s.y) for s in states]).T, np.array([s.heading for s in states])
    a = np.array([row[3] for row in rows])
    passed = a.tobytes()
    (xn, yn), pn, cs = step_arrays(pos, psi, a, step_operands(speed, dt, a_max), np.array((np.cos(psi), np.sin(psi))))
    assert a.tobytes() == passed
    # The next step's cos and sin rows are those of the new headings.
    assert cs.tobytes() == np.array((np.cos(pn), np.sin(pn))).tobytes()
    for i, state in enumerate(states):
        s = step(state, float(a[i]), dt, a_max)
        assert np.array((xn[i], yn[i], pn[i])).tobytes() == np.array((s.x, s.y, s.heading)).tobytes(), i
