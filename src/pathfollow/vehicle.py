"""Point-mass vehicle kinematics with a fixed-step RK4 integrator.

The model is a planar unicycle at constant speed: xdot = V cos(psi),
ydot = V sin(psi), psidot = a / V, where ``a`` is the commanded lateral
acceleration held constant over each step (ideal inner loop, zero-order
hold).  Speed is a stored constant and is never integrated, so it is
conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin

import numpy as np

from .geom import Vec2, wrap_angle

# step_arrays' constant operands as 0-d arrays, which numpy takes without converting a Python float each call.
_FOUR, _PI, _TWO_PI = np.array(4.0), np.array(np.pi), np.array(2.0 * np.pi)


@dataclass(slots=True)
class VehicleState:
    """Planar pose plus constant speed; heading anticlockwise from +x.

    Construction checks the speed and wraps the heading into (-pi, pi].
    :func:`step` returns a new state; the library never mutates a state
    after building it.
    """

    x: float
    y: float
    heading: float
    speed: float
    t: float = 0.0

    def __post_init__(self):
        if not self.speed > 0.0:
            raise ValueError("speed must be positive")
        self.heading = wrap_angle(self.heading)

    @property
    def position(self) -> Vec2:
        return (self.x, self.y)


def step(
    state: VehicleState, a_cmd: float, dt: float, a_max: float | None = None
) -> VehicleState:
    """Advance one step under a zero-order-hold lateral acceleration.

    Classical 4th-order Runge-Kutta on (x, y, psi); the turn rate is
    constant within the step so heading integrates exactly.  The new
    state's ``__post_init__`` wraps the heading.
    """
    if not (isinstance(a_cmd, (int, float)) and isfinite(a_cmd)):
        raise ValueError(f"invalid command: {a_cmd!r}")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if a_max is not None:  # min(max(a_cmd, -a_max), a_max)
        _check_a_max(a_max)
        a_cmd = -a_max if -a_max > a_cmd else a_cmd
        a_cmd = a_max if a_max < a_cmd else a_cmd

    v = state.speed
    omega = a_cmd / v
    psi = state.heading

    c1, s1 = cos(psi), sin(psi)
    psi2 = psi + 0.5 * dt * omega
    c2, s2 = cos(psi2), sin(psi2)
    psi4 = psi + dt * omega
    c4, s4 = cos(psi4), sin(psi4)

    x = state.x + v * dt / 6.0 * (c1 + 4.0 * c2 + c4)
    y = state.y + v * dt / 6.0 * (s1 + 4.0 * s2 + s4)
    return VehicleState(x, y, psi4, v, state.t + dt)


def _check_a_max(a_max) -> None:
    """A ValueError for an ``a_max`` that is neither None nor positive, which would invert or skip the clamp."""
    if not (a_max is None or a_max > 0.0):
        raise ValueError(f"a_max must be positive or None, got {a_max!r}")


def step_operands(speed: float, dt: float, a_max: float | None = None):
    """:func:`step_arrays`' operands as arrays, built once per rollout: V, the column (0.5 dt, dt, dt), V dt / 6,
    each the float :func:`step` computes, and None or the clamp's bounds -a_max, a_max, refused as there."""
    _check_a_max(a_max)
    bounds = None if a_max is None else (np.array(-a_max), np.array(a_max))
    return np.array(speed), np.array([[0.5 * dt], [dt], [dt]]), np.array(speed * dt / 6.0), bounds


def step_arrays(pos, psi, a_cmd, rk4, cs):
    """Vectorized RK4 step matching :func:`step`; used by batched rollouts.

    ``pos`` holds the positions and ``cs`` cos(psi) and sin(psi), each as (2, K) rows x, y, and
    ``rk4`` is :func:`step_operands` of the speed, time step and a_max.  The commands clamp as in
    :func:`step` (NaN and -0.0 pass), into a new array: ``a_cmd`` keeps its values.  psi2, psi4 and
    the new heading (psi4 wrapped) share one cos and one sin call, and x and y one update, each
    element with :func:`step`'s operations in its order, so the step is the same bit for bit.  Returns
    the new positions, headings and the headings' cos and sin rows, which the next step takes.
    """
    speed, steps, scale, bounds = rk4
    if bounds is not None:  # min(max(a_cmd, -a_max), a_max)
        a_cmd = np.maximum(a_cmd, bounds[0])
        np.minimum(a_cmd, bounds[1], out=a_cmd)
    ang = steps * (a_cmd / speed)  # psi2 - psi, psi4 - psi twice
    ang += psi
    pw = ang[2]  # the new heading
    np.mod(pw, _TWO_PI, out=pw)
    np.putmask(pw, pw > _PI, pw - _TWO_PI)
    trig = np.empty((3, 2) + psi.shape)  # cos and sin of psi2, psi4, then the new heading
    np.cos(ang, out=trig[:, 0])
    np.sin(ang, out=trig[:, 1])
    xy = (_FOUR * trig[0] + cs + trig[1]) * scale
    return pos + xy, pw, trig[2]
