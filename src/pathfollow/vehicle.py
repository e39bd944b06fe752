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


def step_arrays(x, y, psi, a_cmd, speed: float, dt: float, cs):
    """Vectorized RK4 step matching :func:`step`; used by batched rollouts.

    ``cs`` holds cos(psi) and sin(psi) as rows, computed once for the law and the step.
    psi2 and psi4 share one cos and one sin call, and x and y one update, each element with
    :func:`step`'s operations in its order, so the step is the same bit for bit.
    """
    ang = np.multiply.outer((0.5 * dt, dt), a_cmd / speed)  # psi2 - psi, psi4 - psi
    ang += psi
    trig = np.empty((2,) + ang.shape)  # cos, then sin, of psi2 and psi4
    np.cos(ang, out=trig[0])
    np.sin(ang, out=trig[1])
    xy = (4.0 * trig[:, 0] + cs + trig[:, 1]) * (speed * dt / 6.0)
    pw = np.mod(ang[1], 2.0 * np.pi)
    np.putmask(pw, pw > np.pi, pw - 2.0 * np.pi)
    return x + xy[0], y + xy[1], pw
