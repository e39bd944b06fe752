"""Planar vector and angle helpers shared by the guidance stack.

Vectors are plain ``(x, y)`` tuples of floats.  All angles are in radians,
anticlockwise positive, and normalized to the branch (-pi, pi].  Everything
here is a pure function: it reads its arguments and returns new tuples and
floats, so it is safe to call from any thread.
"""

from __future__ import annotations

import math

Vec2 = tuple[float, float]

TWO_PI = 2.0 * math.pi

# Unit directions whose cross product magnitude falls below this threshold
# are treated as parallel.
PARALLEL_EPS = 1e-9


def perp_left(a: Vec2) -> Vec2:
    """Rotate a vector by +90 degrees (left normal)."""
    return (-a[1], a[0])


def heading_vector(psi: float) -> Vec2:
    """Unit direction for a heading angle measured from the +x axis."""
    return (math.cos(psi), math.sin(psi))


def wrap_angle(a: float) -> float:
    """Normalize an angle to the branch (-pi, pi]; pi maps to itself."""
    r = a % TWO_PI
    if r > math.pi:
        r -= TWO_PI
    return r


def signed_angle(a: Vec2, b: Vec2) -> float:
    """Anticlockwise-positive angle from direction ``a`` to direction ``b``.

    Result lies in (-pi, pi].  Raises ValueError on a zero input vector.
    """
    if (a[0] == 0.0 and a[1] == 0.0) or (b[0] == 0.0 and b[1] == 0.0):
        raise ValueError("degenerate direction: zero vector")
    ang = math.atan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])  # atan2(cross, dot)
    if ang <= -math.pi:
        ang += TWO_PI
    return ang
