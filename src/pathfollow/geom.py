"""Planar vector and angle helpers shared by the guidance stack.

Vectors are plain ``(x, y)`` tuples of floats.  All angles are in radians,
anticlockwise positive, and normalized to the branch (-pi, pi].  Everything
here is a pure function on immutable values, safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Vec2 = tuple[float, float]

TWO_PI = 2.0 * math.pi

# Unit directions whose cross product magnitude falls below this threshold
# are treated as parallel.
PARALLEL_EPS = 1e-9


def vec(x: float, y: float) -> Vec2:
    """Build a Vec2, rejecting non-finite components."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite vector components ({x}, {y})")
    return (float(x), float(y))


def sub(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] - b[0], a[1] - b[1])


def dot(a: Vec2, b: Vec2) -> float:
    return a[0] * b[0] + a[1] * b[1]


def cross(a: Vec2, b: Vec2) -> float:
    return a[0] * b[1] - a[1] * b[0]


def unit(a: Vec2) -> Vec2:
    n = math.hypot(a[0], a[1])
    if n == 0.0:
        raise ValueError("degenerate direction: zero vector")
    return (a[0] / n, a[1] / n)


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
    ang = math.atan2(cross(a, b), dot(a, b))
    if ang <= -math.pi:
        ang += TWO_PI
    return ang


def line_intersection(p1: Vec2, d1: Vec2, p2: Vec2, d2: Vec2) -> Vec2:
    """Intersection point of two infinite lines given as point + direction.

    Raises ValueError("parallel lines") when the unit directions have a
    cross product below PARALLEL_EPS.
    """
    u1 = unit(d1)
    u2 = unit(d2)
    den = cross(u1, u2)
    if abs(den) < PARALLEL_EPS:
        raise ValueError("parallel lines")
    t = cross(sub(p2, p1), u2) / den
    return (p1[0] + t * u1[0], p1[1] + t * u1[1])


@dataclass(frozen=True)
class Pose:
    """Planar pose: position plus heading normalized to (-pi, pi]."""

    position: Vec2
    heading: float

    def __post_init__(self):
        vec(*self.position)
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @property
    def direction(self) -> Vec2:
        return heading_vector(self.heading)
