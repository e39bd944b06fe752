"""Mid-course guidance onto an initiation circle.

When the vehicle starts far from the path, it first flies a constant-command
circular arc onto an "initiation circle" that touches the path tangentially
at its start point, then follows that circle around to the path start.

The aim point on the initiation circle is the contact point of the circle
through the vehicle that is tangent to its velocity and tangent to the
initiation circle.  Steering at that static contact point with the arc law
2 V^2 sin(eta) / L keeps sin(eta)/L constant, so the command magnitude is
the constant V^2 / lambda, with lambda the radius of the vehicle's arc.
Among the tangency solutions the larger-radius arc demands the least
acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Vec2, heading_vector, perp_left
from .guidance import arc_command
from .path import ReferencePath, SENSE_ANTICLOCKWISE, SENSE_CLOCKWISE, SENSE_SIGN
from .vehicle import VehicleState


class InfeasibleGeometryError(RuntimeError):
    """No initiation-circle approach reaches the path start with the right sense."""


@dataclass(frozen=True)
class InitiationCircle:
    """Circle tangent to the path at its start, with a traversal sense."""

    center: Vec2
    radius: float
    sense: str

    def tangent_at(self, point: Vec2) -> Vec2:
        """Unit tangent of the circle at ``point`` in the traversal sense."""
        rx = point[0] - self.center[0]
        ry = point[1] - self.center[1]
        n = math.hypot(rx, ry)
        if n == 0.0:
            raise ValueError("point coincides with circle center")
        s = SENSE_SIGN[self.sense]
        return (-s * ry / n, s * rx / n)

    def angle_of(self, point: Vec2) -> float:
        return math.atan2(point[1] - self.center[1], point[0] - self.center[0])


@dataclass(frozen=True)
class ContactSolution:
    """One tangency solution: contact point, arc radius, constant command."""

    w: Vec2
    lam: float
    a_const: float
    feasible: bool
    kind: str  # "external", "internal" or "straight"


def candidate_circles(path: ReferencePath, radius: float) -> tuple[InitiationCircle, InitiationCircle]:
    """The two circles of given radius tangent to the path at its start.

    Each is assigned the traversal sense that passes through the start point
    moving along the start tangent: the circle offset to the left of the
    tangent is traversed anticlockwise, the right one clockwise.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    start = path.start
    nx, ny = perp_left(start.tangent)
    sx, sy = start.position
    left = InitiationCircle((sx + radius * nx, sy + radius * ny), radius, SENSE_ANTICLOCKWISE)
    right = InitiationCircle((sx - radius * nx, sy - radius * ny), radius, SENSE_CLOCKWISE)
    return left, right


def contact_solutions(
    p: Vec2, heading: float, circle: InitiationCircle, speed: float
) -> list[ContactSolution]:
    """Tangency solutions of arcs from ``p`` along ``heading`` onto ``circle``.

    An arc of radius lambda tangent to the velocity at ``p`` has its center at
    p +/- lambda * n with n the left normal of the heading.  Requiring the
    center distance to the circle center to equal lambda + R (external) or
    lambda - R (enclosing) gives lambda in closed form for each turn side.
    Results are sorted by descending lambda, so the first entry is the
    least-acceleration solution.

    The feasibility flag marks whether the arrival velocity at the contact
    point matches the circle's traversal sense, i.e. whether continuing
    around the circle reaches the path start the right way.
    """
    ox, oy = circle.center
    big_r = circle.radius
    ux, uy = p[0] - ox, p[1] - oy
    du = math.hypot(ux, uy)
    if du < big_r - 1e-9:
        raise ValueError("vehicle inside initiation circle")
    hx, hy = heading_vector(heading)
    if ux * hx + uy * hy > 1e-9 * max(du, 1.0):
        # Velocity points more than 90 degrees away from the circle center.
        raise ValueError("heading away from circle")

    s_circ = SENSE_SIGN[circle.sense]

    # Vehicle effectively on the circle: the tangent arc degenerates; the
    # contact point is the vehicle itself.
    if abs(du - big_r) <= 1e-9:
        tang = circle.tangent_at(p)
        aligned = hx * tang[0] + hy * tang[1] > 1.0 - 1e-9
        return [ContactSolution((p[0], p[1]), math.inf, 0.0, aligned, "straight")]

    nx, ny = -hy, hx
    un = ux * nx + uy * ny
    sols: list[ContactSolution] = []
    for sigma in (1.0, -1.0):
        for kind, rsign in (("external", 1.0), ("internal", -1.0)):
            den = 2.0 * (sigma * un - rsign * big_r)
            if abs(den) < 1e-12:
                continue
            lam = (big_r * big_r - du * du) / den
            if not lam > 0.0 or not math.isfinite(lam):
                continue
            qx, qy = p[0] + sigma * lam * nx, p[1] + sigma * lam * ny
            dqx, dqy = qx - ox, qy - oy
            dq = math.hypot(dqx, dqy)
            if dq == 0.0:
                continue
            w = (ox + rsign * big_r * dqx / dq, oy + rsign * big_r * dqy / dq)
            # External tangency flips the rotation sense at the contact,
            # enclosing tangency preserves it.
            arrival = -sigma if rsign > 0.0 else sigma
            sols.append(
                ContactSolution(
                    w=w,
                    lam=lam,
                    a_const=sigma * speed * speed / lam,
                    feasible=arrival == s_circ,
                    kind=kind,
                )
            )

    # Heading line tangent to the circle: the arc degenerates to a straight
    # run to the tangency foot.
    if abs(abs(un) - big_r) <= 1e-9:
        foot_t = -(ux * hx + uy * hy)
        w = (p[0] + foot_t * hx, p[1] + foot_t * hy)
        tang = circle.tangent_at(w)
        aligned = hx * tang[0] + hy * tang[1] > 1.0 - 1e-9
        sols.append(ContactSolution(w, math.inf, 0.0, aligned, "straight"))

    sols.sort(key=lambda s: -s.lam)
    return sols


def brute_force_extremum(p: Vec2, heading: float, circle: InitiationCircle, samples: int = 3600) -> float:
    """Sweep aim points around the circle; return the angle whose arc command
    is the smallest in magnitude among the stationary points of the command.

    Serves as an independent oracle for :func:`contact_solutions`: candidate
    aim points (R cos(phi), R sin(phi)) are swept over phi in [-pi, pi), the
    arc command evaluated at each, and discrete extrema located by slope sign
    changes.  Symmetric ties break toward positive phi.
    """
    if samples < 360:
        raise ValueError("need at least 360 samples")
    ox, oy = circle.center
    big_r = circle.radius
    hx, hy = heading_vector(heading)
    phis = -math.pi + 2.0 * math.pi * np.arange(samples) / samples
    wx = ox + big_r * np.cos(phis)
    wy = oy + big_r * np.sin(phis)
    lx = wx - p[0]
    ly = wy - p[1]
    ldist = np.hypot(lx, ly)
    if float(ldist.min()) < 1e-9:
        # Vehicle on the circle: the contact point is the vehicle itself.
        return float(phis[int(np.argmin(ldist))])
    sin_eta = (hx * ly - hy * lx) / ldist
    a = sin_eta / ldist  # command up to the constant factor 2 V^2

    d_prev = a - np.roll(a, 1)
    d_next = np.roll(a, -1) - a
    crit = d_prev * d_next <= 0.0
    idx = np.nonzero(crit)[0]
    if idx.size == 0:
        idx = np.arange(samples)
    mag = np.abs(a[idx])
    m0 = float(mag.min())
    tied = idx[mag <= m0 + 1e-12 * (1.0 + m0)]
    return float(phis[tied].max())


def select_circle(
    p: Vec2,
    heading: float,
    candidates: tuple[InitiationCircle, InitiationCircle],
    speed: float,
) -> tuple[InitiationCircle, ContactSolution]:
    """Pick the feasible approach with the smallest constant command.

    All tangency branches of both candidate circles are enumerated and
    filtered by arrival-sense feasibility; the minimum |a_const| wins, with
    deterministic ties preferring the anticlockwise circle, then the larger
    arc radius.
    """
    best: tuple[float, tuple[int, float], InitiationCircle, ContactSolution] | None = None
    tried = []
    for circle in candidates:
        try:
            sols = contact_solutions(p, heading, circle, speed)
        except ValueError as exc:
            tried.append(f"{circle.sense}: {exc}")
            continue
        for sol in sols:
            if not sol.feasible:
                continue
            mag, rank = abs(sol.a_const), (0 if circle.sense == SENSE_ANTICLOCKWISE else 1, -sol.lam)
            tol = 1e-12 * (1.0 + best[0]) if best else 0.0
            if not best or mag < best[0] - tol or (mag <= best[0] + tol and rank < best[1]):
                best = (mag, rank, circle, sol)
    if best is None:
        detail = "; ".join(tried) if tried else "no feasible tangency branch"
        raise InfeasibleGeometryError(
            f"no feasible initiation geometry from p={p}, heading={heading:.4f} rad ({detail})"
        )
    return best[2], best[3]


def midcourse_command(state: VehicleState, sol: ContactSolution) -> float:
    """Arc command toward the static contact point.

    Along the exact tangent arc sin(eta)/L is constant, so the magnitude
    stays at V^2 / lambda until arrival.
    """
    return arc_command(state, *sol.w)


def circle_follow_command(state: VehicleState, circle: InitiationCircle, lookahead_dist: float) -> float:
    """Constant look-ahead guidance around the initiation circle.

    The aim point sits on the circle one look-ahead chord ahead of the
    vehicle's angular position in the traversal sense.  Chords longer than
    the diameter are clamped to 1.8 R.
    """
    big_r = circle.radius
    chord = lookahead_dist
    if chord > 2.0 * big_r:
        chord = 1.8 * big_r
    dtheta = 2.0 * math.asin(chord / (2.0 * big_r))
    s = SENSE_SIGN[circle.sense]
    theta = circle.angle_of(state.position) + s * dtheta
    tx = circle.center[0] + big_r * math.cos(theta)
    ty = circle.center[1] + big_r * math.sin(theta)
    return arc_command(state, tx, ty)
