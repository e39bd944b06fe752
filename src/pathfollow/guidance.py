"""Close-range guidance law and the arc command every phase steers with.

:func:`arc_command` is the arc law 2 V^2 sin(eta) / L toward a point, the
lateral acceleration that flies the circular arc through vehicle and point.
The close-range law aims it at a virtual target a fixed look-ahead distance
ahead on the path and at a corrector point: the intersection of the path
tangent at the vehicle's projection with the line through the look-ahead
point perpendicular to the velocity.  The two commands are mixed by
curvature- and geometry-dependent weights with gains (k1, k2), which embeds
local path shape into the command.  At k2 = 0 the corrector weight is 0 and
the law is the constant-L1 baseline for every k1 (:func:`baseline_step`).

:func:`blended_many` is the same law over numpy rows, for the gain tuner's
batched rollouts.  All operations are pure: each call builds fresh geometry
records, the library never mutates a record after building it and the path's
table is read-only, so concurrent evaluation with different gains over the
same path is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import atan2, cos, hypot, pi, sin

import numpy as np

from .geom import PARALLEL_EPS, TWO_PI, Vec2, heading_vector, signed_angle, sub
from .path import PathPoint, ReferencePath, radii_from_curvatures, radius_from_curvature
from .vehicle import VehicleState

# Lower clamp on target distances: the arc command is singular as a target
# approaches the vehicle.
MIN_TARGET_DIST = 0.1

# |cos(beta)| floor in the look-ahead speed estimate, and the speed cap as a
# multiple of vehicle speed.
COS_BETA_MIN = 0.1
LOOKAHEAD_SPEED_CAP = 5.0

# Below this total weight the blended command falls back to the look-ahead
# term alone.
WEIGHT_EPS = 1e-12


@dataclass(frozen=True)
class GuidanceGains:
    """Blending gains plus the fixed look-ahead distance."""

    k1: float
    k2: float
    lookahead: float

    def __post_init__(self):
        if self.k1 < 0.0 or self.k2 < 0.0:
            raise ValueError("gains must be non-negative")
        if not self.lookahead > 0.0:
            raise ValueError("look-ahead distance must be positive")


@dataclass(slots=True)
class CorrectorGeometry:
    """Geometry underlying one blended-command evaluation.

    Points: ``p1`` vehicle, ``proj`` its path projection, ``p2`` look-ahead
    point, ``p3`` foot of the look-ahead's perpendicular line on the heading
    ray, ``p4`` corrector point.  ``l1``/``lc`` are the distances from the
    vehicle to ``p2``/``p4``; ``l23``/``l43`` the lateral offsets of the two
    aim points from the heading; ``eta12``/``eta14`` the signed angles from
    the velocity to each aim point; ``r_l1`` the clamped curvature radius at
    ``p2``; ``v_l``/``v_m`` the look-ahead point speed estimate and its mean
    with the vehicle speed.
    """

    p1: Vec2
    proj: PathPoint
    p2: PathPoint
    p3: Vec2
    p4: Vec2
    l1: float
    lc: float
    l23: float
    l43: float
    eta12: float
    eta14: float
    r_l1: float
    v_l: float
    v_m: float
    proj_dist: float
    fallback: bool = False
    end_of_path: bool = False


def eta(state: VehicleState, target: Vec2) -> float:
    """Signed angle from the velocity direction to the line of sight."""
    los = sub(target, state.position)
    if los[0] == 0.0 and los[1] == 0.0:
        raise ValueError("zero LOS: target coincides with vehicle position")
    return signed_angle(heading_vector(state.heading), los)


def latax_toward(speed: float, eta_angle: float, target_dist: float) -> float:
    """Arc-following lateral acceleration 2 V^2 sin(eta) / L."""
    return 2.0 * speed * speed * math.sin(eta_angle) / target_dist


def latax_l1(state: VehicleState, target: Vec2, lookahead_dist: float) -> float:
    """Baseline command toward a virtual target at distance ``lookahead_dist``."""
    if not lookahead_dist > 0.0:
        raise ValueError("look-ahead distance must be positive")
    return latax_toward(state.speed, eta(state, target), lookahead_dist)


def arc_command(state: VehicleState, tx: float, ty: float) -> float:
    """Arc command 2 V^2 sin(eta) / max(d, MIN_TARGET_DIST) toward ``(tx, ty)``; 0 at the point.

    :func:`latax_toward` of the ``signed_angle`` from ``heading_vector`` to the line
    of sight, inlined with their operations in order, so it matches them bit for bit.
    """
    rx, ry = tx - state.x, ty - state.y
    d = hypot(rx, ry)
    if d == 0.0:
        return 0.0
    hx, hy = cos(state.heading), sin(state.heading)
    ang = atan2(hx * ry - hy * rx, hx * rx + hy * ry)
    if ang <= -pi:
        ang += TWO_PI
    v = state.speed
    # max(d, MIN_TARGET_DIST) without the builtin call.
    return 2.0 * v * v * sin(ang) / (MIN_TARGET_DIST if MIN_TARGET_DIST > d else d)


def baseline_step(state: VehicleState, path: ReferencePath, s_min: float, lookahead_dist: float):
    """One baseline evaluation: look-ahead query plus arc command.

    Returns ``(a_cmd, lookahead_result)``; degenerate-geometry flags ride
    along on the result rather than raising.  Equals the blended law at
    gains (k1, 0) for every k1.
    """
    la = path.lookahead_point((state.x, state.y), s_min, lookahead_dist)
    tx, ty = la.point.position
    return arc_command(state, tx, ty), la


def track_projection(
    state: VehicleState,
    path: ReferencePath,
    s_min: float,
    lookahead_dist: float,
    proj_hint: float | None = None,
):
    """Vehicle projection for tracking loops.

    With a hint from the previous step the search is local; without one
    (first step) the whole path beyond the forward-progress guard is
    searched.
    """
    if proj_hint is not None:
        return path.project(state.position, s_hint=proj_hint)
    hint = max(s_min - lookahead_dist - 5.0, 0.0)
    return path.project(state.position, s_hint=hint, window=path.total_length)


def corrector_geometry(
    state: VehicleState,
    path: ReferencePath,
    s_min: float,
    lookahead_dist: float,
    proj_hint: float | None = None,
) -> CorrectorGeometry:
    """Construct the look-ahead / corrector point pair for the current state.

    The corrector point ``p4`` is the intersection of the path tangent at the
    vehicle's projection with the line through the look-ahead point
    perpendicular to the velocity.  If those lines are parallel (path tangent
    perpendicular to the heading) the corrector degenerates to the look-ahead
    point and the fallback flag is set.
    """
    p1 = state.position
    hx, hy = math.cos(state.heading), math.sin(state.heading)

    la = path.lookahead_point(p1, s_min, lookahead_dist)
    p2 = la.point
    proj, proj_dist = track_projection(state, path, s_min, lookahead_dist, proj_hint)

    p2x, p2y = p2.position
    rx, ry = p2x - p1[0], p2y - p1[1]
    d12 = math.hypot(rx, ry)
    eta12 = signed_angle((hx, hy), (rx, ry)) if d12 > 0.0 else 0.0

    # Corrector point: tangent line at proj meets the perpendicular through p2.
    ttx, tty = proj.tangent
    den = ttx * hx + tty * hy  # cross(tangent, perp_left(heading))
    degenerate = abs(den) < PARALLEL_EPS
    if degenerate:
        p4 = p2.position
    else:
        wx, wy = p2x - proj.position[0], p2y - proj.position[1]
        tpar = (wx * hx + wy * hy) / den
        p4 = (proj.position[0] + tpar * ttx, proj.position[1] + tpar * tty)

    # Foot of the perpendicular line on the heading ray.
    q = rx * hx + ry * hy
    p3 = (p1[0] + q * hx, p1[1] + q * hy)

    l23 = math.hypot(p2x - p3[0], p2y - p3[1])
    l43 = math.hypot(p4[0] - p3[0], p4[1] - p3[1])
    lcx, lcy = p4[0] - p1[0], p4[1] - p1[1]
    lc = math.hypot(lcx, lcy)
    eta14 = signed_angle((hx, hy), (lcx, lcy)) if lc > 0.0 else 0.0

    r_l1 = radius_from_curvature(p2.curvature)

    t2x, t2y = p2.tangent
    cosb = (t2x * rx + t2y * ry) / max(d12, 1e-12)
    v_l = _range_rate_speed(state.speed, eta12, cosb)
    v_m = 0.5 * (state.speed + v_l)

    return CorrectorGeometry(
        p1=p1,
        proj=proj,
        p2=p2,
        p3=p3,
        p4=p4,
        l1=d12,
        lc=lc,
        l23=l23,
        l43=l43,
        eta12=eta12,
        eta14=eta14,
        r_l1=r_l1,
        v_l=v_l,
        v_m=v_m,
        proj_dist=proj_dist,
        fallback=la.fallback or degenerate,
        end_of_path=la.end_of_path,
    )


def _range_rate_speed(speed: float, eta12: float, cos_beta: float) -> float:
    """Look-ahead point speed from the zero-range-rate balance, clamped."""
    if cos_beta >= 0.0:
        cb = max(cos_beta, COS_BETA_MIN)
    else:
        cb = min(cos_beta, -COS_BETA_MIN)
    v_l = speed * math.cos(eta12) / cb
    return min(max(v_l, 0.0), LOOKAHEAD_SPEED_CAP * speed)


def blend_weights(gains: GuidanceGains, r_l1: float, l23: float, l43: float, v_m: float):
    """Weights for the look-ahead and corrector terms.

    The look-ahead weight grows with the curvature radius at the look-ahead
    point and shrinks with the point's lateral offset; the corrector weight
    scales with the look-ahead point's turn rate (v_m / r_l1) and shrinks
    with the corrector's lateral offset.
    """
    w1 = gains.k1 * r_l1 / (1.0 + l23)
    w2 = gains.k2 * v_m / (r_l1 * (1.0 + l43))
    return w1, w2


def weighted_blend(w1: float, w2: float, a12: float, a14: float) -> float:
    """Weighted average of the two commands; degenerate weights fall back to a12."""
    if w1 + w2 < WEIGHT_EPS or w2 == 0.0:
        return a12
    if w1 == 0.0:
        return a14
    return (w1 * a12 + w2 * a14) / (w1 + w2)


def blended_command(state: VehicleState, geom: CorrectorGeometry, gains: GuidanceGains) -> float:
    """Corrector-aided command: weighted mean of the look-ahead and corrector arcs."""
    v = state.speed
    a12 = latax_toward(v, geom.eta12, max(geom.l1, MIN_TARGET_DIST))
    a14 = latax_toward(v, geom.eta14, max(geom.lc, MIN_TARGET_DIST))
    w1, w2 = blend_weights(gains, geom.r_l1, geom.l23, geom.l43, geom.v_m)
    return weighted_blend(w1, w2, a12, a14)


def blended_many(x, y, hx, hy, proj, p2, speed: float, k1s, k2s):
    """:func:`corrector_geometry` + :func:`blended_command` over rows, for the gain tuner.

    ``hx, hy`` are the headings' cosines and sines, ``proj`` holds the
    projections' rows x, y, tx, ty and ``p2`` the look-ahead points' rows x,
    y, tx, ty, kappa.  Same clamps and fallbacks as the scalar law; numpy's
    hypot and arctan2 may differ from the math module's in the last bit.
    Operations repeated over vectors run as one call on stacked rows (the four
    hypots, both arctan2 calls and their wrap, both sines), each element with
    the operations of a call per row, so the result is the same bit for bit.
    """
    pos, h, tt = np.array((x, y)), np.array((hx, hy)), proj[2:4]
    pts = np.array((p2[:2], p2[:2]))  # p2, then p4, as rows x, y

    # Corrector point p4: the tangent line at proj meets the perpendicular through p2.
    den = tt * h
    den = den[0] + den[1]
    degen = np.abs(den) < PARALLEL_EPS
    any_degen = np.count_nonzero(degen)  # the degenerate selects run only when needed
    w = p2[:2] - proj[:2]
    w *= h
    tpar = (w[0] + w[1]) / (np.where(degen, 1.0, den) if any_degen else den)
    np.add(proj[:2], tpar * tt, out=pts[1])
    if any_degen:
        pts[1] = np.where(degen, p2[:2], pts[1])

    # Vectors as rows x, y: vehicle to p2 and to p4, then p3 to p2 and to p4.
    v = np.empty((4, 2, x.size))
    np.subtract(pts, pos, out=v[:2])
    vx, vy = v[:2, 0], v[:2, 1]
    dot = hx * vx + hy * vy
    eta = np.arctan2(hx * vy - hy * vx, dot)  # eta12, eta14
    np.putmask(eta, eta <= -np.pi, eta + TWO_PI)
    np.subtract(pts, dot[0] * h + pos, out=v[2:])  # p3 = p1 + q h: the foot of p2's perpendicular
    lens = np.hypot(v[:, 0], v[:, 1])  # d12, lc, l23, l43
    np.putmask(eta[1], ~(lens[1] > 0.0), 0.0)

    r_l1 = radii_from_curvatures(p2[4])
    cb = p2[2:4] * v[0]
    cosb = (cb[0] + cb[1]) / np.maximum(lens[0], 1e-12)
    cb = np.where(cosb >= 0.0, np.maximum(cosb, COS_BETA_MIN), np.minimum(cosb, -COS_BETA_MIN))
    v_l = np.minimum(np.maximum(speed * np.cos(eta[0]) / cb, 0.0), LOOKAHEAD_SPEED_CAP * speed)
    v_m = 0.5 * (speed + v_l)

    arc = 2.0 * speed * speed * np.sin(eta) / np.maximum(lens[:2], MIN_TARGET_DIST)  # a12, a14
    wt = np.array((k1s * r_l1 / (1.0 + lens[2]), k2s * v_m / (r_l1 * (1.0 + lens[3]))))  # w1, w2
    wsum = wt[0] + wt[1]
    mix = wt * arc
    cmd = (mix[0] + mix[1]) / np.where(wsum < WEIGHT_EPS, 1.0, wsum)
    zero = wt == 0.0
    np.putmask(cmd, zero[0], arc[1])
    np.putmask(cmd, (wsum < WEIGHT_EPS) | zero[1], arc[0])
    return cmd
