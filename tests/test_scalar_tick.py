"""Bit-for-bit pins of the scalar mission tick.

Two kinds of check:

* whole trajectories of missions that pass through mid-course, circle
  following and close range (plus stock close-range starts), as sha256
  digests of their struct-packed telemetry columns;
* a derandomized property test that compares ``ReferencePath.project``
  (hinted and global), ``ReferencePath.lookahead_point``,
  ``guidance.baseline_step``, ``midcourse.midcourse_command``,
  ``midcourse.circle_follow_command`` and ``vehicle.step`` with references
  written here in the original arithmetic (``latax_l1`` for the baseline
  command, ``latax_toward(signed_angle(heading_vector(...)))`` for the
  mid-course ones):
  numpy ``** 2`` windows, Python ``** 2`` in the four-segment refine, segment
  differences formed on every call, builtin ``min``/``max`` and
  ``dataclasses.replace``.  Floats are compared by their bytes, so a changed
  last bit or zero sign fails.
"""

import hashlib
import math
import random
import struct
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfollow.geom import heading_vector, signed_angle, wrap_angle
from pathfollow.guidance import MIN_TARGET_DIST, arc_command, baseline_step, latax_l1, latax_toward
from pathfollow.midcourse import ContactSolution, InitiationCircle, circle_follow_command, midcourse_command
from pathfollow.path import (
    SENSE_ANTICLOCKWISE,
    SENSE_CLOCKWISE,
    LookaheadResult,
    PathPoint,
    make_circle_path,
    make_polyline_path,
    make_sinusoid_path,
)
from pathfollow.supervisor import MissionConfig, run_mission
from pathfollow.vehicle import VehicleState, step

# ----------------------------------------------------------------------
# Trajectory digests
# ----------------------------------------------------------------------


def trajectory_digest(run) -> str:
    h = hashlib.sha256()
    n = len(run)
    for col in (run.t, run.x, run.y, run.psi, run.a_cmd, run.cte, run.k1, run.k2):
        h.update(struct.pack(f"<{n}d", *col))
    h.update("\n".join(run.phase).encode())
    return h.hexdigest()


@lru_cache(maxsize=None)
def sinusoid(x_lo: float):
    return make_sinusoid_path(x_lo, 150.0)


# (path x_start, start x, y, heading deg, controller, k2, steps, phases, sha256)
# recorded before the tick's arithmetic was restructured.
TRAJECTORIES = [
    (0.0, -50.0, 20.0, 0.0, "baseline", 0.0, 7241, 3,
     "9f4b6d13ef90cda8e4c3615b17ab038468b57a79d7d7a5e2d3079567f3f2bfa9"),
    (0.0, 30.0, -40.0, 150.0, "baseline", 0.0, 5799, 3,
     "c16f77b4e04f7673703756eb2d28e3fb3bcee0e3075b0dacefa205281e51fa4b"),
    (0.0, -20.0, 75.0, -100.0, "baseline", 0.0, 6288, 3,
     "33229b73cbaa88dee59e3e25bd08476e670829dda04eea932ebf14e92ce17aa2"),
    (-15.0, -15.0, 0.0, -20.882, "baseline", 0.0, 4877, 1,
     "84ba843d3778ad7e996317f6192f6b281b9d2e7fce1d2dc53b0d5ecb50431808"),
    (-15.0, -15.0, 0.0, 39.118, "baseline", 0.0, 4835, 1,
     "012170b583543ac20260a558e0fc8bf4ca8a5b29cc5356bd617f77cbc389ff3c"),
    (-15.0, -15.0, 0.0, 129.118, "baseline", 0.0, 4890, 1,
     "022bb79f66109361d3c561a8d2343044132ede7351b6e2c52d52247705ef35c9"),
    # The blended law at fixed gains (1, 0.5) from a far start.
    (0.0, -50.0, 20.0, 0.0, "proposed", 0.5, 7253, 3,
     "0f16879480d7214d857d4ddc4dba9acf8d904995656dde40f4cc1c748ccb8b42"),
]


@pytest.mark.parametrize(
    "x_lo, x, y, heading_deg, controller, k2, steps, phases, digest",
    TRAJECTORIES,
    ids=["far_w", "far_s", "far_n", "stock_-20.882", "stock_39.118", "stock_129.118", "far_w_blended"],
)
def test_trajectory_bytes_unchanged(x_lo, x, y, heading_deg, controller, k2, steps, phases, digest):
    state = VehicleState(x, y, math.radians(heading_deg), 5.0)
    run = run_mission(sinusoid(x_lo), state, MissionConfig(controller=controller, k2=k2))
    assert not run.timed_out
    assert (len(run), len(set(run.phase))) == (steps, phases)
    assert trajectory_digest(run) == digest


def test_fixed_gain_look_ahead_only_trajectory_unchanged():
    # The proposed law at fixed gains (2.5, 0), which the tick evaluates as
    # its look-ahead term alone, recorded before that shortcut existed.
    run = run_mission(
        sinusoid(0.0), VehicleState(-50.0, 20.0, 0.0, 5.0), MissionConfig(controller="proposed", k1=2.5, k2=0.0)
    )
    assert not run.timed_out
    assert (len(run), len(set(run.phase))) == (7241, 3)
    assert trajectory_digest(run) == "ce07ff31524942d5a5eee7b992a1441b4650b90a747343d19c898e32cfed6e0b"


# ----------------------------------------------------------------------
# References in the original arithmetic
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def tables(path):
    px, py, tx, ty, kappa = path.sample_table()
    return px, py, px.tolist(), py.tolist(), tx.tolist(), ty.tolist(), kappa.tolist()


def ref_point_at_fraction(path, j, f):
    _, _, pxl, pyl, txl, tyl, kl = tables(path)
    x = pxl[j] + (pxl[j + 1] - pxl[j]) * f
    y = pyl[j] + (pyl[j + 1] - pyl[j]) * f
    tx = txl[j] + (txl[j + 1] - txl[j]) * f
    ty = tyl[j] + (tyl[j + 1] - tyl[j]) * f
    tn = math.hypot(tx, ty)
    if tn == 0.0:
        tx, ty = txl[j], tyl[j]
    else:
        tx, ty = tx / tn, ty / tn
    k = kl[j] + (kl[j + 1] - kl[j]) * f
    return PathPoint((j + f) * path.spacing, (x, y), (tx, ty), k)


def ref_project(path, p, s_hint=None, window=25.0):
    pxa, pya, pxl, pyl, *_ = tables(path)
    n, ds, total = pxa.size, path.spacing, path.total_length
    px, py = float(p[0]), float(p[1])
    if s_hint is None:
        lo_s = 0.0
        i0 = int(np.argmin((pxa - px) ** 2 + (pya - py) ** 2))
    else:
        lo_s = min(max(float(s_hint) - 1.0, 0.0), total)
        hi_s = min(float(s_hint) + window, total)
        ilo = int(lo_s / ds)
        ihi = min(int(hi_s / ds) + 2, n)
        seg = slice(ilo, max(ihi, ilo + 2))
        i0 = ilo + int(np.argmin((pxa[seg] - px) ** 2 + (pya[seg] - py) ** 2))
    j_min = min(int(lo_s / ds), n - 2)
    best = None
    for j in range(max(i0 - 1, j_min), min(i0 + 1, n - 1)):
        ax, ay = pxl[j], pyl[j]
        dx, dy = pxl[j + 1] - ax, pyl[j + 1] - ay
        seg2 = dx * dx + dy * dy
        u = ((px - ax) * dx + (py - ay) * dy) / max(seg2, 1e-300)
        u_lo = 0.0
        if j == j_min and lo_s > 0.0:
            u_lo = lo_s / ds - j
        u = min(max(u, u_lo), 1.0)
        cx, cy = ax + u * dx, ay + u * dy
        dd = (px - cx) ** 2 + (py - cy) ** 2
        if best is None or dd < best[0]:
            best = (dd, j, u)
    return ref_point_at_fraction(path, best[1], best[2]), math.sqrt(best[0])


def ref_lookahead(path, p, s_min, lookahead_dist):
    _, _, pxl, pyl, *_ = tables(path)
    n, ds, total = len(pxl), path.spacing, path.total_length
    px, py = float(p[0]), float(p[1])
    s0 = min(max(float(s_min), 0.0), total)
    j = min(int(s0 / ds), n - 2)
    r2 = lookahead_dist * lookahead_dist
    eps = 1e-9
    last = n - 1
    while j < last:
        ax, ay = pxl[j], pyl[j]
        rx, ry = ax - px, ay - py
        skip = abs(math.hypot(rx, ry) - lookahead_dist) / path.max_chord - 1.0
        if skip >= last - j:
            break
        if skip >= 1.0:
            j += int(skip)
            continue
        dx, dy = pxl[j + 1] - ax, pyl[j + 1] - ay
        a = dx * dx + dy * dy
        b = rx * dx + ry * dy
        c = rx * rx + ry * ry - r2
        disc = b * b - a * c
        if a > 0.0 and disc >= 0.0:
            sq = math.sqrt(disc)
            u_lo = -eps
            if j * ds < s0:
                u_lo = (s0 - j * ds) / ds
            for u in ((-b - sq) / a, (-b + sq) / a):
                if u_lo < u <= 1.0 + eps:
                    return LookaheadResult(ref_point_at_fraction(path, j, min(max(u, 0.0), 1.0)))
        j += 1
    ex, ey = pxl[-1] - px, pyl[-1] - py
    if ex * ex + ey * ey < r2:
        return LookaheadResult(path.point_at(total), end_of_path=True)
    pp, _ = ref_project(path, p, s_hint=s0, window=total)
    return LookaheadResult(pp, fallback=True)


def ref_baseline_step(state, path, s_min, lookahead_dist):
    la = ref_lookahead(path, state.position, s_min, lookahead_dist)
    p2 = la.point.position
    d12 = math.hypot(p2[0] - state.x, p2[1] - state.y)
    if d12 == 0.0:
        return 0.0, la
    return latax_l1(state, p2, max(d12, MIN_TARGET_DIST)), la


def ref_arc(state, tx, ty):
    dx, dy = tx - state.x, ty - state.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        return 0.0
    ang = signed_angle(heading_vector(state.heading), (dx, dy))
    return latax_toward(state.speed, ang, max(d, MIN_TARGET_DIST))


def ref_circle_aim(state, circle, lookahead_dist):
    big_r = circle.radius
    chord = lookahead_dist
    if chord > 2.0 * big_r:
        chord = 1.8 * big_r
    dtheta = 2.0 * math.asin(chord / (2.0 * big_r))
    s = 1.0 if circle.sense == SENSE_ANTICLOCKWISE else -1.0
    theta = circle.angle_of(state.position) + s * dtheta
    return circle.center[0] + big_r * math.cos(theta), circle.center[1] + big_r * math.sin(theta)


def ref_step(state, a_cmd, dt, a_max=None):
    if a_max is not None:
        a_cmd = min(max(a_cmd, -a_max), a_max)
    v = state.speed
    omega = a_cmd / v
    psi = state.heading
    c1, s1 = math.cos(psi), math.sin(psi)
    psi2 = psi + 0.5 * dt * omega
    c2, s2 = math.cos(psi2), math.sin(psi2)
    psi4 = psi + dt * omega
    c4, s4 = math.cos(psi4), math.sin(psi4)
    x = state.x + v * dt / 6.0 * (c1 + 4.0 * c2 + c4)
    y = state.y + v * dt / 6.0 * (s1 + 4.0 * s2 + s4)
    return replace(state, x=x, y=y, heading=wrap_angle(psi4), t=state.t + dt)


# ----------------------------------------------------------------------
# Bitwise comparison
# ----------------------------------------------------------------------


def floats_of(value):
    """Every float in a result, flattened in field order."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, (tuple, list)):
        return [f for v in value for f in floats_of(v)]
    if isinstance(value, PathPoint):
        return floats_of((value.s, value.position, value.tangent, value.curvature))
    if isinstance(value, LookaheadResult):
        return floats_of(value.point) + [float(value.fallback), float(value.end_of_path)]
    if isinstance(value, VehicleState):
        return floats_of((value.x, value.y, value.heading, value.speed, value.t))
    raise TypeError(type(value))


def assert_same_bits(got, want):
    assert type(got) is type(want)
    g, w = floats_of(got), floats_of(want)
    assert all(isinstance(v, float) for v in g)
    assert struct.pack(f"<{len(g)}d", *g) == struct.pack(f"<{len(w)}d", *w), (got, want)


# ----------------------------------------------------------------------
# Property test
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def property_path(kind):
    if kind == "sinusoid":
        return make_sinusoid_path(0.0, 150.0)
    if kind == "circle":
        return make_circle_path((3.0, -2.0), 12.0, "clockwise", 0.7, 1.5)
    return make_polyline_path([[0, 0], [15, 8], [30, -4], [42, 10], [40, 25], [20, 20]])


def random_queries(seed, count=40):
    """(arc-length fraction, x offset, y offset, hint offset) tuples.

    Drawn from a seeded generator rather than by Hypothesis, whose floats
    favour round values: Python's ``x ** 2`` and ``x * x`` differ on about
    0.1% of arbitrary floats and on none of the round ones.
    """
    rng = random.Random(seed)
    for _ in range(count):
        frac = rng.choice((0.0, 1.0)) if rng.random() < 0.1 else rng.random()
        yield frac, rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0), rng.uniform(-3.0, 30.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["sinusoid", "circle", "polyline"]),
    seed=st.integers(0, 2**32 - 1),
    lookahead=st.floats(0.5, 20.0),
)
def test_path_queries_match_reference_bits(kind, seed, lookahead):
    path = property_path(kind)
    rng = random.Random(~seed)
    for frac, ox, oy, dh in random_queries(seed):
        s = frac * path.total_length
        x, y = path.point_at(s).position
        p = (x + ox, y + oy)
        assert_same_bits(path.project(p), ref_project(path, p))
        assert_same_bits(path.project(p, s_hint=s + dh), ref_project(path, p, s_hint=s + dh))
        assert_same_bits(path.lookahead_point(p, s + dh, lookahead), ref_lookahead(path, p, s + dh, lookahead))
        state = VehicleState(p[0], p[1], rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 30.0))
        assert_same_bits(
            baseline_step(state, path, s + dh, lookahead), ref_baseline_step(state, path, s + dh, lookahead)
        )


SPECIAL_HEADINGS = [0.0, -0.0, math.pi, -math.pi, 1e-17, -1e-17, -1e-300, math.nextafter(-math.pi, 0.0)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_midcourse_commands_match_reference_bits(seed):
    rng = random.Random(seed)
    for _ in range(25):
        heading = rng.choice(SPECIAL_HEADINGS) if rng.random() < 0.2 else rng.uniform(-math.pi, math.pi)
        state = VehicleState(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0), heading, rng.uniform(0.5, 30.0))
        # The aim point: the vehicle itself, inside the distance floor, or anywhere.
        u = rng.random()
        if u < 0.1:
            w = (state.x, state.y)
        elif u < 0.3:
            w = (state.x + rng.uniform(-0.1, 0.1), state.y + rng.uniform(-0.1, 0.1))
        else:
            w = (rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
        assert_same_bits(arc_command(state, *w), ref_arc(state, *w))
        assert_same_bits(midcourse_command(state, ContactSolution(w, 1.0, 0.0, True, "external")), ref_arc(state, *w))
        circle = InitiationCircle(
            (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)),
            rng.uniform(1.0, 30.0),
            rng.choice((SENSE_ANTICLOCKWISE, SENSE_CLOCKWISE)),
        )
        lookahead = rng.uniform(0.5, 70.0)  # chords past the diameter are clamped
        assert_same_bits(
            circle_follow_command(state, circle, lookahead), ref_arc(state, *ref_circle_aim(state, circle, lookahead))
        )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), a_max=st.one_of(st.none(), st.floats(0.1, 30.0)))
def test_vehicle_step_matches_reference_bits(seed, a_max):
    rng = random.Random(seed)
    for _ in range(25):
        heading = rng.choice(SPECIAL_HEADINGS) if rng.random() < 0.2 else rng.uniform(-math.pi, math.pi)
        a_cmd = rng.choice((0.0, -0.0)) if rng.random() < 0.1 else rng.uniform(-50.0, 50.0)
        state = VehicleState(
            rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3), heading, rng.uniform(0.1, 50.0), rng.uniform(0.0, 1e3)
        )
        dt = rng.uniform(1e-4, 0.5)
        assert_same_bits(step(state, a_cmd, dt, a_max), ref_step(state, a_cmd, dt, a_max))
