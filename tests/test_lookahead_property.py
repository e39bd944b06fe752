"""Property test: the look-ahead scan against a brute-force reference.

The reference solves the circle/segment root on every segment past
``s_min`` at once with numpy, with no skipping, and takes the first one.
It shares only the root formula, the acceptance band and the clamp with
``ReferencePath.lookahead_point``, so a segment that the scan's skip bound
wrongly jumps over shows up as a different arc length.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfollow.path import (
    ReferencePath,
    make_circle_path,
    make_polyline_path,
    make_sinusoid_path,
)

EPS = 1e-9


def reference_lookahead(path, p, s_min, radius):
    """(s, fallback, end_of_path) of the first crossing past ``s_min``."""
    px, py, *_ = path.sample_table()
    ds = path.spacing
    s0 = min(max(s_min, 0.0), path.total_length)
    j0 = min(int(s0 / ds), px.size - 2)
    j = np.arange(j0, px.size - 1)
    ax, ay = px[j0:-1], py[j0:-1]
    dx, dy = px[j0 + 1 :] - ax, py[j0 + 1 :] - ay
    rx, ry = ax - p[0], ay - p[1]
    a = dx * dx + dy * dy
    b = rx * dx + ry * dy
    c = rx * rx + ry * ry - radius * radius
    disc = b * b - a * c
    ok = (a > 0.0) & (disc >= 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    sa = np.where(ok, a, 1.0)
    u1, u2 = (-b - sq) / sa, (-b + sq) / sa
    u_lo = np.where(j * ds < s0, (s0 - j * ds) / ds, -EPS)
    hit1 = ok & (u1 > u_lo) & (u1 <= 1.0 + EPS)
    hit2 = ok & (u2 > u_lo) & (u2 <= 1.0 + EPS)
    if (hit1 | hit2).any():
        k = int(np.argmax(hit1 | hit2))
        u = u1[k] if hit1[k] else u2[k]
        return (j0 + k + min(max(float(u), 0.0), 1.0)) * ds, False, False
    if math.hypot(px[-1] - p[0], py[-1] - p[1]) < radius:
        return path.point_at(path.total_length).s, False, True
    pp, _ = path.project(p, s_hint=s0, window=path.total_length)
    return pp.s, True, False


def sample_table_path(points, spacing):
    """ReferencePath built straight from vertices, so chords are irregular."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    return ReferencePath(pts, np.tile([1.0, 0.0], (n, 1)), np.zeros(n), spacing)


# Vertices on a 0.1 m grid: projection and the spline fit assume chords far
# above rounding noise, which a table from the path constructors always has.
coord = st.integers(-300, 300).map(lambda v: v / 10.0)
spacing = st.floats(0.05, 1.0)


@st.composite
def paths(draw):
    kind = draw(st.sampled_from(["sinusoid", "circle", "polyline", "table"]))
    if kind == "sinusoid":
        x_lo = draw(st.floats(-40.0, 40.0))
        return make_sinusoid_path(x_lo, x_lo + draw(st.floats(5.0, 60.0)), draw(spacing))
    if kind == "circle":
        return make_circle_path(
            (draw(coord), draw(coord)),
            draw(st.floats(0.5, 30.0)),
            draw(st.sampled_from(["anticlockwise", "clockwise"])),
            draw(st.floats(-math.pi, math.pi)),
            draw(st.floats(0.2, 2.5)),
            draw(spacing),
        )
    pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8, unique=True))
    if kind == "polyline":
        return make_polyline_path(pts, draw(spacing))
    return sample_table_path(pts, draw(spacing))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    path=paths(),
    s_frac=st.floats(0.0, 1.0),
    off=st.floats(-3.0, 3.0),
    along=st.floats(-3.0, 3.0),
    radius=st.floats(0.2, 30.0),
    s_min_frac=st.floats(-0.1, 1.1),
)
def test_lookahead_matches_brute_force(path, s_frac, off, along, radius, s_min_frac):
    # A point up to about 3 L1 off the path, on either side and along it.
    pp = path.point_at(s_frac * path.total_length)
    tx, ty = pp.tangent
    p = (
        pp.position[0] + radius * (along * tx - off * ty),
        pp.position[1] + radius * (along * ty + off * tx),
    )
    s_min = s_min_frac * path.total_length

    res = path.lookahead_point(p, s_min, radius)

    assert (res.point.s, res.fallback, res.end_of_path) == reference_lookahead(path, p, s_min, radius)
    if not (res.fallback or res.end_of_path):
        d = math.hypot(res.point.position[0] - p[0], res.point.position[1] - p[1])
        assert abs(d - radius) <= 1e-9


def test_lookahead_steps_over_repeated_samples():
    # Zero-length segments inside a table whose longest chord is positive.
    path = sample_table_path([(0, 0), (1, 0), (1, 0), (1, 0), (2, 0), (3, 0), (3, 0), (4, 0)], 1.0)
    for x, radius in ((0.0, 2.5), (0.0, 1.0), (-0.5, 3.5), (1.0, 2.0)):
        res = path.lookahead_point((x, 0.5), 0.0, radius)
        assert (res.point.s, res.fallback, res.end_of_path) == reference_lookahead(path, (x, 0.5), 0.0, radius)
        assert not (res.fallback or res.end_of_path)


def test_lookahead_with_subnormal_chords():
    # gap / max_chord overflows to infinity; the scan ends instead of skipping.
    path = sample_table_path([(0.0, 0.0), (5e-324, 0.0), (1e-323, 0.0)], 0.05)
    res = path.lookahead_point((0.0, 0.5), 0.0, 1.0)
    assert res.end_of_path and not res.fallback


def test_coincident_samples_rejected():
    # All samples at one point: no chord to bound the scan's skip by.
    with pytest.raises(ValueError, match="coincide"):
        sample_table_path([(3.0, 4.0)] * 5, 0.05)
