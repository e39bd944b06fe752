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
    make_line_path,
    make_polyline_path,
    make_sinusoid_path,
)

from path_tables import corner_table

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
    u_lo = np.where(j == j0, s0 / ds - j0, -EPS)
    hit1 = ok & (u1 > u_lo) & (u1 <= 1.0 + EPS)
    hit2 = ok & (u2 > u_lo) & (u2 <= 1.0 + EPS)
    if (hit1 | hit2).any():
        k = int(np.argmax(hit1 | hit2))
        u = u1[k] if hit1[k] else u2[k]
        return (j0 + k + min(max(float(u), 0.0), 1.0)) * ds, False, False
    ex, ey = px[-1] - p[0], py[-1] - p[1]
    if ex * ex + ey * ey < radius * radius:
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


BATCH_PATHS = {
    "sinusoid": make_sinusoid_path(0.0, 150.0),
    "circle": make_circle_path((0.0, 0.0), 20.0, turns=1.5),
    "polyline": make_polyline_path([(0, 0), (10, 0), (10, 10), (0, 10), (0, 20)], 0.5),
    "line": make_line_path((0.0, 0.0), (1.0, 0.0), 100.0),
    "corner": corner_table(),
}


@pytest.mark.parametrize("radius", [3.0, 10.0])
@pytest.mark.parametrize("kind", sorted(BATCH_PATHS))
def test_lookahead_many_matches_scalar_bitwise(kind, radius):
    # Seeded states: half within 1.5 look-ahead distances of the path
    # (crossings and ends), 200 whose circle passes within 1e-7 samples of a
    # table vertex just past s_lb (seam roots), 100 with s_lb exactly on a
    # vertex and the circle through it, 100 hard states of the fallback
    # projection, the rest in a box 60 m around the path (mostly fallbacks).
    path = BATCH_PATHS[kind]
    px, py, *_ = path.sample_table()
    rng = np.random.default_rng(7)
    m = 2000
    s_lb = rng.uniform(0.0, path.total_length, m)
    x = rng.uniform(px.min() - 60.0, px.max() + 60.0, m)
    y = rng.uniform(py.min() - 60.0, py.max() + 60.0, m)
    for i in range(m // 2):
        pp = path.point_at(s_lb[i] + rng.uniform(-radius, 2.0 * radius))
        off = rng.uniform(-1.5 * radius, 1.5 * radius)
        x[i], y[i] = pp.position[0] - off * pp.tangent[1], pp.position[1] + off * pp.tangent[0]
    for i in range(m // 2, m // 2 + 200):
        v = int(rng.integers(1, px.size - 1))
        theta, r = rng.uniform(-math.pi, math.pi), radius + path.spacing * rng.uniform(-1e-7, 1e-7)
        x[i], y[i] = px[v] - r * math.cos(theta), py[v] - r * math.sin(theta)
        s_lb[i] = (v - rng.uniform(0.0, 0.5)) * path.spacing
    h = m // 2 + 200
    v = rng.integers(0, px.size - 1, 100)
    theta = rng.uniform(-math.pi, math.pi, 100)
    x[h : h + 100], y[h : h + 100] = px[v] - radius * np.cos(theta), py[v] - radius * np.sin(theta)
    s_lb[h : h + 100] = v * path.spacing
    # Exact ties: the circle path's centre, and points far inside the corner table's corner.
    h += 100
    x[h : h + 20], y[h : h + 20] = 0.0, 0.0
    r = radius * rng.uniform(0.8, 2.0, (2, 40))
    x[h + 20 : h + 60], y[h + 20 : h + 60] = 2.0 + r[0], -r[1]
    s_lb[h + 40 : h + 60] = 3.0  # guard at the coincident vertices of the table
    # Near ties within 1e-18 for the projection: points 1e-10 m from a sample, guard behind it.
    # The circle around a point on the path meets it, so these rows cross or end.
    k = rng.integers(1, px.size - 1, 40)
    x[h + 60 : h + 100], y[h + 60 : h + 100] = px[k] + rng.normal(0.0, 1e-10, 40), py[k] + rng.normal(0.0, 1e-10, 40)
    s_lb[h + 60 : h + 100] = k * path.spacing * rng.uniform(0.0, 1.0, 40)
    s, end_rows, fallback = path.lookahead_many(np.array((x, y)), s_lb, radius)
    ended, fell = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    ended[end_rows] = True
    points = np.full((5, m), np.nan)
    if fallback is not None:
        fell[fallback[0]] = True
        points[:, fallback[0]] = fallback[1]
    for i in range(m):
        la = path.lookahead_point((x[i], y[i]), s_lb[i], radius)
        assert (la.end_of_path, la.fallback) == (ended[i], fell[i]), (kind, i)
        assert s[i] == la.point.s, (kind, i)
        if la.fallback:
            pp = la.point
            got = ((points[0, i], points[1, i]), (points[2, i], points[3, i]), points[4, i])
            assert got == (pp.position, pp.tangent, pp.curvature), (kind, i)
    assert ended.any() and fell.any() and not (ended | fell).all()


def test_lookahead_many_vertex_start_matches_scalar():
    # s_min on a table vertex with the circle through that vertex: the root
    # at s_min lies behind the progress, and both forms take the one ahead.
    path = make_line_path((0.0, 0.0), (1.0, 0.0), 200.0)
    la = path.lookahead_point((10.0, 0.0), 0.0, 10.0)
    s, end_rows, fallback = path.lookahead_many(np.array([[10.0], [0.0]]), np.array([0.0]), 10.0)
    assert la.point.s == s[0] == 20.0
    assert not (la.fallback or la.end_of_path) and end_rows.size == 0 and fallback is None


def test_lookahead_many_ends_rows_without_the_scalar_query(monkeypatch):
    # Rows without a crossing whose path end lies inside the circle end in
    # the batched code; only the row whose crossing lies past the first
    # chunk takes the scalar query.
    lookahead_point = ReferencePath.lookahead_point

    def scalar(self, p, s_min, lookahead_dist):
        if p != (50.0, 0.0):
            raise AssertionError(f"scalar look-ahead called for {p}")
        return lookahead_point(self, p, s_min, lookahead_dist)

    monkeypatch.setattr(ReferencePath, "lookahead_point", scalar)
    path = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    x, y = np.array([50.0, 95.0, 97.0, 99.5]), np.array([0.0, 0.0, 1.0, -2.0])
    s, end_rows, fallback = path.lookahead_many(np.array((x, y)), x.copy(), 10.0)
    assert fallback is None
    assert end_rows.tolist() == [1, 2, 3]
    assert s.tolist() == [60.0] + [path.total_length] * 3
