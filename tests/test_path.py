import dataclasses
import hashlib
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfollow import path as path_module
from pathfollow.cli import main
from pathfollow.path import (
    MAX_RADIUS,
    MAX_SAMPLES,
    LookaheadResult,
    PathPoint,
    ReferencePath,
    curvature_radius,
    make_circle_path,
    make_line_path,
    make_polyline_path,
    make_sinusoid_path,
)

from path_tables import kinked_table, spike_table


def bench_y(x):
    return 10.0 * math.sin(0.078 * x) + 20.0 * math.cos(0.082 * x)


@pytest.fixture(scope="module")
def sinusoid():
    return make_sinusoid_path(0.0, 150.0)


# ----------------------------------------------------------------------
# Value records
# ----------------------------------------------------------------------


def test_path_point_and_lookahead_result_are_slotted_value_records(sinusoid):
    assert list(inspect.signature(PathPoint).parameters) == ["s", "position", "tangent", "curvature"]
    pp = PathPoint(1.0, (2.0, 3.0), (1.0, 0.0), 0.1)
    assert pp == PathPoint(s=1.0, position=(2.0, 3.0), tangent=(1.0, 0.0), curvature=0.1)
    assert pp != PathPoint(1.0, (2.0, 3.0), (1.0, 0.0), 0.2)
    assert pp != (1.0, (2.0, 3.0), (1.0, 0.0), 0.1)
    assert dataclasses.replace(pp, s=4.0) == PathPoint(4.0, (2.0, 3.0), (1.0, 0.0), 0.1)
    la = LookaheadResult(pp)
    assert (la.fallback, la.end_of_path) == (False, False)
    assert la == LookaheadResult(point=pp, fallback=False, end_of_path=False)
    assert dataclasses.replace(la, end_of_path=True) != la
    # Slots without an instance __dict__: a frozen dataclass took ~3-4x as long to build.
    assert PathPoint.__slots__ == ("s", "position", "tangent", "curvature")
    assert LookaheadResult.__slots__ == ("point", "fallback", "end_of_path")
    assert not hasattr(pp, "__dict__") and not hasattr(la, "__dict__")
    # Every query builds fresh records, equal for equal inputs.
    a, b = sinusoid.point_at(12.3), sinusoid.point_at(12.3)
    assert a == b and a is not b
    (p1, d1), (p2, d2) = sinusoid.project((10.0, 5.0)), sinusoid.project((10.0, 5.0))
    assert (p1, d1) == (p2, d2) and p1 is not p2
    la1, la2 = (sinusoid.lookahead_point((10.0, 5.0), 0.0, 10.0) for _ in range(2))
    assert la1 == la2 and la1 is not la2 and la1.point is not la2.point


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------


def test_sinusoid_start_point(sinusoid):
    assert sinusoid.point_at(0.0).position == pytest.approx((0.0, 20.0), abs=1e-9)


def test_sinusoid_start_tangent_matches_finite_difference(sinusoid):
    # Independent slope estimate by central difference on the formula.
    h = 1e-6
    slope = (bench_y(h) - bench_y(-h)) / (2 * h)
    tx, ty = sinusoid.point_at(0.0).tangent
    assert ty / tx == pytest.approx(slope, abs=1e-6)
    assert math.degrees(math.atan2(ty, tx)) == pytest.approx(37.954, abs=1e-2)


def test_sinusoid_start_curvature_matches_central_difference(sinusoid):
    h = 1e-4
    yp = (bench_y(h) - bench_y(-h)) / (2 * h)
    ypp = (bench_y(h) - 2 * bench_y(0.0) + bench_y(-h)) / (h * h)
    r_fd = (1 + yp * yp) ** 1.5 / abs(ypp)
    r = curvature_radius(sinusoid.point_at(0.0))
    assert r == pytest.approx(r_fd, rel=1e-4)
    assert r == pytest.approx(15.168, abs=2e-3)


def test_sinusoid_empty_domain_rejected():
    with pytest.raises(ValueError, match="empty domain"):
        make_sinusoid_path(5.0, 5.0)


def test_path_table_invariants(sinusoid):
    px, py, tx, ty, _ = sinusoid.sample_table()
    # Unit tangent at every sample.
    assert np.max(np.abs(np.hypot(tx, ty) - 1.0)) < 1e-6
    # Arc-length parameterization: sample-to-sample chord close to spacing.
    chord = np.hypot(np.diff(px), np.diff(py))
    assert np.max(np.abs(chord / sinusoid.spacing - 1.0)) < 1e-4
    # On-curve samples.
    yy = 10.0 * np.sin(0.078 * px) + 20.0 * np.cos(0.082 * px)
    assert np.max(np.abs(py - yy)) < 1e-6


def _table_sha256(path):
    return hashlib.sha256(np.ascontiguousarray(path._table).tobytes()).hexdigest()


def _seeded_polylines():
    # Random walks of 3-39 points; the 30 m steps give fine grids of up to 98,000 points, 12 slices.
    rng = np.random.default_rng(18)
    for _ in range(8):
        yield np.cumsum(rng.normal(scale=rng.choice([3.0, 30.0]), size=(rng.integers(3, 40), 2)), axis=0)


# sha256 of the sample tables, recorded before the arc-length trapezoid was sliced.
SINUSOID_TABLES = [
    ((0.0, 150.0), "5f0577fa632afc62127561773c1e205758f454b69b0b2d68138e53a42d686bc0"),
    ((-15.0, 150.0), "cf8e17435387cc3ea65cb54d684ac12c70500f65948649afa6d46b7e48ddf024"),
    ((-3.7, 42.1, 0.07), "d7730a4b57114496d8f49b76d2b16b3ab25a810a6faf6da93a5cd1e8a2dba660"),
    ((0.0, 400.0), "410850d1e7a43fc513612d59cc6f8fba5095d3e9b64dae1a963ace70f0a8d59c"),
]
POLYLINE_TABLES = [
    "352fbf77f7cc948e1eefa11eb3eadeebbf0b861c5ea77171a4e51f9b3ae3e394",
    "8e9a6a5e541b79c4bf22fd44f8f52859fd4240676c85ad532233c92f6ffef211",
    "1462166692519f48bb8641ca8313cb8a06837d4b859c65af2166702c1a6f6f42",
    "ec47c0da5bcfbd82d0365ae9ef693bcf963d2854f44940b5cb3ec9b7dcbb6e27",
    "fa49d26c3a2a9d5d98ebf8d41684b10577bd14ce33ef1530141b4fd90766e628",
    "33a5b080d07d1b2996aafc771d97a7de509249d3f52436cf65b406129bc17ce7",
    "cdc636bf1d4a19d5530d91fb77a4e1511e038a70a4096c37db459929b337991b",
    "782163467a2e847eb259a940a6db0b2e7a433c25842b54931b9a20a12c63f2c1",
]


@pytest.mark.parametrize("args, digest", SINUSOID_TABLES, ids=[str(a) for a, _ in SINUSOID_TABLES])
def test_sinusoid_tables_are_unchanged(args, digest):
    assert _table_sha256(make_sinusoid_path(*args)) == digest


def test_polyline_tables_are_unchanged():
    assert [_table_sha256(make_polyline_path(pts)) for pts in _seeded_polylines()] == POLYLINE_TABLES


def _whole_grid_path(t_fine, curve, spacing):
    """The arc-length table built with one trapezoid and one cumsum over the whole fine grid."""
    speed = np.hypot(*curve(t_fine)[1])
    seg = 0.5 * (speed[1:] + speed[:-1]) * np.diff(t_fine)
    s_fine = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(s_fine[-1])
    n = max(int(math.ceil(total / spacing)) + 1, 2)
    ds = total / (n - 1)
    (x, y), (dx, dy), (ddx, ddy) = curve(np.interp(ds * np.arange(n), s_fine, t_fine))
    h = np.hypot(dx, dy)
    kappa = (dx * ddy - dy * ddx) / np.power(dx * dx + dy * dy, 1.5)
    return ReferencePath(np.column_stack([x, y]), np.column_stack([dx / h, dy / h]), kappa, ds)


def test_sliced_arc_length_matches_the_whole_grid_at_slice_boundaries(monkeypatch):
    # Fine grids of the 16-point minimum, one slice, one slice and one or two points, and two
    # slices and a point; the table spacing is near the fine step, so nearly every arc length counts.
    grids = []
    build = path_module._from_parametric
    monkeypatch.setattr(
        path_module, "_from_parametric", lambda t, curve, ds: grids.append((t, curve, ds)) or build(t, curve, ds)
    )
    make_sinusoid_path(-15.0, 150.0)
    make_polyline_path(next(_seeded_polylines()))
    assert path_module._SLICE == 8192
    for (t_fine, curve, ds), spacing in zip(grids, (0.002, 0.02)):
        assert t_fine.size > 16385
        for m in (16, 8192, 8193, 8194, 16385):
            got = build(t_fine[:m], curve, spacing)
            want = _whole_grid_path(t_fine[:m], curve, spacing)
            assert got._table.tobytes() == want._table.tobytes(), m


def test_long_sinusoid_builds_in_bounded_memory():
    # The fine grid and its arc lengths are 8 MB each; the whole-grid trapezoid peaked at 68.6 MB.
    tracemalloc.start()
    try:
        make_sinusoid_path(0.0, 999.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


# ----------------------------------------------------------------------
# Projection
# ----------------------------------------------------------------------


def test_project_perpendicular_foot():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    pp, d = line.project((3.0, 4.0))
    assert pp.position == pytest.approx((3.0, 0.0), abs=1e-9)
    assert d == pytest.approx(4.0, abs=1e-9)


def test_project_radial_on_circle():
    circ = make_circle_path((0.0, 0.0), 10.0, turns=1.0)
    pp, d = circ.project((20.0, 0.0))
    assert pp.position == pytest.approx((10.0, 0.0), abs=1e-6)
    assert d == pytest.approx(10.0, abs=1e-6)


def test_project_point_on_path_is_identity(sinusoid):
    pp0 = sinusoid.point_at(42.3)
    pp, d = sinusoid.project(pp0.position)
    assert d < 1e-9
    assert pp.s == pytest.approx(pp0.s, abs=1e-6)


def test_project_is_idempotent(sinusoid):
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = (rng.uniform(-10, 160), rng.uniform(-40, 40))
        pp, _ = sinusoid.project(p)
        pp2, d2 = sinusoid.project(pp.position)
        assert d2 < 1e-9
        assert pp2.s == pytest.approx(pp.s, abs=1e-6)


def test_project_hint_never_backtracks_past_guard(sinusoid):
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = (rng.uniform(-10, 160), rng.uniform(-40, 40))
        hint = float(rng.uniform(0, sinusoid.total_length))
        pp, _ = sinusoid.project(p, s_hint=hint)
        assert pp.s >= hint - 1.0 - 1e-9


PROJECT_PATHS = {
    "sinusoid": make_sinusoid_path(0.0, 150.0),
    "circle": make_circle_path((5.0, -3.0), 12.0, "clockwise", 1.0, turns=0.8),
    "polyline": make_polyline_path([(0, 0), (8, 3), (15, -2), (25, 4), (33, 0)], 0.2),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(PROJECT_PATHS)),
    u=st.floats(-0.3, 1.3),
    v=st.floats(-0.3, 1.3),
    hint_frac=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_project_property_idempotent_and_guarded(kind, u, v, hint_frac):
    # Points anywhere around the path's bounding box, with or without a hint.
    path = PROJECT_PATHS[kind]
    px, py, *_ = path.sample_table()
    p = (px.min() + u * (px.max() - px.min()), py.min() + v * (py.max() - py.min()))
    hint = None if hint_frac is None else hint_frac * path.total_length
    pp, _ = path.project(p, s_hint=hint)
    if hint is not None:
        # Forward guard, up to the rounding of (segment + fraction) * spacing.
        assert pp.s >= hint - 1.0 - 1e-9
    pp2, d = path.project(pp.position, s_hint=None if hint is None else pp.s)
    assert d < 1e-9
    assert pp2.s == pytest.approx(pp.s, abs=1e-9)


def stacked_vertex_table():
    # Five coincident vertices and one more 1 m on: every segment the
    # projection refines around the nearest vertex has zero length.
    n = 6
    positions = [(1.0, 0.0)] * 5 + [(2.0, 0.0)]
    return ReferencePath(positions, [(1.0, 0.0)] * n, np.zeros(n), 1.0)


@pytest.mark.parametrize(
    "positions, tangents, curvatures, spacing, message",
    [
        ([(0.0, 0.0)], [(1.0, 0.0)], [0.0], 1.0, "at least two samples"),
        ([(0.0, 0.0), (1.0, 0.0)], [(1.0, 0.0)], [0.0, 0.0], 1.0, "inconsistent sample table shapes"),
        ([(0.0, 0.0), (math.nan, 0.0)], [(1.0, 0.0)] * 2, [0.0, 0.0], 1.0, "non-finite path samples"),
        ([(0.0, 0.0), (1.0, 0.0)], [(1.0, 0.0), (0.0, 0.0)], [0.0, 0.0], 1.0, "zero tangent sample"),
        ([(0.0, 0.0), (1.0, 0.0)], [(1.0, 0.0)] * 2, [0.0, 0.0], 0.0, "spacing must be positive"),
        ([(0.0, 0.0), (1.0, 0.0)], [(1.0, 0.0)] * 2, [0.0, 0.0], math.nan, "spacing must be positive"),
        # The batched projection's window spans 1.5 m of samples: 1.5e9 of them at 1 nm.
        ([(0.0, 0.0), (1e-9, 0.0)], [(1.0, 0.0)] * 2, [0.0, 0.0], 1e-9, f"limit of {MAX_SAMPLES:,}"),
    ],
    ids=["one_sample", "shapes", "non_finite", "zero_tangent", "zero_spacing", "nan_spacing", "window"],
)
def test_reference_path_refuses_tables_it_cannot_query(positions, tangents, curvatures, spacing, message):
    with pytest.raises(ValueError, match=message):
        ReferencePath(np.array(positions), np.array(tangents), np.array(curvatures), spacing)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_circle_path((0.0, 0.0), 0.0), "radius must be positive"),
        (lambda: make_circle_path((0.0, 0.0), 5.0, sense="cw"), "unknown sense 'cw'"),
        (lambda: make_circle_path((0.0, 0.0), 5.0, turns=-1.0), "turns must be positive"),
        (lambda: make_line_path((0.0, 0.0), (1.0, 0.0), math.nan), "length must be positive"),
        (lambda: make_line_path((0.0, 0.0), (0.0, 0.0)), "degenerate direction"),
        # A curve that stands still: position (t, t), both derivatives zero.
        (lambda: path_module._from_parametric(np.linspace(0.0, 1.0, 16), lambda t: ((t, t), (0 * t,) * 2, (0 * t,) * 2),
                                              0.05), "zero length"),
    ],
    ids=["circle_radius", "circle_sense", "circle_turns", "line_length", "line_direction", "zero_length"],
)
def test_constructors_refuse_degenerate_shapes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("spacing", [0.0, -0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda spacing: make_line_path((0.0, 0.0), (1.0, 0.0), 10.0, spacing),
        lambda spacing: make_circle_path((0.0, 0.0), 5.0, spacing=spacing),
        lambda spacing: make_sinusoid_path(0.0, 10.0, spacing),
        lambda spacing: make_polyline_path([(0.0, 0.0), (5.0, 2.0), (10.0, 0.0)], spacing),
    ],
    ids=["line", "circle", "sinusoid", "polyline"],
)
def test_constructors_refuse_a_spacing_outside_zero_to_inf(build, spacing):
    # Refused before any grid is built: 0 divided by zero, -1 and inf built a two-sample path,
    # and a polyline said "inf samples" at 0 and "nan samples" at NaN.
    with pytest.raises(ValueError, match=rf"^spacing must be positive and finite, got {re.escape(repr(spacing))}$"):
        build(spacing)


@pytest.mark.parametrize("spacing, width", [(0.5, 32), (0.07, 32), (0.05, 32), (0.03, 51), (0.02, 76), (0.001, 1501)])
def test_batched_projection_window_reaches_half_a_metre_past_the_guard(spacing, width):
    # The fewest samples whose segments span the 1 m guard and 0.5 m more, and 32 at least,
    # which keeps every table at the default spacing or coarser as it was.
    path = make_line_path((0.0, 0.0), (1.0, 0.0), 3.0, spacing)
    assert path._wx.shape[1] == path._wseg.shape[1] == width
    assert (width - 1) * path.spacing >= 1.5 and (width == 32 or (width - 2) * path.spacing < 1.5)
    assert path._table.shape[1] == path._n + width - 1


def test_project_zero_length_segments_return_nearest_vertex():
    pp, d = stacked_vertex_table().project((1.0, 0.5))
    assert pp.position == (1.0, 0.0)
    assert d == 0.5


def test_lookahead_fallback_on_zero_length_segments():
    res = stacked_vertex_table().lookahead_point((1.0, 0.5), 0.0, 0.1)
    assert res.fallback and not res.end_of_path
    assert res.point.position == (1.0, 0.0)


def test_project_hint_past_path_end_returns_end(sinusoid):
    total = sinusoid.total_length
    end = sinusoid.point_at(total).position
    pp, d = sinusoid.project((end[0] + 3.0, end[1]), s_hint=total + 5.0)
    assert pp.s == pytest.approx(total, abs=1e-9)
    assert pp.position == pytest.approx(end, abs=1e-9)
    assert d == pytest.approx(math.dist((end[0] + 3.0, end[1]), end), abs=1e-9)


def test_project_and_lookahead_refuse_a_nan_arc_length_by_name(sinusoid):
    with pytest.raises(ValueError, match="s_hint is NaN"):
        sinusoid.project((1.0, 20.0), s_hint=math.nan)
    with pytest.raises(ValueError, match="s_min is NaN"):
        sinusoid.lookahead_point((1.0, 20.0), math.nan, 3.0)


def test_project_clamps_a_minus_infinite_hint_to_the_path_start(sinusoid):
    # As any hint a whole window before the start: the segments around the first two samples.
    p = (3.0, 25.0)
    pp, d = sinusoid.project(p, s_hint=-math.inf)
    assert (pp, d) == sinusoid.project(p, s_hint=-1e6)
    assert 0.0 <= pp.s <= 3.0 * sinusoid.spacing
    assert sinusoid.lookahead_point(p, -math.inf, 3.0) == sinusoid.lookahead_point(p, 0.0, 3.0)


@pytest.mark.parametrize("window", [math.nan, -1.0, -1e-300, -math.inf])
def test_project_refuses_a_nan_or_negative_window_by_name(sinusoid, window):
    with pytest.raises(ValueError, match="window must be non-negative"):
        sinusoid.project((1.0, 20.0), s_hint=20.0, window=window)


WALK_PATHS = {
    "sinusoid": PROJECT_PATHS["sinusoid"],
    "arc": make_circle_path((5.0, -3.0), 2.0, "clockwise", 1.0, turns=0.9),
    "line": make_line_path((0.0, 0.0), (1.0, 0.0), 40.0, 0.25),  # a grid of exact floats: ties on every bisector
    "hairpin": make_polyline_path([(0, 0), (20, 0), (21.5, 1.5), (20, 3), (0, 3)]),
    "kinked": make_polyline_path([(0, 0), (8, 0), (8.2, 6), (16, 6)]),
    "near_coincident": make_polyline_path([(0, 0), (10, 0), (10 + 1e-4, 1e-4), (20, 1)]),
}


@pytest.mark.parametrize("kind", ["sinusoid", "kinked"])
def test_project_accepts_a_window_from_zero_to_infinity(kind):
    # -inf + inf searches the whole path, as no hint does; the kinked path is short enough to walk.
    path = WALK_PATHS[kind]
    total = path.total_length
    for p in ((3.0, 25.0), (8.5, 3.0), (-4.0, -2.0)):
        assert path.project(p, s_hint=-math.inf, window=math.inf) == path.project(p)
        assert path.project(p, s_hint=5.0, window=math.inf) == path.project(p, s_hint=5.0, window=total)
        pp, _ = path.project(p, s_hint=5.0, window=0.0)
        assert 4.0 - 1e-9 <= pp.s <= 5.0 + 2.0 * path.spacing  # the guard, up to rounding


def _scanned(path, p, hint, window):
    """``project`` with the walk refused, so every window takes the numpy scan it falls back to."""
    path._walk_nearest = lambda *args: -1
    try:
        return path.project(p, s_hint=hint, window=window)
    finally:
        del path._walk_nearest


def _walked(path, p, hint, window):
    """``project``, with the walk's sample and the scan's over the same window, or None if it did not walk."""
    seen = [None]

    def spy(*args):
        seen[0] = ReferencePath._walk_nearest(path, *args), path._scan_nearest(*args[:4])
        return seen[0][0]

    path._walk_nearest = spy
    try:
        return path.project(p, s_hint=hint, window=window), seen[0]
    finally:
        del path._walk_nearest


def _check_walk(path, p, hint, window):
    """The walk's projection has the scan's bits, and the sample it found, if any, is the scan's."""
    (pp, d), samples = _walked(path, p, hint, window)
    qq, e = _scanned(path, p, hint, window)
    assert (pp.s, pp.position, pp.tangent, pp.curvature, d) == (qq.s, qq.position, qq.tangent, qq.curvature, e)
    if samples is not None and samples[0] >= 0:
        assert samples[0] == samples[1]
    return samples


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(WALK_PATHS)),
    frac=st.floats(0.0, 1.0),
    normal=st.floats(-20.0, 20.0),
    along=st.floats(-1.0, 1.0),
    hint_shift=st.floats(-5.0, 5.0),
    window=st.floats(0.5, 25.0),
)
def test_walked_projection_has_the_scans_bits(kind, frac, normal, along, hint_shift, window):
    # States up to 20 m off the path, hints from 5 m before its start to 5 m past its end.
    path = WALK_PATHS[kind]
    pp = path.point_at(frac * path.total_length)
    (x, y), (tx, ty) = pp.position, pp.tangent
    _check_walk(path, (x + along * tx - normal * ty, y + along * ty + normal * tx), pp.s + hint_shift, window)


@pytest.mark.parametrize("kind", sorted(WALK_PATHS))
def test_walk_finds_the_scans_sample_on_a_grid_of_states(kind):
    # Every 0.35 m along the path, up to 4 m off it either side, hinted at the foot: the hairpin's
    # and the kink's other legs lie within the window, a few metres across.
    path = WALK_PATHS[kind]
    walked = 0
    for s in np.arange(0.0, path.total_length, 0.35):
        pp = path.point_at(s)
        (x, y), (tx, ty) = pp.position, pp.tangent
        for normal in np.linspace(-4.0, 4.0, 17):
            samples = _check_walk(path, (x - normal * ty, y + normal * tx), s, 25.0)
            walked += samples is not None and samples[0] >= 0
    assert walked > 0


@pytest.mark.parametrize("kind", sorted(WALK_PATHS))
def test_walk_bounds_hold_at_the_corners_of_the_certified_box(kind):
    # A point at a corner of c's box, |q_t| = a and |q_n| = beta_c (a hair inside), is strictly nearer
    # x_c than every sample k of its reach with |k - c| >= 2, in the scan's float arithmetic.
    path = WALK_PATHS[kind]
    x, y, tx, ty, _ = (np.asarray(r) for r in path.sample_table())
    a, reach, beta = path._walk_a, path._walk_reach, path._betal
    shrink = 1.0 - 1e-12
    for c in range(0, x.size, 3):
        lo, hi = max(0, c - reach), min(x.size, c + reach + 1)
        far = np.abs(np.arange(lo, hi) - c) >= 2
        for qt, qn in ((a, beta[c]), (a, -beta[c]), (-a, beta[c]), (-a, -beta[c])):
            qt, qn = qt * shrink, qn * shrink
            dx, dy = x[lo:hi] - (x[c] + qt * tx[c] - qn * ty[c]), y[lo:hi] - (y[c] + qt * ty[c] + qn * tx[c])
            e = dx * dx + dy * dy
            assert not beta[c] > 0.0 or e[far].min() > e[c - lo], (c, qt, qn)


@pytest.mark.parametrize("hint", [0.0, 5.0, 9.6, 10.3, 10.9])
@pytest.mark.parametrize("y", [0.0, 0.7, -2.5])
def test_walk_breaks_ties_as_the_scan_does(hint, y):
    # (10.125, y) is as far from the sample at 10.0 as from the one at 10.25: the scan picks the first,
    # and the walk reaches the pair from either side.
    line = WALK_PATHS["line"]
    p = (10.125, y)
    (x0, _), (x1, _) = line.point_at(10.0).position, line.point_at(10.25).position
    assert (p[0] - x0) ** 2 == (p[0] - x1) ** 2
    walk, scan = _check_walk(line, p, hint, 25.0)
    assert walk == scan == 40


def exact_walk_bounds(path):
    """Per sample c, the least (|s|^2 / 2 - a |s|) / |s_n| over every sample k of the reach with |k - c| >= 2:
    the largest normal offset under which the walk's certificate holds, by brute force (-inf where none does)."""
    x, y, tx, ty, _ = (np.asarray(r) for r in path.sample_table())
    a, n = path._walk_a, x.size
    exact = np.full(n, np.inf)
    for o in range(2, min(path._walk_reach, n - 1) + 1):
        for c, k in ((slice(0, n - o), slice(o, n)), (slice(o, n), slice(0, n - o))):
            sx, sy = x[k] - x[c], y[k] - y[c]
            norm, sn = np.hypot(sx, sy), np.abs(sy * tx[c] - sx * ty[c])
            num = norm * (norm / 2.0 - a)
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = np.where(sn > 0.0, num / sn, np.where(num > 0.0, np.inf, -np.inf))
            np.minimum(exact[c], bound, out=exact[c])
    return exact


@pytest.mark.parametrize(
    "path",
    [
        WALK_PATHS["hairpin"],
        WALK_PATHS["kinked"],
        WALK_PATHS["arc"],
        make_line_path((0.0, 0.0), (3.0, 4.0), 30.0),
        kinked_table(3),
        kinked_table(8, spacing=0.2),
        spike_table(),
    ],
    ids=["hairpin", "kinked", "arc", "line", "kinked_table", "kinked_table_coarse", "spike"],
)
def test_walk_bounds_never_exceed_the_exact_bound(path):
    # The stored beta_c may only be more cautious than the exact one; where no offset works, it must refuse.
    # From sample 0 of the spike table, samples 32 .. 48 are one block of _walk_bounds: its end samples lie
    # 0.01 m off the line, the rest up to 0.41 m, which only the block's sagitta term covers (the exact bound
    # there is 0.73 m; without the sagitta beta_0 reads 2.3 m).
    beta, exact = np.array(path._betal), exact_walk_bounds(path)
    assert np.all((beta <= exact) | ((beta <= 0.0) & (exact <= 0.0)))
    assert np.any(beta > 0.0)


def test_walk_refuses_a_point_just_past_the_tangential_tolerance():
    # Samples along x with their stored tangents along y: a point straight above sample c is nearest c, with
    # q_t its height and q_n 0, so only the |q_t| <= a test decides.  a = 0.75 spacings = 0.1875 m exactly.
    n, ds = 21, 0.25
    path = ReferencePath([(ds * i, 0.0) for i in range(n)], [(0.0, 1.0)] * n, np.zeros(n), ds)
    a, c = path._walk_a, 10
    assert a == 0.1875 and path._betal[c] > 0.0
    assert path._walk_nearest(c * ds, a, 0, n, c * ds) == c
    assert path._walk_nearest(c * ds, math.nextafter(a, math.inf), 0, n, c * ds) == -1
    assert path._walk_nearest(c * ds, -math.nextafter(a, math.inf), 0, n, c * ds) == -1


def test_walk_answers_every_hinted_window_of_the_stock_baseline_run(tmp_path, monkeypatch):
    walks, windows = [], []
    walk, project = ReferencePath._walk_nearest, ReferencePath.project

    def spy_walk(self, *args):
        walks.append(walk(self, *args))
        return walks[-1]

    def spy_project(self, p, s_hint=None, window=25.0):
        if s_hint is not None and window <= 25.0:
            windows.append(window)
        return project(self, p, s_hint, window)

    monkeypatch.setattr(ReferencePath, "_walk_nearest", spy_walk)
    monkeypatch.setattr(ReferencePath, "project", spy_project)
    assert main(["run", "--controller", "baseline", "--out", str(tmp_path)]) == 0
    assert len(windows) > 4000
    assert len(walks) == len(windows)
    assert min(walks) >= 0


# ----------------------------------------------------------------------
# Look-ahead
# ----------------------------------------------------------------------


def test_lookahead_line_pythagoras():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    res = line.lookahead_point((0.0, 6.0), 0.0, 10.0)
    assert not res.fallback and not res.end_of_path
    assert res.point.position == pytest.approx((8.0, 0.0), abs=1e-9)


def test_lookahead_circle_sixty_degrees():
    # Chord relation: a chord of length L on a circle of radius R spans a
    # central angle 2*asin(L / (2R)); here 2*asin(0.5) = 60 degrees.
    circ = make_circle_path((0.0, 0.0), 10.0, turns=1.5)
    res = circ.lookahead_point((10.0, 0.0), 0.0, 10.0)
    span = 2.0 * math.asin(10.0 / 20.0)
    expected = (10.0 * math.cos(span), 10.0 * math.sin(span))
    assert res.point.position == pytest.approx(expected, abs=1e-3)
    assert res.point.s == pytest.approx(10.0 * span, abs=1e-3)


def test_lookahead_far_point_falls_back_to_projection():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    res = line.lookahead_point((30.0, 50.0), 0.0, 10.0)
    assert res.fallback and not res.end_of_path
    assert res.point.position == pytest.approx((30.0, 0.0), abs=1e-9)


@pytest.mark.parametrize("lookahead", [0.0, -1.0, math.nan])
def test_lookahead_refuses_a_non_positive_distance(sinusoid, lookahead):
    with pytest.raises(ValueError, match="look-ahead distance must be positive"):
        sinusoid.lookahead_point((0.0, 20.0), 0.0, lookahead)


def test_lookahead_end_of_path_flag():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    res = line.lookahead_point((98.0, 1.0), 95.0, 10.0)
    assert res.end_of_path
    assert res.point.position == pytest.approx((100.0, 0.0), abs=1e-9)


def test_lookahead_distance_invariant(sinusoid):
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(400):
        s_min = float(rng.uniform(0, sinusoid.total_length - 45.0))
        lk = float(rng.uniform(0.5, 20.0))
        # A pose within the look-ahead circle of a path point past s_min
        # guarantees a crossing exists ahead.
        anchor = sinusoid.point_at(s_min + float(rng.uniform(1.0, 15.0)))
        nx, ny = -anchor.tangent[1], anchor.tangent[0]
        off = float(rng.uniform(-0.7, 0.7)) * lk
        p = (anchor.position[0] + off * nx, anchor.position[1] + off * ny)
        res = sinusoid.lookahead_point(p, s_min, lk)
        if res.fallback or res.end_of_path:
            continue
        checked += 1
        d = math.hypot(res.point.position[0] - p[0], res.point.position[1] - p[1])
        assert abs(d - lk) < 1e-6
        assert res.point.s > s_min
    assert checked > 350


def test_chord_never_exceeds_arc(sinusoid):
    rng = np.random.default_rng(9)
    for _ in range(300):
        s1, s2 = sorted(rng.uniform(0, sinusoid.total_length, 2))
        a = sinusoid.point_at(float(s1)).position
        b = sinusoid.point_at(float(s2)).position
        assert math.hypot(b[0] - a[0], b[1] - a[1]) <= (s2 - s1) + 1e-9


# ----------------------------------------------------------------------
# Curvature radius
# ----------------------------------------------------------------------


def test_curvature_radius_straight_line_clamps_high():
    line = make_line_path((0.0, 0.0), (1.0, 1.0), 50.0)
    assert curvature_radius(line.point_at(10.0)) == MAX_RADIUS


def test_curvature_radius_circle_recovers_radius():
    for r in (1.0, 3.7, 10.0, 120.0, 1000.0):
        circ = make_circle_path((2.0, -3.0), r, turns=0.5 if r > 100 else 1.0)
        mid = circ.total_length / 2
        assert curvature_radius(circ.point_at(mid)) == pytest.approx(r, rel=1e-6)


def test_curvature_radius_sinusoid_start(sinusoid):
    assert curvature_radius(sinusoid.point_at(0.0)) == pytest.approx(15.168, abs=2e-3)


# ----------------------------------------------------------------------
# Polyline constructor
# ----------------------------------------------------------------------


def test_polyline_path_reproduces_circle_geometry():
    theta = np.linspace(0, math.pi, 200)
    pts = np.column_stack([10 * np.cos(theta), 10 * np.sin(theta)])
    path = make_polyline_path(pts)
    assert path.total_length == pytest.approx(math.pi * 10, rel=1e-3)
    mid = path.point_at(path.total_length / 2)
    assert math.hypot(*mid.position) == pytest.approx(10.0, abs=1e-3)
    assert curvature_radius(mid) == pytest.approx(10.0, rel=2e-2)


def test_polyline_rejects_degenerate_input():
    with pytest.raises(ValueError):
        make_polyline_path([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        make_polyline_path([[0, 0], [0, 0], [1, 1]])
    with pytest.raises(ValueError):
        make_polyline_path([[1, 1]] * 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_line_path((0.0, 0.0), (1.0, 0.0), 1e12),
        lambda: make_line_path((0.0, 0.0), (1.0, 0.0), math.inf),
        lambda: make_sinusoid_path(0.0, 1e9),
        lambda: make_sinusoid_path(-1e308, 1e308),
        lambda: make_circle_path((0.0, 0.0), 1e9),
        lambda: make_circle_path((0.0, 0.0), 10.0, turns=1e9),
        lambda: make_polyline_path([[0, 0], [1e9, 0], [2e9, 5]]),
    ],
    ids=["line", "line_inf", "sinusoid", "sinusoid_overflow", "circle", "circle_turns", "polyline"],
)
def test_oversized_tables_are_refused_before_allocation(build):
    # Each of these asked numpy for 1e10-1e13 points (MemoryError or an
    # exhausted host) before the MAX_SAMPLES check.
    with pytest.raises(ValueError, match=f"limit of {MAX_SAMPLES:,}"):
        build()


@pytest.mark.parametrize("gap", [1e-8, 1e-12])
def test_polyline_rejects_nearly_repeated_points(gap):
    with pytest.raises(ValueError, match="repeated consecutive points"):
        make_polyline_path([[0, 0], [10, 0], [10 + gap, 0], [20, 5]])


def test_polyline_accepts_short_chord_above_ratio():
    path = make_polyline_path([[0, 0], [10, 0], [10.0001, 0], [20, 5]])
    assert path.total_length == pytest.approx(21.78, abs=0.01)


@pytest.mark.parametrize(
    "pts, message",
    [
        ([[0, 0], [math.nan, 1], [2, 0]], "non-finite points"),
        ([[0, 0], [math.inf, 1], [2, 0]], "non-finite points"),
        ([[1e308, 0], [-1e308, 0], [1e308, 5]], "chord past the float range"),
        # Chords whose squares underflow to 0.
        ([[0, 0], [1e-300, 0], [2e-300, 1e-300]], "repeated consecutive points"),
        ([[1e200, 0], [1e200, 1e-190], [1e200, 2e-190]], "repeated consecutive points"),
    ],
)
def test_polyline_refuses_points_out_of_the_float_range_by_name(pts, message):
    with pytest.raises(ValueError, match=message):
        make_polyline_path(pts)


@pytest.mark.parametrize("ratio", [1.0, 1e-2, 1e-5])
@pytest.mark.parametrize("n", [4, 5, 9, 30])
def test_not_a_knot_slopes_reproduce_any_cubic(n, ratio):
    # A cubic has no knot at all, so the not-a-knot spline through its samples is the cubic itself.
    # Each chord slope carries a rounding, which the middle chord of a 4-knot spline amplifies by
    # about 1 / ratio^2: scipy's CubicSpline errs there by as much (7e-7 at 1e-5). Elsewhere both
    # stay within 2e-10.
    rng = np.random.default_rng(n)
    for short in range(n - 1):
        h = rng.uniform(0.1, 1.0, n - 1)
        h[short] = ratio
        t = np.concatenate(([0.0], np.cumsum(h))) * 7.0 - 3.0
        c = rng.normal(size=(4, 2))
        y = c[0] + t[:, None] * (c[1] + t[:, None] * (c[2] + t[:, None] * c[3]))
        dy = c[1] + t[:, None] * (2.0 * c[2] + 3.0 * t[:, None] * c[3])
        rel = 1e-6 if (n, short) == (4, 1) else 1e-9
        np.testing.assert_allclose(path_module._knot_slopes(t, y), dy, rtol=0.0, atol=rel * np.abs(dy).max())


def test_three_knots_give_the_parabola():
    t = np.array([0.0, 0.3, 2.0])
    y = np.column_stack([1.0 + 2.0 * t - 0.5 * t * t, -3.0 * t + 4.0 * t * t])
    dy = np.column_stack([2.0 - t, -3.0 + 8.0 * t])
    np.testing.assert_allclose(path_module._knot_slopes(t, y), dy, rtol=0.0, atol=1e-14)


def _spline_test_polylines():
    # The test suite's polylines, but not [[0, 0], [10, 0], [10.0001, 0], [20, 5]]: its middle chord makes
    # both solves lose digits, 7.9e-7 (scipy) and 8.5e-8 (here) of the slopes off the exact rational solution.
    theta = np.linspace(0, math.pi, 200)
    yield np.column_stack([10 * np.cos(theta), 10 * np.sin(theta)])
    yield np.array([(0, 0), (8, 3), (15, -2), (25, 4), (33, 0)], dtype=float)
    yield np.array([(0, 0), (10, 0), (10, 10), (0, 10), (0, 20)], dtype=float)
    yield np.column_stack([np.linspace(0, 30, 40), np.linspace(0, 15, 40)])
    rng = np.random.default_rng(0)
    for _ in range(200):
        yield np.cumsum(rng.normal(scale=3.0, size=(rng.integers(3, 30), 2)), axis=0)


def test_spline_matches_scipy_cubic_spline(monkeypatch):
    interpolate = pytest.importorskip("scipy.interpolate")
    grids = []
    build = path_module._from_parametric
    monkeypatch.setattr(
        path_module, "_from_parametric", lambda t, curve, ds: grids.append((t, curve)) or build(t, curve, ds)
    )
    for pts in _spline_test_polylines():
        make_polyline_path(pts)
        t_knots = np.concatenate(([0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))))
        spline = interpolate.CubicSpline(t_knots, pts, axis=0)
        t, curve = grids.pop()
        # Within 1e-12 of the larger of 1 and the largest value: a straight polyline's second derivative is noise.
        for want, got in zip((spline(t, k) for k in range(3)), curve(t)):
            scale = max(1.0, np.abs(want).max())
            np.testing.assert_allclose(np.column_stack(got), want, rtol=0.0, atol=1e-12 * scale)
        want = spline(t_knots, 1)
        scale = np.abs(want).max()
        np.testing.assert_allclose(path_module._knot_slopes(t_knots, pts), want, rtol=0.0, atol=1e-12 * scale)
