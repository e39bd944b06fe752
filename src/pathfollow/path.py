"""Reference-path abstraction: evaluation, projection and look-ahead queries.

A path is stored as a dense table of samples uniformly spaced in arc length
(default 0.05 m): position, unit tangent and signed curvature per sample.
Between samples the position is linear, so closest-point projection and
look-ahead circle intersections are solved exactly segment by segment, which
keeps every query deterministic and self-consistent with the stored geometry.

The analytic constructors (sinusoid, circle, line) fill the table from
closed-form derivatives; arbitrary polylines are resampled through a cubic
fit.  A ReferencePath is immutable after construction and all queries are
read-only, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Vec2

DEFAULT_SPACING = 0.05

# Unsigned curvature radius is clamped to this range so downstream command
# weights always see a positive finite scalar.
MIN_RADIUS = 1e-3
MAX_RADIUS = 1e6

SENSE_ANTICLOCKWISE = "anticlockwise"
SENSE_CLOCKWISE = "clockwise"


@dataclass(frozen=True)
class PathPoint:
    """A point of a reference path, parameterized by arc length ``s``."""

    s: float
    position: Vec2
    tangent: Vec2
    curvature: float


@dataclass(frozen=True)
class LookaheadResult:
    """Outcome of a look-ahead query.

    ``fallback`` is set when no circle/path intersection exists (vehicle
    farther than the look-ahead distance from the whole remaining path), in
    which case ``point`` is the closest-point projection.  ``end_of_path``
    is set when the path ends inside the look-ahead circle, in which case
    ``point`` is the path endpoint.
    """

    point: PathPoint
    fallback: bool = False
    end_of_path: bool = False


def curvature_radius(pp: PathPoint) -> float:
    """Unsigned radius of curvature, clamped to [MIN_RADIUS, MAX_RADIUS]."""
    return radius_from_curvature(pp.curvature)


def radius_from_curvature(kappa: float) -> float:
    k = abs(kappa)
    if k <= 1.0 / MAX_RADIUS:
        return MAX_RADIUS
    return min(MAX_RADIUS, max(MIN_RADIUS, 1.0 / k))


class ReferencePath:
    """Arc-length parameterized planar curve backed by a uniform sample table.

    The table also records its longest chord between neighbouring samples,
    which bounds how far the look-ahead scan may skip; a table whose samples
    all coincide has no such bound and is rejected.
    """

    def __init__(
        self,
        positions: np.ndarray,
        tangents: np.ndarray,
        curvatures: np.ndarray,
        spacing: float,
    ):
        positions = np.asarray(positions, dtype=float)
        tangents = np.asarray(tangents, dtype=float)
        curvatures = np.asarray(curvatures, dtype=float)
        n = positions.shape[0]
        if n < 2:
            raise ValueError("path needs at least two samples")
        if positions.shape != (n, 2) or tangents.shape != (n, 2) or curvatures.shape != (n,):
            raise ValueError("inconsistent sample table shapes")
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(tangents)) and np.all(np.isfinite(curvatures))):
            raise ValueError("non-finite path samples")
        norms = np.hypot(tangents[:, 0], tangents[:, 1])
        if np.any(norms == 0.0):
            raise ValueError("zero tangent sample")
        tangents = tangents / norms[:, None]
        max_chord = float(np.max(np.hypot(np.diff(positions[:, 0]), np.diff(positions[:, 1]))))
        if max_chord == 0.0:
            raise ValueError("degenerate path: all samples coincide")

        self._n = n
        self._ds = float(spacing)
        self._total = float(spacing) * (n - 1)
        self._px = np.ascontiguousarray(positions[:, 0])
        self._py = np.ascontiguousarray(positions[:, 1])
        self._tx = np.ascontiguousarray(tangents[:, 0])
        self._ty = np.ascontiguousarray(tangents[:, 1])
        self._kappa = np.ascontiguousarray(curvatures)
        self._max_chord = max_chord  # bounds the look-ahead scan's skips
        # Plain-float copies for the scalar hot loops.
        self._pxl = self._px.tolist()
        self._pyl = self._py.tolist()
        self._txl = self._tx.tolist()
        self._tyl = self._ty.tolist()
        self._kl = self._kappa.tolist()

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def total_length(self) -> float:
        return self._total

    @property
    def spacing(self) -> float:
        return self._ds

    @property
    def start(self) -> PathPoint:
        return self.point_at(0.0)

    @property
    def end(self) -> PathPoint:
        return self.point_at(self._total)

    def _segment_fraction(self, s: float) -> tuple[int, float]:
        s = min(max(s, 0.0), self._total)
        u = s / self._ds
        j = int(u)
        if j > self._n - 2:
            j = self._n - 2
        return j, u - j

    def _point_at_fraction(self, j: int, f: float) -> PathPoint:
        pxl, pyl = self._pxl, self._pyl
        x = pxl[j] + (pxl[j + 1] - pxl[j]) * f
        y = pyl[j] + (pyl[j + 1] - pyl[j]) * f
        tx = self._txl[j] + (self._txl[j + 1] - self._txl[j]) * f
        ty = self._tyl[j] + (self._tyl[j + 1] - self._tyl[j]) * f
        tn = math.hypot(tx, ty)
        if tn == 0.0:
            tx, ty = self._txl[j], self._tyl[j]
        else:
            tx, ty = tx / tn, ty / tn
        k = self._kl[j] + (self._kl[j + 1] - self._kl[j]) * f
        return PathPoint((j + f) * self._ds, (x, y), (tx, ty), k)

    def point_at(self, s: float) -> PathPoint:
        """Evaluate position, unit tangent and curvature at arc length ``s``."""
        j, f = self._segment_fraction(float(s))
        return self._point_at_fraction(j, f)

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------

    def project(
        self,
        p: Vec2,
        s_hint: float | None = None,
        window: float = 25.0,
    ) -> tuple[PathPoint, float]:
        """Closest point on the path to ``p``.

        With no hint the search is global.  With ``s_hint`` the search is
        local to [s_hint - 1, s_hint + window] and the returned arc length
        never falls below s_hint - 1 m, which prevents the projection from
        jumping backward on self-approaching paths.
        """
        px, py = float(p[0]), float(p[1])
        if s_hint is None:
            lo_s = 0.0
            d2 = (self._px - px) ** 2 + (self._py - py) ** 2
            i0 = int(np.argmin(d2))
        else:
            lo_s = min(max(float(s_hint) - 1.0, 0.0), self._total)
            hi_s = min(float(s_hint) + window, self._total)
            ilo = int(lo_s / self._ds)
            ihi = min(int(hi_s / self._ds) + 2, self._n)
            seg = slice(ilo, max(ihi, ilo + 2))
            d2 = (self._px[seg] - px) ** 2 + (self._py[seg] - py) ** 2
            i0 = ilo + int(np.argmin(d2))

        j_min_allowed = int(lo_s / self._ds)
        best = None
        pxl, pyl = self._pxl, self._pyl
        for j in range(max(i0 - 2, j_min_allowed), min(i0 + 2, self._n - 1)):
            ax, ay = pxl[j], pyl[j]
            dx, dy = pxl[j + 1] - ax, pyl[j + 1] - ay
            seg2 = dx * dx + dy * dy
            if seg2 == 0.0:
                continue
            u = ((px - ax) * dx + (py - ay) * dy) / seg2
            u_lo = 0.0
            if j == j_min_allowed and lo_s > 0.0:
                u_lo = (lo_s - j * self._ds) / self._ds
            u = min(max(u, u_lo), 1.0)
            cx, cy = ax + u * dx, ay + u * dy
            dd = (px - cx) ** 2 + (py - cy) ** 2
            if best is None or dd < best[0] - 1e-18 or (abs(dd - best[0]) <= 1e-18 and (j + u) < best[1]):
                best = (dd, j + u, j, u)
        assert best is not None
        pp = self._point_at_fraction(best[2], best[3])
        return pp, math.sqrt(best[0])

    # ------------------------------------------------------------------
    # Look-ahead
    # ------------------------------------------------------------------

    def lookahead_point(self, p: Vec2, s_min: float, lookahead_dist: float) -> LookaheadResult:
        """First path point after ``s_min`` at Euclidean distance ``lookahead_dist``.

        One plain-float scan walks the segments from ``s_min`` to the path
        end, solves the circle/segment intersection exactly on each and
        returns the forward branch of the first root.  The caller advances
        ``s_min`` to the previous crossing, so the root usually sits a
        segment or two ahead.  When it does not, the scan skips ahead: the
        distance to ``p`` changes by at most one chord from vertex to vertex,
        so at a vertex whose distance differs from ``lookahead_dist`` by
        ``gap`` the next ``floor(gap / max_chord) - 1`` segments hold no root.
        Never fails: degenerate situations are reported through the result
        flags.
        """
        if not lookahead_dist > 0.0:
            raise ValueError("look-ahead distance must be positive")
        px, py = float(p[0]), float(p[1])
        s0 = min(max(float(s_min), 0.0), self._total)
        j = min(int(s0 / self._ds), self._n - 2)

        pxl, pyl = self._pxl, self._pyl
        ds, max_chord = self._ds, self._max_chord
        r2 = lookahead_dist * lookahead_dist
        # Roots landing exactly on a table vertex jitter a hair outside [0, 1];
        # widen the acceptance band and clamp so seam roots are never dropped.
        # A skip leaves a full chord of margin, far wider than this band.
        eps = 1e-9
        last = self._n - 1
        while j < last:
            ax, ay = pxl[j], pyl[j]
            rx, ry = ax - px, ay - py
            skip = abs(math.hypot(rx, ry) - lookahead_dist) / max_chord - 1.0
            if skip >= last - j:
                break  # no root on the rest of the path
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
                        return LookaheadResult(self._point_at_fraction(j, min(max(u, 0.0), 1.0)))
            j += 1

        ex, ey = pxl[-1], pyl[-1]
        if math.hypot(ex - px, ey - py) < lookahead_dist:
            return LookaheadResult(self.point_at(self._total), end_of_path=True)
        # No crossing anywhere ahead: fall back to the closest point over the
        # whole remaining path (forward-progress guard still applies).
        pp, _ = self.project(p, s_hint=s0, window=self._total)
        return LookaheadResult(pp, fallback=True)

    # ------------------------------------------------------------------
    # Raw table access for batched queries
    # ------------------------------------------------------------------

    def sample_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only sample arrays (px, py, tx, ty, kappa)."""
        return self._px, self._py, self._tx, self._ty, self._kappa


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------


def _from_parametric(
    t_fine: np.ndarray,
    pos_of: callable,
    tan_of: callable,
    kappa_of: callable,
    speed_of: np.ndarray,
    spacing: float,
) -> ReferencePath:
    """Build a uniform arc-length table from a parametric description.

    ``speed_of`` holds |d pos / d t| on the fine grid; the cumulative
    trapezoid of it maps parameter to arc length, which is then inverted
    onto a uniform arc-length grid.
    """
    seg = 0.5 * (speed_of[1:] + speed_of[:-1]) * np.diff(t_fine)
    s_fine = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(s_fine[-1])
    if not total > 0.0:
        raise ValueError("degenerate path: zero length")
    n = max(int(math.ceil(total / spacing)) + 1, 2)
    ds = total / (n - 1)
    s_grid = ds * np.arange(n)
    t_grid = np.interp(s_grid, s_fine, t_fine)
    positions = pos_of(t_grid)
    tangents = tan_of(t_grid)
    curvatures = kappa_of(t_grid)
    return ReferencePath(positions, tangents, curvatures, ds)


def make_sinusoid_path(
    x_lo: float = 0.0, x_hi: float = 150.0, spacing: float = DEFAULT_SPACING
) -> ReferencePath:
    """Benchmark curve y(x) = 10 sin(0.078 x) + 20 cos(0.082 x) over [x_lo, x_hi]."""
    if not x_lo < x_hi:
        raise ValueError("empty domain: x_lo must be below x_hi")

    def y(x):
        return 10.0 * np.sin(0.078 * x) + 20.0 * np.cos(0.082 * x)

    def yp(x):
        return 0.78 * np.cos(0.078 * x) - 1.64 * np.sin(0.082 * x)

    def ypp(x):
        return -0.06084 * np.sin(0.078 * x) - 0.13448 * np.cos(0.082 * x)

    fine = np.linspace(x_lo, x_hi, max(int((x_hi - x_lo) / 0.001) + 1, 16))
    speeds = np.hypot(1.0, yp(fine))

    def pos_of(x):
        return np.column_stack([x, y(x)])

    def tan_of(x):
        g = yp(x)
        h = np.hypot(1.0, g)
        return np.column_stack([1.0 / h, g / h])

    def kappa_of(x):
        g = yp(x)
        return ypp(x) / np.power(1.0 + g * g, 1.5)

    return _from_parametric(fine, pos_of, tan_of, kappa_of, speeds, spacing)


def make_circle_path(
    center: Vec2,
    radius: float,
    sense: str = SENSE_ANTICLOCKWISE,
    start_angle: float = 0.0,
    turns: float = 2.0,
    spacing: float = DEFAULT_SPACING,
) -> ReferencePath:
    """Circular arc of ``turns`` revolutions, traversed in the given sense."""
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    if sense not in (SENSE_ANTICLOCKWISE, SENSE_CLOCKWISE):
        raise ValueError(f"unknown sense {sense!r}")
    if not turns > 0.0:
        raise ValueError("turns must be positive")
    sign = 1.0 if sense == SENSE_ANTICLOCKWISE else -1.0
    total = 2.0 * math.pi * radius * turns
    n = max(int(math.ceil(total / spacing)) + 1, 2)
    ds = total / (n - 1)
    s = ds * np.arange(n)
    theta = start_angle + sign * s / radius
    cx, cy = float(center[0]), float(center[1])
    positions = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
    tangents = np.column_stack([-sign * np.sin(theta), sign * np.cos(theta)])
    curvatures = np.full(n, sign / radius)
    return ReferencePath(positions, tangents, curvatures, ds)


def make_line_path(
    start: Vec2, direction: Vec2, length: float = 1000.0, spacing: float = DEFAULT_SPACING
) -> ReferencePath:
    """Straight path from ``start`` along ``direction``."""
    if not length > 0.0:
        raise ValueError("length must be positive")
    dn = math.hypot(direction[0], direction[1])
    if dn == 0.0:
        raise ValueError("degenerate direction: zero vector")
    ux, uy = direction[0] / dn, direction[1] / dn
    n = max(int(math.ceil(length / spacing)) + 1, 2)
    ds = length / (n - 1)
    s = ds * np.arange(n)
    positions = np.column_stack([start[0] + ux * s, start[1] + uy * s])
    tangents = np.tile([ux, uy], (n, 1))
    curvatures = np.zeros(n)
    return ReferencePath(positions, tangents, curvatures, ds)


def make_polyline_path(points, spacing: float = DEFAULT_SPACING) -> ReferencePath:
    """Path through (x, y) samples, with cubic-fit tangents and curvatures."""
    from scipy.interpolate import CubicSpline

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("polyline needs at least three (x, y) samples")
    chord = np.hypot(*np.diff(pts, axis=0).T)
    if np.any(chord == 0.0):
        raise ValueError("polyline has repeated consecutive points")
    t_knots = np.concatenate(([0.0], np.cumsum(chord)))
    spline = CubicSpline(t_knots, pts, axis=0)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)

    fine = np.linspace(0.0, t_knots[-1], max(int(t_knots[-1] / (spacing / 4.0)) + 1, 32))
    v = d1(fine)
    speeds = np.hypot(v[:, 0], v[:, 1])

    def pos_of(t):
        return spline(t)

    def tan_of(t):
        g = d1(t)
        h = np.hypot(g[:, 0], g[:, 1])
        return g / h[:, None]

    def kappa_of(t):
        g = d1(t)
        h = d2(t)
        sp = np.hypot(g[:, 0], g[:, 1])
        return (g[:, 0] * h[:, 1] - g[:, 1] * h[:, 0]) / np.power(sp, 3.0)

    return _from_parametric(fine, pos_of, tan_of, kappa_of, speeds, spacing)
