"""Reference-path abstraction: evaluation, projection and look-ahead queries.

A path is stored as a dense table of samples uniformly spaced in arc length
(default 0.05 m): position, unit tangent and signed curvature per sample.
Between samples the position is linear, so closest-point projection and
look-ahead circle intersections are solved exactly segment by segment, which
keeps every query deterministic and self-consistent with the stored geometry.
The gain tuner's rollouts ask the same questions for many states at once:
``project_many``, ``lookahead_many`` and ``point_at_many`` answer them on the
same table, beside their scalar forms and under the same rules.

The analytic constructors (sinusoid, circle, line) fill the table from
closed-form derivatives; arbitrary polylines are resampled through a cubic
fit.  A ReferencePath's sample table is read-only after construction, every
query returns fresh PathPoint / LookaheadResult records and the library never
mutates a record after building it, so one path can be shared across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import hypot, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geom import Vec2

DEFAULT_SPACING = 0.05

# Unsigned curvature radius is clamped to this range so downstream command
# weights always see a positive finite scalar.
MIN_RADIUS = 1e-3
MAX_RADIUS = 1e6

# Shortest polyline chord accepted, relative to the longest one.
MIN_CHORD_RATIO = 1e-6

# Most samples in a path table or a constructor's fine grid (50 km of path at
# the default spacing); larger requests are refused before allocation.
MAX_SAMPLES = 1_000_000

# Rows of a path's sample table: a segment's squared length, then x, y, tx,
# ty, kappa (_POINT), each followed by its difference to the next sample
# (_DIFF).  A point interpolates from two slices of one gather, and the
# segment scans gather the first five rows: seg2, x, dx, y, dy.
_POINT = slice(1, 11, 2)
_DIFF = slice(2, 11, 2)
_XY = slice(1, 4, 2)
_LOOK_WIDTHS = (4, 16, 64)  # batched look-ahead chunk widths; later chunks reuse the last
_OFFSETS = np.arange(_LOOK_WIDTHS[-1])
_FIRST = _OFFSETS[: _LOOK_WIDTHS[0], None] == 0  # the first chunk's segment holding s_lb
_NO_ROWS = np.zeros(0, dtype=np.int64)
_SEAM_EPS = 1e-9  # the scalar look-ahead's vertex-seam tolerance
_BLOCK_CELLS = 1 << 17  # batched guarded projection: rows per block times samples (~1 MB)
_COARSE = 16  # batched guarded projection: samples per stretch of its coarse pass

SENSE_ANTICLOCKWISE = "anticlockwise"
SENSE_CLOCKWISE = "clockwise"


@dataclass(slots=True)
class PathPoint:
    """A point of a reference path, parameterized by arc length ``s``."""

    s: float
    position: Vec2
    tangent: Vec2
    curvature: float


@dataclass(slots=True)
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


def radii_from_curvatures(kappa: np.ndarray) -> np.ndarray:
    """The clamp of :func:`radius_from_curvature` over an array."""
    return np.minimum(MAX_RADIUS, np.maximum(MIN_RADIUS, 1.0 / np.maximum(np.abs(kappa), 1.0 / MAX_RADIUS)))


class ReferencePath:
    """Arc-length parameterized planar curve backed by a uniform sample table.

    The samples live in one read-only table of 11 rows: the squared length
    of the segment to the next sample, x, y, tx, ty, kappa, then their
    differences to the next sample.  63 zero-length segments, at the last
    sample's position, pad its end for the batched look-ahead's chunks and
    projection windows to run into; it takes 88 bytes per sample
    (1.8 MB per km at the default spacing).  The scalar queries read
    plain-float lists of the first eight rows, built once (0.64 MB per list
    per km).  The path also records its longest chord between neighbouring
    samples, which bounds how far the look-ahead scans may skip; a table
    whose samples all coincide has no such bound and is rejected.
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
        t = np.zeros((11, n - 1 + _LOOK_WIDTHS[-1]))
        for v, col in zip(range(1, 11, 2), (*positions.T, *tangents.T, curvatures)):
            t[v, :n] = col
            np.subtract(col[1:], col[:-1], out=t[v + 1, : n - 1])
        t[_XY, n:] = positions[-1:].T
        t[0] = t[2] * t[2] + t[4] * t[4]
        max_chord = float(np.max(np.hypot(t[2, : n - 1], t[4, : n - 1])))
        if max_chord == 0.0:
            raise ValueError("degenerate path: all samples coincide")
        t.flags.writeable = False

        self._n = n
        self._ds = float(spacing)
        self._total = float(spacing) * (n - 1)
        self._table = t
        # Window j of the batched projection: x, then y, of samples j .. j + 31.
        self._windows = [sliding_window_view(row, 32) for row in t[_XY]]
        self.max_chord = max_chord  # bounds the look-ahead scans' skips
        # Plain-float rows for the scalar loops; numpy's - * + round like
        # Python's, so the segment rows equal the loops' own arithmetic.
        rows = t[:5, :n].tolist() + t[5:10:2, :n].tolist()
        self._seg2l, self._pxl, self._dxl, self._pyl, self._dyl, self._txl, self._tyl, self._kl = rows

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

    def _segment_fraction(self, s: float) -> tuple[int, float]:
        s = min(max(s, 0.0), self._total)
        u = s / self._ds
        j = int(u)
        if j > self._n - 2:
            j = self._n - 2
        return j, u - j

    def _point_at_fraction(self, j: int, f: float) -> PathPoint:
        txl, tyl, kl = self._txl, self._tyl, self._kl
        tx0, ty0, k0 = txl[j], tyl[j], kl[j]
        tx, ty = tx0 + (txl[j + 1] - tx0) * f, ty0 + (tyl[j + 1] - ty0) * f
        tn = hypot(tx, ty)
        tangent = (tx0, ty0) if tn == 0.0 else (tx / tn, ty / tn)
        position = (self._pxl[j] + self._dxl[j] * f, self._pyl[j] + self._dyl[j] * f)
        return PathPoint((j + f) * self._ds, position, tangent, k0 + (kl[j + 1] - k0) * f)

    def point_at(self, s: float) -> PathPoint:
        """Evaluate position, unit tangent and curvature at arc length ``s``."""
        j, f = self._segment_fraction(float(s))
        return self._point_at_fraction(j, f)

    def point_at_many(self, s: np.ndarray) -> np.ndarray:
        """Position, unit tangent and curvature at many arc lengths, as rows x, y, tx, ty, kappa."""
        u = np.minimum(np.maximum(s / self._ds, 0.0), self._n - 1)
        j = np.minimum(u.astype(np.int64), self._n - 2)
        g = np.take(self._table, j, axis=1)
        pts = g[_POINT] + g[_DIFF] * (u - j)
        pts[2:4] /= np.maximum(np.hypot(pts[2], pts[3]), 1e-300)
        return pts

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

        The nearest sample comes from numpy, squared in place (numpy's
        ``a ** 2`` is ``a * a``); the four segments around it are solved in
        plain floats and squared with ``**``, which differs from ``x * x`` in
        the last bit on about 0.1% of inputs, so the two are not swapped.
        """
        px, py = float(p[0]), float(p[1])
        n, ds, total = self._n, self._ds, self._total
        # ``b if b > a else a`` is max(a, b) and ``b if b < a else a`` is
        # min(a, b), NaN and -0.0 included, without the builtin call.
        if s_hint is None:
            lo_s, ilo, d = 0.0, 0, self._table[_XY, :n] - ((px,), (py,))
        else:
            lo_s = float(s_hint) - 1.0
            lo_s = 0.0 if 0.0 > lo_s else lo_s
            lo_s = total if total < lo_s else lo_s
            hi_s = float(s_hint) + window
            ilo, ihi = int(lo_s / ds), int((total if total < hi_s else hi_s) / ds) + 2
            ihi = ilo + 2 if ilo + 2 > ihi else ihi
            d = self._table[_XY, ilo : n if n < ihi else ihi] - ((px,), (py,))
        d *= d
        e = d[0]
        e += d[1]
        i0 = ilo + int(e.argmin())

        # The guard segment is the last one at most, even at lo_s = total.
        j_min = min(int(lo_s / ds), n - 2)
        guarded = lo_s > 0.0
        pxl, pyl, dxl, dyl, seg2l = self._pxl, self._pyl, self._dxl, self._dyl, self._seg2l
        best_j, best_dd, best_key, best_u = -1, 0.0, 0.0, 0.0
        for j in range(i0 - 2 if i0 - 2 > j_min else j_min, i0 + 2 if i0 + 2 < n - 1 else n - 1):
            seg2 = seg2l[j]
            if seg2 == 0.0:
                continue
            ax, ay, dx, dy = pxl[j], pyl[j], dxl[j], dyl[j]
            u = ((px - ax) * dx + (py - ay) * dy) / seg2
            u_lo = (lo_s - j * ds) / ds if j == j_min and guarded else 0.0
            u = u_lo if u_lo > u else u
            u = 1.0 if 1.0 < u else u
            cx, cy = ax + u * dx, ay + u * dy
            dd = (px - cx) ** 2 + (py - cy) ** 2
            if best_j < 0 or dd < best_dd - 1e-18 or (abs(dd - best_dd) <= 1e-18 and j + u < best_key):
                best_dd, best_key, best_j, best_u = dd, j + u, j, u
        if best_j < 0:
            # Every segment in reach has zero length and sits on vertex i0.
            j = min(i0, n - 2)
            u = float(i0 - j)
            if j == j_min and guarded:
                u = min(max(u, (lo_s - j * ds) / ds), 1.0)
            best_dd, best_j, best_u = (px - pxl[i0]) ** 2 + (py - pyl[i0]) ** 2, j, u
        return self._point_at_fraction(best_j, best_u), sqrt(best_dd)

    def project_many(self, x: np.ndarray, y: np.ndarray, s_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arc lengths and distances of a windowed exact projection per row, with a 1 m backward
        guard: the nearest of 32 samples from the guard picks two segments, solved as one (2, K) array.

        On rollout rows it gives ``project(p, s_hint=s_prev)``'s arc length bit for bit and its distance
        within 2 ULP (``x * x`` against ``**``); each form is the faster one for its own kind of query."""
        n, t = self._n, self._table
        lo_u = np.fmax(s_prev - 1.0, 0.0) / self._ds
        j_lo = np.minimum(lo_u.astype(np.int64), n - 2)
        # Samples j_lo .. j_lo + 31 per row; the table's padding stands in for samples past the end.
        wx, wy = self._windows
        d, e = wx[j_lo] - x[:, None], wy[j_lo] - y[:, None]
        d *= d  # numpy's ** 2
        e *= e
        d += e
        i_star = j_lo + np.argmin(d, axis=1)
        # The segments ending and starting at the nearest sample.
        jc = np.minimum(np.maximum(i_star - np.array([[1], [0]]), j_lo), n - 2)
        a, ax, dxs, ay, dys = g = np.take(t[:5], jc, axis=1)
        u = ((x - ax) * dxs + (y - ay) * dys) / np.maximum(a, 1e-300)
        u_min = np.where(jc == j_lo, np.minimum(lo_u - j_lo, 1.0), 0.0)
        u = np.minimum(np.maximum(u, u_min), 1.0)
        foot = g[1:4:2] + g[2:5:2] * u
        dd = (x - foot[0]) ** 2 + (y - foot[1]) ** 2
        s_cand = (jc + u) * self._ds
        second = dd[1] < dd[0]
        return np.where(second, s_cand[1], s_cand[0]), np.sqrt(np.where(second, dd[1], dd[0]))

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
        ds, total, last = self._ds, self._total, self._n - 1
        s0 = float(s_min)
        s0 = 0.0 if 0.0 > s0 else s0
        s0 = total if total < s0 else s0
        j = min(int(s0 / ds), last - 1)

        pxl, pyl, dxl, dyl, seg2l = self._pxl, self._pyl, self._dxl, self._dyl, self._seg2l
        max_chord, r2 = self.max_chord, lookahead_dist * lookahead_dist
        # Roots landing exactly on a table vertex jitter a hair outside [0, 1];
        # widen the acceptance band and clamp so seam roots are never dropped.
        # A skip leaves a full chord of margin, far wider than this band.
        eps = 1e-9
        while j < last:
            rx, ry = pxl[j] - px, pyl[j] - py
            skip = abs(hypot(rx, ry) - lookahead_dist) / max_chord - 1.0
            if skip >= last - j:
                break  # no root on the rest of the path
            if skip >= 1.0:
                j += int(skip)
                continue
            dx, dy, a = dxl[j], dyl[j], seg2l[j]
            b = rx * dx + ry * dy
            disc = b * b - a * (rx * rx + ry * ry - r2)
            if a > 0.0 and disc >= 0.0:
                sq = sqrt(disc)
                u_lo = -eps
                if j * ds < s0:
                    u_lo = (s0 - j * ds) / ds
                u = (-b - sq) / a
                if not u_lo < u <= 1.0 + eps:
                    u = (-b + sq) / a
                if u_lo < u <= 1.0 + eps:
                    u = 0.0 if 0.0 > u else u
                    return LookaheadResult(self._point_at_fraction(j, 1.0 if 1.0 < u else u))
            j += 1

        ex, ey = pxl[-1], pyl[-1]
        if hypot(ex - px, ey - py) < lookahead_dist:
            return LookaheadResult(self.point_at(self._total), end_of_path=True)
        # No crossing anywhere ahead: fall back to the closest point over the
        # whole remaining path (forward-progress guard still applies).
        pp, _ = self.project(p, s_hint=s0, window=self._total)
        return LookaheadResult(pp, fallback=True)

    def lookahead_many(self, x: np.ndarray, y: np.ndarray, s_lb: np.ndarray, lookahead_dist: float):
        """First circle/path crossing after s_lb per row, scanned in chunks.

        Same answers as :meth:`lookahead_point`.  Rows scan the segments in
        path order and the scalar skip bound passes only segments without a
        root, so chunk widths and skip tests do not change the first
        crossing.  The first chunk, 4 wide for the usual advance of 0-2
        segments, skips nothing and returns at once when every row crosses
        in it; chunks of 16, then 64 cover the rows left.

        Returns the arc lengths, the rows that end the path (no crossing, end
        inside the circle), and None or the other rows without a crossing
        with their :meth:`_guarded_project_many` points.
        """
        n, t = self._n, self._table
        l2 = lookahead_dist * lookahead_dist
        u_s = s_lb / self._ds
        j = np.minimum(u_s.astype(np.int64), n - 2)
        # Only the segment holding s_lb starts past -eps.
        hit, s_out = self._crossings(j, x, y, np.where(_FIRST, u_s - j, -_SEAM_EPS), l2)
        if hit.all():  # the usual case
            return s_out, _NO_ROWS, None
        left = ~hit
        s_out[left] = np.nan
        rows, xr, yr, j = np.flatnonzero(left), x[left], y[left], j[left] + _LOOK_WIDTHS[0]
        for width in itertools.chain(_LOOK_WIDTHS[1:], itertools.repeat(_LOOK_WIDTHS[-1])):
            keep = j <= n - 2
            if not keep.any():
                break
            rows, xr, yr, j = rows[keep], xr[keep], yr[keep], j[keep]
            while True:
                # No root lies within gap / max_chord - 1 segments of a vertex whose distance differs
                # from L1 by gap (a nan state skips nothing); past the end a row waits on padding.
                gap = np.abs(np.hypot(np.take(t[1], j) - xr, np.take(t[3], j) - yr) - lookahead_dist)
                skip = gap / self.max_chord - 1.0
                jump = (skip >= 1.0) & (j < n - 1)
                if not jump.any():
                    break
                j = np.minimum(j + np.where(jump, np.minimum(skip, n), 0.0).astype(np.int64), n - 1)
            if (j == n - 1).all():
                break  # every row left has skipped past the last segment
            hit, s_rows = self._crossings(j, xr, yr, -_SEAM_EPS, l2, width)
            s_out[rows[hit]] = s_rows[hit]
            rows, xr, yr, j = rows[~hit], xr[~hit], yr[~hit], j[~hit] + width

        miss = np.flatnonzero(np.isnan(s_out))
        if miss.size:
            s_out[miss] = self._total
            inside = (t[1, n - 1] - x[miss]) ** 2 + (t[3, n - 1] - y[miss]) ** 2 < l2
            if not inside.all():
                far = miss[~inside]
                s_out[far], points = self._guarded_project_many(x[far], y[far], s_lb[far])
                return s_out, miss[inside], (far, points)
        return s_out, miss, None

    def _crossings(self, j, x, y, u_lo, l2: float, width: int = _LOOK_WIDTHS[0]):
        """Whether each row's circle crosses segments j .. j + width - 1 past ``u_lo``, and the arc
        length of its first crossing there (any value on a row without one)."""
        idx = _OFFSETS[:width, None] + j  # segments as rows, states as columns
        a, ax, dxs, ay, dys = np.take(self._table[:5], idx, axis=1)
        rxs, rys = ax - x, ay - y
        nb = -(rxs * dxs + rys * dys)
        disc = nb * nb - a * (rxs * rxs + rys * rys - l2)
        ok = (disc >= 0.0) & (a > 0.0)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        u = np.array((nb - sq, nb + sq)) / np.where(ok, a, 1.0)  # the two roots
        inside = (u > u_lo) & (u <= 1.0 + _SEAM_EPS)
        has = ok & (inside[0] | inside[1])
        s = (idx + np.minimum(np.maximum(np.where(inside[0], u[0], u[1]), 0.0), 1.0)) * self._ds
        return has.any(axis=0), s[has.argmax(axis=0), np.arange(x.size)]

    def _guarded_project_many(self, x: np.ndarray, y: np.ndarray, s_hint: np.ndarray):
        """``project(p, s_hint, window=total_length)`` for many rows, bit for bit.

        Same arithmetic, 1e-18 tie rule and zero-length-segment branch as the
        scalar query.  Returns the arc lengths and the points as rows x, y,
        tx, ty, kappa.
        """
        n, ds, m, t = self._n, self._ds, x.size, self._table
        lo_s = np.minimum(np.maximum(s_hint - 1.0, 0.0), self._total)
        ilo = (lo_s / ds).astype(np.int64)
        # Nearest sample at or after ilo (first on a tie), in row blocks.  Samples
        # k apart differ in distance by at most k max chords, so a stretch of
        # _COARSE samples starting more than _COARSE chords farther than some
        # sample past ilo holds no minimum (a chord to spare for rounding).
        i0 = np.empty(m, dtype=np.int64)
        block = max(1, _BLOCK_CELLS // n)
        for b in range(0, m, block):
            lo, xs, ys = ilo[b : b + block, None], x[b : b + block, None], y[b : b + block, None]
            first = np.arange(lo.min() // _COARSE * _COARSE, n, _COARSE)
            dc = np.sqrt((t[1, first] - xs) ** 2 + (t[3, first] - ys) ** 2)
            bound = np.min(dc, axis=1, where=first >= lo, initial=np.inf, keepdims=True)
            near = (dc - _COARSE * self.max_chord <= bound) & (first + _COARSE > lo)
            start = np.maximum(first[near.argmax(axis=1)], lo[:, 0])
            stop = np.minimum(first[near.shape[1] - 1 - near[:, ::-1].argmax(axis=1)] + _COARSE, n)
            idx = np.minimum(start[:, None] + np.arange((stop - start).max()), stop[:, None] - 1)
            sx, sy = np.take(t[1], idx), np.take(t[3], idx)
            i0[b : b + block] = start + np.argmin((sx - xs) ** 2 + (sy - ys) ** 2, axis=1)

        # Segments i0 - 2 .. i0 + 1, in the scalar loop's order.
        jmin = np.minimum(ilo, n - 2)
        guard = lo_s > 0.0
        j = i0 + np.arange(-2, 2)[:, None]
        seg2, ax, dx, ay, dy = np.take(t[:5], np.minimum(np.maximum(j, 0), n - 2), axis=1)
        valid = (j >= jmin) & (j <= n - 2) & (seg2 != 0.0)
        u = ((x - ax) * dx + (y - ay) * dy) / np.where(valid, seg2, 1.0)
        u_lo = np.where((j == jmin) & guard, (lo_s - j * ds) / ds, 0.0)
        u = np.where(u_lo > u, u_lo, u)  # Python's max(u, u_lo), then min(u, 1.0)
        u = np.where(u > 1.0, 1.0, u)
        # Python's x ** 2, as in the scalar query: x * x differs in the last bit
        # on ~0.1% of inputs, which can flip a near tie between candidates.
        e = np.concatenate((x - (ax + u * dx), y - (ay + u * dy))).ravel().tolist()
        sq = np.fromiter(map(pow, e, itertools.repeat(2)), float, len(e)).reshape(8, m)
        dd = sq[:4] + sq[4:]
        # The first valid segment is taken.  A later one has a key j + u no smaller
        # than the best's, so of the scalar's tie rule only dd < best - 1e-18 applies.
        best = np.zeros((3, m))  # dd, u and j of the segment taken so far
        for c in range(4):
            take = valid[c] & (~valid[:c].any(axis=0) | (dd[c] < best[0] - 1e-18))
            best = np.where(take, (dd[c], u[c], j[c]), best)
        # A row with no segment of nonzero length in reach takes vertex i0.
        jz = np.minimum(i0, n - 2)
        uz, uz_lo = (i0 - jz).astype(float), (lo_s - jz * ds) / ds
        uz = np.minimum(np.where((jz == jmin) & guard & (uz_lo > uz), uz_lo, uz), 1.0)
        jf = np.where(valid.any(axis=0), best[2], jz).astype(np.int64)
        f = np.where(valid.any(axis=0), best[1], uz)
        g = np.take(t, jf, axis=1)
        pts = g[_POINT] + g[_DIFF] * f
        # math.hypot, as in the scalar query: np.hypot differs in the last bit on ~1% of inputs.
        tn = np.fromiter(map(math.hypot, pts[2].tolist(), pts[3].tolist()), float, m)
        pts[2:4] = np.where(tn == 0.0, t[5:8:2, jf], pts[2:4] / np.where(tn == 0.0, 1.0, tn))
        return (jf + f) * ds, pts

    def sample_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views of the sample rows (px, py, tx, ty, kappa)."""
        t, n = self._table, self._n
        return tuple(t[_POINT, :n])


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------


def _check_samples(count: float) -> None:
    if not count <= MAX_SAMPLES:
        raise ValueError(f"{count:.3g} samples exceed the limit of {MAX_SAMPLES:,} per table or grid")


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
    _check_samples(total / spacing + 1.0)
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

    _check_samples((x_hi - x_lo) / 0.001 + 1.0)
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
    _check_samples(total / spacing + 1.0)
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
    _check_samples(length / spacing + 1.0)
    n = max(int(math.ceil(length / spacing)) + 1, 2)
    ds = length / (n - 1)
    s = ds * np.arange(n)
    positions = np.column_stack([start[0] + ux * s, start[1] + uy * s])
    tangents = np.tile([ux, uy], (n, 1))
    curvatures = np.zeros(n)
    return ReferencePath(positions, tangents, curvatures, ds)


def make_polyline_path(points, spacing: float = DEFAULT_SPACING) -> ReferencePath:
    """Path through (x, y) samples, with cubic-fit tangents and curvatures.

    A chord shorter than ``MIN_CHORD_RATIO`` (1e-6) times the longest one is
    rejected with ValueError before any table is built: the cubic fit through
    such a nearly repeated point overshoots by orders of magnitude.
    """
    from scipy.interpolate import CubicSpline

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("polyline needs at least three (x, y) samples")
    chord = np.hypot(*np.diff(pts, axis=0).T)
    if np.min(chord) <= MIN_CHORD_RATIO * np.max(chord):
        raise ValueError(f"polyline has repeated consecutive points (chord {np.min(chord):.3g} m)")
    t_knots = np.concatenate(([0.0], np.cumsum(chord)))
    _check_samples(t_knots[-1] / (spacing / 4.0) + 1.0)
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
