"""Reference-path abstraction: evaluation, projection and look-ahead queries.

A path is stored as a dense table of samples uniformly spaced in arc length
(default 0.05 m): position, unit tangent and signed curvature per sample.
Between samples the position is linear, so closest-point projection and
look-ahead circle intersections are solved exactly segment by segment, which
keeps every query deterministic and self-consistent with the stored geometry.
The gain tuner's rollouts ask the same questions for many states at once:
``project_many``, ``lookahead_many`` and ``point_at_many`` answer them on the
same table, beside their scalar forms and under the same rules; the window
``project_many`` searches grows on fine tables to reach 0.5 m past each hint,
and ``lookahead_many`` hands the rare row its 4-segment chunk cannot settle to
the scalar ``lookahead_point``.  A hinted scalar ``project`` walks from its
hint to the nearest sample and proves it against per-sample bounds built with
the table (``_walk_bounds``: every block of samples takes the lesser of its
chord and sagitta bounds, which vouch for about 12 m off a straight path);
wider searches, and the rare walk the bounds cannot vouch for, scan their
window with numpy.  Both give the same bits, and ``project_s`` gives the arc
length and distance alone, without a PathPoint.

The analytic constructors (sinusoid, circle, line) fill the table from
closed-form derivatives; polylines are resampled along their not-a-knot cubic
spline.  A ReferencePath's sample table is read-only after construction, every
query returns fresh PathPoint / LookaheadResult records and the library never
mutates a record after building it, so one path can be shared across threads.
A path is not shipped between processes: each sweep worker builds its own from
the scenario (``cli.run_sweep``).
"""

from __future__ import annotations

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
_CHUNK = np.arange(4)[:, None]  # the batched look-ahead's segment offsets from s_lb's
_MINUS_PLUS = np.array((-1.0, 1.0))[:, None, None]  # the sign of the discriminant's root in its two roots
_NO_ROWS = np.zeros(0, dtype=np.int64)
_SEAM_EPS = 1e-9  # the scalar look-ahead's vertex-seam tolerance
# The batched queries' constant operands as 0-d arrays: a Python float operand costs a ufunc
# call about 0.2 us to convert, a third of its time on rollout rows.
_ZERO, _ONE, _TINY, _INF, _NAN = np.array(0.0), np.array(1.0), np.array(1e-300), np.array(np.inf), np.array(np.nan)
_SEAM_LO, _SEAM_HI = np.array(-_SEAM_EPS), np.array(1.0 + _SEAM_EPS)
_SLICE = 8192  # fine-grid intervals per slice of a parametric path's arc-length trapezoid
# The hinted projection's walk (ReferencePath.project and _walk_bounds).
_WALK_WINDOW = 25.0  # the widest hinted window, past the 1 m guard, that the per-sample bounds cover
_WALK_A = 0.75  # the certificate's tangential tolerance a, in spacings
_WALK_CAP = 1024.0  # the largest normal offset the certificate vouches for, in spacings
_WALK_EPS = 2.0**-40  # the certificate's float margin: 2^13 units in the last place
_WALK_SINGLES = 6  # offsets 2 .. 6 are bounded sample by sample, larger ones in blocks

SENSE_ANTICLOCKWISE = "anticlockwise"
SENSE_CLOCKWISE = "clockwise"
SENSE_SIGN = {SENSE_ANTICLOCKWISE: 1.0, SENSE_CLOCKWISE: -1.0}  # the sign of a circle's turn in each sense


@dataclass(slots=True)
class PathPoint:
    """A point of a reference path, parameterized by arc length ``s``.

    ``tangent`` is the unit tangent, or (0, 0) where the interpolated tangent vanishes (a cusp's
    midpoint), as in :meth:`ReferencePath.point_at_many`.
    """

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
    """Unsigned radius of curvature, clamped to [MIN_RADIUS, MAX_RADIUS] as ``guidance.blended_many`` clamps it:
    1 / (1 / MAX_RADIUS) rounds to MAX_RADIUS, so only the lower clamp is written."""
    return max(MIN_RADIUS, 1.0 / max(abs(pp.curvature), 1.0 / MAX_RADIUS))


class ReferencePath:
    """Arc-length parameterized planar curve backed by a uniform sample table.

    The samples live in one read-only table of 11 rows: the squared length
    of the segment to the next sample, x, y, tx, ty, kappa, then their
    differences to the next sample.  Zero-length segments at the last
    sample's position pad its end for the batched projection's windows
    (:func:`_window_width`) and the batched look-ahead's 4-segment chunk to
    run into; the windows are two sliding-window views of the table, one of
    the x row and one of the y row.  The table takes 88 bytes per sample (1.8 MB
    per km at the default spacing).  The scalar queries read plain-float lists of the
    first eight rows, built once (0.64 MB per list per km), and the batched
    ones the spacing and last sample as 0-d arrays.  A ninth list, built with
    them, holds the hinted projection's per-sample normal bound (another
    0.64 MB per km): hinted windows up to 25 m walk from the hint
    (:meth:`_walk_nearest`); unhinted and wider ones scan with numpy.  The
    path also records its longest chord between neighbouring samples, which
    bounds how far the look-ahead scans may skip; a table whose samples all
    coincide has no such bound and is rejected.
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
        _check_spacing(spacing)
        width = _window_width(spacing)
        _check_samples(n + width - 1)
        if positions.shape != (n, 2) or tangents.shape != (n, 2) or curvatures.shape != (n,):
            raise ValueError("inconsistent sample table shapes")
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(tangents)) and np.all(np.isfinite(curvatures))):
            raise ValueError("non-finite path samples")
        norms = np.hypot(tangents[:, 0], tangents[:, 1])
        if np.any(norms == 0.0):
            raise ValueError("zero tangent sample")
        tangents = tangents / norms[:, None]
        t = np.zeros((11, n + width - 1))
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
        self._ds = spacing = float(spacing)
        self._total = spacing * (n - 1)
        self._table = t
        # Window j of the batched projection: the x, and the y, of samples j .. j + width - 1.
        self._wx, self._wy = sliding_window_view(t[_XY], width, axis=1)
        self._wseg = np.array((np.maximum(np.arange(width) - 1, 0), np.arange(width)))  # segments at sample i
        self.max_chord = max_chord  # bounds the look-ahead scans' skips
        # The batched queries' last sample, last segment (a float: fractions clamp before the int64 cast), the
        # same as an index, and spacing, as 0-d arrays (see _ZERO).
        self._nd_last, self._nd_last_seg, self._nd_last_j = np.array(n - 1.0), np.array(n - 2.0), np.array(n - 2)
        self._nd_ds = np.array(spacing)
        # The hinted projection's walk: the widest sample span it may answer, its tangential
        # tolerance and its per-sample normal bounds (built before the rows below, for a lower peak).
        self._walk_reach = min(n - 1, math.ceil((_WALK_WINDOW + 1.0) / spacing) + 3)
        self._walk_a = _WALK_A * spacing
        self._betal = _walk_bounds(*t[1:8:2, :n], spacing, self._walk_reach)
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

    def _point_at_fraction(self, j: int, f: float) -> PathPoint:
        txl, tyl, kl = self._txl, self._tyl, self._kl
        tx0, ty0, k0 = txl[j], tyl[j], kl[j]
        tx, ty = tx0 + (txl[j + 1] - tx0) * f, ty0 + (tyl[j + 1] - ty0) * f
        tn = hypot(tx, ty)
        tn = tn if tn > 1e-300 else 1e-300  # point_at_many's floor: a vanishing tangent stays (0, 0)
        position = (self._pxl[j] + self._dxl[j] * f, self._pyl[j] + self._dyl[j] * f)
        return PathPoint((j + f) * self._ds, position, (tx / tn, ty / tn), k0 + (kl[j + 1] - k0) * f)

    def point_at(self, s: float) -> PathPoint:
        """Evaluate position, unit tangent and curvature at arc length ``s``, under :meth:`point_at_many`'s
        rules: the fraction s / spacing is clamped to the table after the division, and the tangent is (0, 0)
        where the interpolated one vanishes."""
        last = self._n - 1.0
        u = float(s) / self._ds
        u = last if last < u else (0.0 if 0.0 > u else u)
        j = int(u)
        j = j if j < self._n - 2 else self._n - 2
        return self._point_at_fraction(j, u - j)

    def point_at_many(self, s: np.ndarray) -> np.ndarray:
        """Position, unit tangent and curvature at arc lengths of any shape, as rows x, y, tx, ty, kappa
        in front of that shape."""
        u = np.minimum(np.maximum(s / self._nd_ds, _ZERO), self._nd_last)
        j = np.minimum(u, self._nd_last_seg).astype(np.int64)
        g = self._table.take(j, axis=1)
        pts = g[_POINT] + g[_DIFF] * (u - j.astype(float))  # a float operand: mixed int/float ops cost more
        pts[2:4] /= np.maximum(np.hypot(pts[2], pts[3]), _TINY)
        return pts

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------

    def project(
        self,
        p: Vec2,
        s_hint: float | None = None,
        window: float | None = None,
    ) -> tuple[PathPoint, float]:
        """Closest point on the path to ``p``.

        With ``s_hint`` the search is local to [s_hint - 1, s_hint + window],
        ``window`` being ``_WALK_WINDOW`` (25 m) when None, and the returned
        arc length never falls below s_hint - 1 m, which prevents the
        projection from jumping backward on self-approaching paths.  With no
        hint the search is unguarded over [0, window], the whole path when
        ``window`` is None.  A NaN ``s_hint``, or a NaN or negative
        ``window``, is a ValueError; infinite hints clamp to the path's ends
        (-inf with an infinite window searches the whole path).

        The search window's first nearest sample comes from one of two
        places, with the same bits.  A hinted window spanning at most
        ``_walk_reach`` samples (every one up to 25 m) is walked from the
        hint's sample to a local minimum, stopping at the window's ends, which
        a certificate from per-sample bounds proves to be the scan's answer,
        float rounding included (:meth:`_walk_nearest` argues the margin).
        Unhinted and wider windows, and only the walks the certificate cannot
        vouch for, take the numpy scan, :meth:`_scan_nearest`.  The segments
        ending and starting at that sample, none before the guard's, are then
        solved under :meth:`project_many`'s rules in plain floats, squared
        with ``**``, which differs from ``x * x`` in the last bit on about
        0.1% of inputs, so the two are not swapped.
        """
        j, u, dd = self._nearest(p, s_hint, window)
        return self._point_at_fraction(j, u), sqrt(dd)

    def project_s(self, p: Vec2, s_hint: float | None = None, window: float | None = None) -> tuple[float, float]:
        """:meth:`project`'s arc length and distance, bit for bit, without building its PathPoint."""
        j, u, dd = self._nearest(p, s_hint, window)
        return (j + u) * self._ds, sqrt(dd)  # _point_at_fraction's arc length

    def _nearest(self, p: Vec2, s_hint: float | None, window: float | None) -> tuple[int, float, float]:
        """:meth:`project`'s search: the nearest point's segment, its fraction along it and its squared distance."""
        px, py = float(p[0]), float(p[1])
        n, ds, total = self._n, self._ds, self._total
        walk = s_hint is not None
        if not walk:  # from 0, unguarded, by the scan alone, to ``window`` or the last sample
            s_hint, window = 0.0, total if window is None else window
        elif window is None:
            window = _WALK_WINDOW
        s_hint = float(s_hint)
        if s_hint != s_hint:
            raise ValueError("s_hint is NaN")
        if not window >= 0.0:
            raise ValueError(f"window must be non-negative, got {window!r}")
        # ``b if b > a else a`` is max(a, b) and ``b if b < a else a`` is min(a, b), NaN and
        # -0.0 included, without the builtin call; hi_s takes the path end for -inf + inf's NaN.
        lo_s = s_hint - 1.0
        lo_s = 0.0 if 0.0 > lo_s else lo_s
        lo_s = total if total < lo_s else lo_s
        hi_s = s_hint + window
        hi_s = hi_s if total > hi_s else total
        hi_s = 0.0 if 0.0 > hi_s else hi_s
        ilo, ihi = int(lo_s / ds), int(hi_s / ds) + 2
        ihi = n if n < ihi else ihi
        walk = walk and 1 < ihi - ilo <= self._walk_reach + 1
        i0 = self._walk_nearest(px, py, ilo, ihi, s_hint if s_hint > lo_s else lo_s) if walk else -1
        if i0 < 0:
            i0 = self._scan_nearest(px, py, ilo, ihi)

        # The guard segment is the last one at most, even at lo_s = total.
        j_min = min(int(lo_s / ds), n - 2)
        pxl, pyl, dxl, dyl, seg2l = self._pxl, self._pyl, self._dxl, self._dyl, self._seg2l
        best_j, best_dd, best_u = -1, 0.0, 0.0
        for j in range(i0 - 1 if i0 - 1 > j_min else j_min, i0 + 1 if i0 + 1 < n - 1 else n - 1):
            seg2 = seg2l[j]  # a zero-length segment answers its vertex
            ax, ay, dx, dy = pxl[j], pyl[j], dxl[j], dyl[j]
            u = ((px - ax) * dx + (py - ay) * dy) / (seg2 if seg2 > 1e-300 else 1e-300)
            u_lo = lo_s / ds - j if j == j_min else 0.0
            u = u_lo if u_lo > u else u
            u = 1.0 if 1.0 < u else u
            cx, cy = ax + u * dx, ay + u * dy
            dd = (px - cx) ** 2 + (py - cy) ** 2
            if best_j < 0 or dd < best_dd:
                best_dd, best_j, best_u = dd, j, u
        return best_j, best_u, best_dd

    def _scan_nearest(self, px: float, py: float, ilo: int, ihi: int) -> int:
        """The first sample of ilo .. ihi - 1 nearest (px, py), by one numpy pass squared in place
        (numpy's ``a ** 2`` is ``a * a``)."""
        d = self._table[_XY, ilo:ihi] - ((px,), (py,))
        d *= d
        e = d[0]
        e += d[1]
        return ilo + int(e.argmin())

    def _walk_nearest(self, px: float, py: float, ilo: int, ihi: int, s_hint: float) -> int:
        """:meth:`_scan_nearest`'s sample, found by a walk from the hint's, or -1 when unproven.

        The walk moves from the hint's sample, clamped into the window, to a
        local minimum c of e_k = dx * dx + dy * dy, the scan's own float
        operations, so every e it compares has the scan's bits; a close-range
        tick takes two or three.  It walks downhill ahead, or behind when no
        step ahead is downhill, and stops at the window's first or last
        sample as at any other minimum: no window sample lies before the
        first or after the last.  The certificate then proves that every
        sample k of the window with |k - c| >= 2 has e_k > e_c, so the scan's
        first minimum is c - 1 when e_{c-1} == e_c and c otherwise; only a
        point the certificate cannot vouch for is left to the scan.

        Take q = p - x_c and s = x_k - x_c in c's tangent frame.  x_k lies
        strictly farther from p than x_c when s.q < |s|^2 / 2, and
        s.q <= |s| |q_t| + |s_n| |q_n|.  So |q_t| <= a (0.75 spacings) and
        |q_n| < beta_c = min over k of (|s|^2 / 2 - a |s|) / |s_n| prove it
        for every k at once; ``_walk_bounds`` builds beta per sample, over
        every k within ``_walk_reach`` samples.  NaN or infinite points fail
        both tests and scan.

        Float margin.  With u = 2^-53 and eps = 2^-40 = 2^13 u: computing q
        and its two components in the stored, not quite unit, tangent frame
        errs by at most 8u (a + cap) on each, which the bounds absorb by
        widening a and narrowing beta by eps (a + cap); cap is 1024 spacings,
        the largest beta stored.  The bounds subtract m = eps ((a + cap)^2 +
        span^2), span being the reach in metres, from each |s|^2 / 2 - a |s|,
        and add eps * span to each |s_n|: this covers their own rounding (a
        few u span^2 and u span) with room for the gap a certified point
        keeps, e_k - e_c > 2m, to beat the rounding of e_k and e_c, 4u each
        of at most |q|^2 + (e_k - e_c) with |q| <= a + cap.
        """
        xl, yl, last = self._pxl, self._pyl, ihi - 1
        u = s_hint / self._ds
        i = start = last if last < u else (ilo if ilo > u else int(u))
        dx, dy = xl[i] - px, yl[i] - py
        e = dx * dx + dy * dy
        while i < last:  # downhill ahead: e_{c-1} > e_c where the walk stops
            dx, dy = xl[i + 1] - px, yl[i + 1] - py
            e1 = dx * dx + dy * dy
            if not e1 < e:
                break
            i, e = i + 1, e1
        tie = False
        if i == start:  # no step ahead: downhill behind, to e_{c-1} >= e_c
            while i > ilo:
                dx, dy = xl[i - 1] - px, yl[i - 1] - py
                e1 = dx * dx + dy * dy
                if not e1 < e:
                    tie = e1 == e
                    break
                i, e = i - 1, e1
        qx, qy, tx, ty = px - xl[i], py - yl[i], self._txl[i], self._tyl[i]
        if self._walk_a >= abs(qx * tx + qy * ty) and self._betal[i] > abs(qy * tx - qx * ty):
            return i - 1 if tie else i
        return -1

    def project_many(self, pos: np.ndarray, s_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arc lengths and distances of a windowed exact projection per row of ``pos`` (x, then y),
        with a 1 m backward guard: the nearest sample of the window from the guard picks two segments,
        solved as (2, K) rows with x and y stacked.

        It answers ``project(p, s_hint=s_prev)`` wherever that answer lies in its window, 0.5 m past the guard at
        least: the arc length bit for bit and the distance within 2 ULP (``x * x`` against ``**``).  The scalar search
        reaches 25 m ahead, so on a path that comes back within 25 m (a hairpin) it may pick a later leg that this
        window cannot reach; the tuner keeps its steps short of the reach (``optimizer._MAX_STEP``).  An s_prev past
        the path end, +inf included, answers as the scalar hint does; a NaN one, which the scalar refuses, is not
        checked."""
        t = self._table
        lo_u = np.fmax(s_prev - _ONE, _ZERO) / self._nd_ds
        j_lo = np.minimum(lo_u, self._nd_last_seg).astype(np.int64)
        # The window from sample j_lo per row; the table's padding stands in for samples past the end.
        wx, wy = self._wx[j_lo], self._wy[j_lo]
        wx -= pos[0, :, None]
        wy -= pos[1, :, None]
        wx *= wx  # numpy's ** 2
        wy *= wy
        wx += wy
        # The segments ending and starting at the nearest sample, none before the window's first.
        jc = np.minimum(self._wseg.take(wx.argmin(axis=1), axis=1) + j_lo, self._nd_last_j)
        g = t[:5].take(jc, axis=1)  # seg2, x, dx, y, dy
        p = pos[:, None]
        r = p - g[1:4:2]
        r *= g[2:5:2]
        u = (r[0] + r[1]) / np.maximum(g[0], _TINY)
        guard = jc == j_lo
        if np.count_nonzero(guard):  # the guard segment's selects run only when needed
            np.maximum(u, np.where(guard, np.minimum(lo_u - j_lo, _ONE), _ZERO), out=u)
        else:
            np.maximum(u, _ZERO, out=u)
        np.minimum(u, _ONE, out=u)
        r = (p - (g[1:4:2] + g[2:5:2] * u)) ** 2
        dd = r[0] + r[1]
        s = jc.astype(float)
        s += u
        second = dd[1] < dd[0]
        np.putmask(s[0], second, s[1])
        np.putmask(dd[0], second, dd[1])
        return s[0] * self._nd_ds, np.sqrt(dd[0])

    def nearest_span(self, center: Vec2, radius: float) -> float:
        """An arc length S such that, for every point p within ``radius`` of ``center``, the path's
        first nearest sample to p lies in [0, S]: ``project_s(p, window=S)`` is then ``project_s(p)``
        bit for bit.  The path length when no shorter span is proven.

        Let k_c be the sample nearest the centre, at distance d_c, and S the arc length of the first
        sample from which every sample lies farther than d_c + 2 radius from the centre.  For
        |p - c| <= radius, each of those samples lies more than d_c + radius from p, and k_c at most
        d_c + radius, so none of them is as near as k_c, which lies before them, and the whole path's
        first nearest sample lies before S.  The threshold is raised by a relative 1e-9: the rounding
        of the distances here, of |p - c| and of the scan's squared distances is a few units in the
        last place, 2^-53 each, far inside that margin, so the scan's float order keeps the gap.
        """
        x, y = self._table[_XY, : self._n]
        d = np.hypot(x - center[0], y - center[1])
        reach = (d.min() + 2.0 * radius) * (1.0 + 1e-9)
        # The suffix minimum rises along the path, so the far samples are a suffix of it.
        far = np.count_nonzero(np.minimum.accumulate(d[::-1]) > reach)
        return self._ds * min(self._n - far, self._n - 1)

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
        Degenerate geometry never fails: it is reported through the result
        flags.  A NaN ``s_min`` is a ValueError; infinite ones clamp to the
        path's ends.
        """
        if not lookahead_dist > 0.0:
            raise ValueError("look-ahead distance must be positive")
        px, py = float(p[0]), float(p[1])
        ds, total, last = self._ds, self._total, self._n - 1
        s0 = float(s_min)
        if s0 != s0:
            raise ValueError("s_min is NaN")
        s0 = 0.0 if 0.0 > s0 else s0
        s0 = total if total < s0 else s0
        j0 = j = min(int(s0 / ds), last - 1)

        pxl, pyl, dxl, dyl, seg2l = self._pxl, self._pyl, self._dxl, self._dyl, self._seg2l
        max_chord, r2 = self.max_chord, lookahead_dist * lookahead_dist
        # Roots landing exactly on a table vertex jitter a hair outside [0, 1];
        # widen the acceptance band and clamp so seam roots are never dropped.
        # A skip leaves a full chord of margin, far wider than this band.
        eps = _SEAM_EPS
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
                # Only the segment holding s0 starts past -eps: strictly after s0,
                # even when s0 sits on its first vertex.
                u_lo = s0 / ds - j if j == j0 else -eps
                u = (-b - sq) / a
                if not u_lo < u <= 1.0 + eps:
                    u = (-b + sq) / a
                if u_lo < u <= 1.0 + eps:
                    u = 0.0 if 0.0 > u else u
                    return LookaheadResult(self._point_at_fraction(j, 1.0 if 1.0 < u else u))
            j += 1

        ex, ey = pxl[-1] - px, pyl[-1] - py
        if ex * ex + ey * ey < r2:
            return LookaheadResult(self.point_at(self._total), end_of_path=True)
        # No crossing anywhere ahead: fall back to the closest point over the
        # whole remaining path (forward-progress guard still applies).
        pp, _ = self.project(p, s_hint=s0, window=self._total)
        return LookaheadResult(pp, fallback=True)

    def lookahead_many(self, pos: np.ndarray, s_lb: np.ndarray, lookahead_dist: float):
        """First circle/path crossing after s_lb per row of ``pos`` (x, then y): :meth:`lookahead_point`'s answers, bit
        for bit; like its ``s_min``, an s_lb below 0 counts as 0 and one past the end, +inf included, as the end (a NaN
        one, which the scalar refuses, is not checked).

        One chunk of the 4 segments from the one holding s_lb, for the usual
        advance of 0-2 segments, answers most rows at once, under the scalar
        scan's root rules.  A row it misses ends the path when the scalar skip
        bound at the chunk's last vertex rules out a root on the rest of the
        path and the path end lies inside the circle; every other row takes
        :meth:`lookahead_point`.

        Returns the arc lengths, the rows that end the path, and None or the
        rows without a crossing with their points as rows x, y, tx, ty, kappa.
        """
        t, l2 = self._table, lookahead_dist * lookahead_dist
        u_s = np.maximum(s_lb, _ZERO) / self._nd_ds
        j = np.minimum(u_s, self._nd_last_seg).astype(np.int64)
        idx = _CHUNK + j  # segments as rows, states as columns
        g = t[:5].take(idx, axis=1)  # seg2, x, dx, y, dy
        a = g[0]
        r = g[1:4:2] - pos[:, None]  # the rays from the vehicles to the segments' starts
        b = r * g[2:5:2]
        b = b[0] + b[1]
        r *= r
        disc = b * b - a * (r[0] + r[1] - l2)
        ok = disc >= _ZERO
        if np.count_nonzero(ok) + np.count_nonzero(a) < 2 * a.size:  # a row without a root or a segment
            disc = np.where(ok & (a > _ZERO), disc, _NAN)  # NaN roots, never inside
        u = _MINUS_PLUS * np.sqrt(disc)
        u -= b
        u /= a  # the two roots, (-b - sq) / a <= (-b + sq) / a
        # Only the segment holding s_lb starts past -eps.
        u_lo = np.empty(idx.shape)
        u_lo[1:] = _SEAM_LO
        np.subtract(u_s, j.astype(float), out=u_lo[0])
        # The scalar scan's root: the first if it lies past the lower bound, else the second; it
        # counts if it is not past the upper bound (the second lies past the lower one whenever
        # the first does).
        past = u > u_lo
        root = u[1]
        has = past[1]
        np.putmask(root, past[0], u[0])
        has &= root <= _SEAM_HI
        # The first crossing is the least: s never decreases along the chunk, and scaling by ds keeps the least.
        s = idx.astype(float)
        s += np.minimum(np.maximum(root, _ZERO), _ONE)
        s_out = np.minimum.reduce(np.where(has, s, _INF), axis=0)
        s_out *= self._nd_ds
        hit = s_out < _INF
        if np.count_nonzero(hit) == hit.size:  # the usual case
            return s_out, _NO_ROWS, None
        return s_out, *self._lookahead_misses(pos, s_lb, lookahead_dist, s_out, np.flatnonzero(~hit), j)

    def _lookahead_misses(self, pos, s_lb, lookahead_dist, s_out, miss, j):
        """:meth:`lookahead_many`'s answers for the rows ``miss`` that its chunk from segments ``j`` missed, into
        ``s_out``; returns the rows that end the path and None or the fallback rows with their points.  The
        compiled rollout step (``optimizer``) hands its missed rows here too."""
        n, t, l2 = self._n, self._table, lookahead_dist * lookahead_dist
        # The rest of the path holds no root when the chunk reached its end, or when its last
        # vertex's distance differs from L1 by more than a chord per segment left (a nan skips nothing).
        (xm, ym), k = pos[:, miss], j[miss] + _CHUNK.size
        skip = np.abs(np.hypot(t[1].take(k) - xm, t[3].take(k) - ym) - lookahead_dist) / self.max_chord - 1.0
        ends = ((k >= n - 1) | (skip >= n - 1 - k)) & ((t[1, n - 1] - xm) ** 2 + (t[3, n - 1] - ym) ** 2 < l2)
        s_out[miss[ends]] = self._total
        end, fell, points = miss[ends].tolist(), [], []
        for i in miss[~ends].tolist():
            la = self.lookahead_point((pos[0, i], pos[1, i]), s_lb[i], lookahead_dist)
            pp = la.point
            s_out[i] = pp.s
            if la.end_of_path:
                end.append(i)
            elif la.fallback:
                fell.append(i)
                points.append((*pp.position, *pp.tangent, pp.curvature))
        fallback = (np.array(fell), np.array(points).T) if fell else None
        return np.array(sorted(end), dtype=np.int64), fallback

    def sample_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views of the sample rows (px, py, tx, ty, kappa)."""
        t, n = self._table, self._n
        return tuple(t[_POINT, :n])


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------


def _window_width(spacing: float) -> int:
    """Samples in a batched projection window: the fewest whose segments reach 1.5 m past its first; 32 at least."""
    return max(32, math.ceil(1.5 / spacing) + 1)


def _walk_bounds(
    x: np.ndarray, y: np.ndarray, tx: np.ndarray, ty: np.ndarray, spacing: float, reach: int
) -> list[float]:
    """Per sample c, the normal offset beta_c under which :meth:`ReferencePath._walk_nearest`'s certificate holds.

    beta_c is the least of (|s|^2 / 2 - A |s| - m) / (|s_n| + eps * span) over every sample k = c +- o,
    2 <= o <= ``reach``, with s = x_k - x_c, s_n its component normal to c's tangent and A = a + eps (a + cap)
    (the float margin is argued there), capped at 1024 spacings and narrowed by eps (a + cap).  Offsets up to
    ``_WALK_SINGLES`` are bounded one sample at a time.  Past them, a block of g samples between offsets o and
    o + g, g the largest power of two up to o / 2 (the last block is cut at ``reach``), is bounded at once by its
    two end samples A and B.  Consecutive samples lie at most a chord apart, so |s| >= lo = (|s(A)| + |s(B)|) / 2
    - g chords / 2 over the block.  Each block takes the lesser of two bounds on |s_n|: the chord bound |s_n| <=
    |s|, which may stand at lo since (x^2 / 2 - A x - m) / x rises with x, and the sagitta bound max(|s_n(A)|,
    |s_n(B)|) + w, its samples lying within w of the chord AB (w from the doubling w_2g(i) <= max(w_g(i),
    w_g(i + g)) + the distance from sample i + g to the chord from i to i + 2g), which a block cut shorter than
    the last doubling's g lacks.  Both ends of the path are extended along their tangents for the blocks that
    run past them; the extra points only add bounds.  Every pass is one numpy operation over the samples, so
    memory stays linear in the path (3-4 ms for the stock sinusoid).
    """
    n, pad = x.size, reach  # the last block ends at offset reach
    blocks = [(o, o) for o in range(2, min(_WALK_SINGLES, reach) + 1)]
    o = _WALK_SINGLES
    while o < reach:
        ob = min(o + (1 << ((o // 2).bit_length() - 1)), reach)
        blocks.append((o, ob))
        o = ob
    run = spacing * np.arange(pad, 0, -1)
    xp = np.concatenate((x[0] - run * tx[0], x, x[-1] + run[::-1] * tx[-1]))
    yp = np.concatenate((y[0] - run * ty[0], y, y[-1] + run[::-1] * ty[-1]))
    eps, a, cap = _WALK_EPS, _WALK_A * spacing, _WALK_CAP * spacing
    with np.errstate(all="ignore"):  # a table at the float range's edge gets NaN or negative bounds: it scans
        chord = float(np.sqrt(np.max(np.diff(xp) ** 2 + np.diff(yp) ** 2))) * (1.0 + eps)
        span = pad * chord
        A, m, slack = a + eps * (a + cap), eps * ((a + cap) ** 2 + span * span), eps * span
        beta = np.full(n, cap)
        g, w = 1, np.zeros(xp.size)  # w_g: samples i .. i + g lie within w_g(i) of their chord
        ends = {}
        for oa, ob in blocks:
            gap = ob - oa
            while 2 * g <= gap:  # double w_g up to the block's g; a block cut at reach is shorter than 2 g
                size = xp.size - 2 * g
                ux, uy = xp[2 * g :] - xp[:size], yp[2 * g :] - yp[:size]
                rx, ry = xp[g : g + size] - xp[:size], yp[g : g + size] - yp[:size]
                lam = (rx * ux + ry * uy) / np.maximum(ux * ux + uy * uy, 1e-300)
                np.clip(lam, 0.0, 1.0, out=lam)
                rx -= lam * ux
                ry -= lam * uy
                w2 = np.full(xp.size, np.inf)
                np.maximum(w[:size], w[g : g + size], out=w2[:size])
                w2[:size] += np.sqrt(rx * rx + ry * ry)
                g, w = 2 * g, w2
            # Offset ob's pairs (i, i + ob) of the extended samples, from i = pad - ob: c's forward
            # pair is at c + ob, its backward one at c.
            sx = xp[pad : pad + n + ob] - xp[pad - ob : pad + n]
            sy = yp[pad : pad + n + ob] - yp[pad - ob : pad + n]
            sn = []
            for i in (ob, 0):
                v = sy[i : i + n] * tx
                v -= sx[i : i + n] * ty
                np.abs(v, out=v)
                v += slack
                sn.append(v)
            ends = {oa: ends.get(oa), ob: (np.sqrt(sx * sx + sy * sy), sn)}
            (da, sna), (db, snb) = ends[oa], ends[ob]
            for k, (ia, ib, iw) in enumerate(((oa, ob, pad + oa), (0, 0, pad - ob))):
                # The least |s|, raised to A: x^2 / 2 - A x rises from x = A on and is negative below it.
                lo = da[ia : ia + n] + db[ib : ib + n]
                lo -= gap * chord
                lo *= 0.5
                np.maximum(lo, A, out=lo)
                num = lo * 0.5
                num -= A
                num *= lo
                num -= m
                hn = np.maximum(sna[k], snb[k])  # a single sample's own |s_n|
                if gap == g:  # the sagitta bound
                    hn += w[iw : iw + n]
                elif gap:  # a block cut at reach has none: the chord bound alone
                    hn = _INF
                num /= np.minimum(hn, lo)
                np.minimum(beta, num, out=beta)
        beta -= eps * (a + cap)
    return beta.tolist()


def _check_spacing(spacing: float) -> None:
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing!r}")


def _check_samples(count: float) -> None:
    if not count <= MAX_SAMPLES:
        raise ValueError(f"{count:.3g} samples exceed the limit of {MAX_SAMPLES:,} per table or grid")


def _uniform_grid(total: float, spacing: float) -> tuple[np.ndarray, float]:
    """The uniform grid over [0, ``total``] nearest ``spacing``, two samples at least: its arc lengths and spacing."""
    _check_spacing(spacing)
    _check_samples(total / spacing + 1.0)
    n = max(int(math.ceil(total / spacing)) + 1, 2)
    ds = total / (n - 1)
    return ds * np.arange(n), ds


def _from_parametric(t_fine: np.ndarray, curve: callable, spacing: float) -> ReferencePath:
    """Uniform arc-length table of ``curve(t)``: the position and its first two derivatives in t.

    Each comes as an (x, y) pair, which may hold scalars.  The cumulative trapezoid of the speed
    on the fine grid maps parameter to arc length, which is then inverted onto a uniform grid.
    The trapezoid runs over slices of ``_SLICE`` intervals, overlapping by one point, so
    ``curve``'s temporaries do not grow with the path.  Each slice's first segment takes the arc
    length carried in before its cumsum, so the sums add in the order of one whole-grid cumsum.
    """
    s_fine = np.empty(t_fine.size)
    s_fine[0] = 0.0
    for lo in range(0, t_fine.size - 1, _SLICE):
        t = t_fine[lo : lo + _SLICE + 1]
        speed = np.hypot(*curve(t)[1])
        seg = 0.5 * (speed[1:] + speed[:-1]) * np.diff(t)
        seg[0] += s_fine[lo]
        np.cumsum(seg, out=s_fine[lo + 1 : lo + t.size])
    total = float(s_fine[-1])
    if not total > 0.0:
        raise ValueError("degenerate path: zero length")
    s, ds = _uniform_grid(total, spacing)
    (x, y), (dx, dy), (ddx, ddy) = curve(np.interp(s, s_fine, t_fine))
    h = np.hypot(dx, dy)
    kappa = (dx * ddy - dy * ddx) / np.power(dx * dx + dy * dy, 1.5)
    return ReferencePath(np.column_stack([x, y]), np.column_stack([dx / h, dy / h]), kappa, ds)


def make_sinusoid_path(
    x_lo: float = 0.0, x_hi: float = 150.0, spacing: float = DEFAULT_SPACING
) -> ReferencePath:
    """Benchmark curve y(x) = 10 sin(0.078 x) + 20 cos(0.082 x) over [x_lo, x_hi]."""
    if not x_lo < x_hi:
        raise ValueError("empty domain: x_lo must be below x_hi")

    def curve(x):
        s1, c1, s2, c2 = np.sin(0.078 * x), np.cos(0.078 * x), np.sin(0.082 * x), np.cos(0.082 * x)
        return (x, 10.0 * s1 + 20.0 * c2), (1.0, 0.78 * c1 - 1.64 * s2), (0.0, -0.06084 * s1 - 0.13448 * c2)

    _check_samples((x_hi - x_lo) / 0.001 + 1.0)
    fine = np.linspace(x_lo, x_hi, max(int((x_hi - x_lo) / 0.001) + 1, 16))
    return _from_parametric(fine, curve, spacing)


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
    if sense not in SENSE_SIGN:
        raise ValueError(f"unknown sense {sense!r}")
    if not turns > 0.0:
        raise ValueError("turns must be positive")
    sign = SENSE_SIGN[sense]
    s, ds = _uniform_grid(2.0 * math.pi * radius * turns, spacing)
    theta = start_angle + sign * s / radius
    cx, cy = float(center[0]), float(center[1])
    positions = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
    tangents = np.column_stack([-sign * np.sin(theta), sign * np.cos(theta)])
    curvatures = np.full(s.size, sign / radius)
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
    s, ds = _uniform_grid(length, spacing)
    positions = np.column_stack([start[0] + ux * s, start[1] + uy * s])
    return ReferencePath(positions, np.tile([ux, uy], (s.size, 1)), np.zeros(s.size), ds)


def _knot_slopes(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slopes dy/dt at the knots ``t`` of the not-a-knot cubic spline through the rows of ``y``.

    scipy ``CubicSpline``'s equations: the parabola for 3 knots, else a tridiagonal system swept
    forward and back in plain floats.  They are homogeneous in the knot spacings, scaled to at
    most 1 so no product under- or overflows, and real, so one complex x + iy sweep solves both.
    """
    h = np.diff(t)
    m, h = np.diff(y[:, 0] + 1j * y[:, 1]) / h, h / h.max()
    if h.size == 2:
        c = (m[1] - m[0]) / (h[0] + h[1])
        s = np.array([m[0] - c * h[0], m[0] + c * h[0], m[1] + c * h[1]])
    else:
        w0, w1 = h[0] + h[1], h[-2] + h[-1]
        # Row i: lo[i] s[i - 1] + diag[i] s[i] + up[i] s[i + 1] = r[i]; r[n] = 0 ends the back sweep.
        lo = np.concatenate(([0.0], h[1:], [w1])).tolist()
        diag = np.concatenate(([h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]])).tolist()
        up = np.concatenate(([w0], h[:-1], [0.0])).tolist()
        r0 = ((h[0] + 2.0 * w0) * h[1] * m[0] + h[0] * h[0] * m[1]) / w0
        rn = (h[-1] * h[-1] * m[-2] + (2.0 * w1 + h[-1]) * h[-2] * m[-1]) / w1
        r = [r0, *(3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])).tolist(), rn, 0.0]
        for i in range(1, len(diag)):
            f = lo[i] / diag[i - 1]
            diag[i] -= f * up[i - 1]
            r[i] -= f * r[i - 1]
        for i in range(len(diag) - 1, -1, -1):
            r[i] = (r[i] - up[i] * r[i + 1]) / diag[i]
        s = np.array(r[:-1])
    return np.column_stack([s.real, s.imag])


def make_polyline_path(points, spacing: float = DEFAULT_SPACING) -> ReferencePath:
    """Path through (x, y) samples along their not-a-knot cubic spline in cumulative chord length.

    Non-finite points or chords are ValueErrors before any table is built, and so is a nearly
    repeated point: a chord under ``MIN_CHORD_RATIO`` (1e-6) of the longest makes the spline
    overshoot by orders of magnitude, and one under about 1e-162 m squares to 0 in the path queries.
    A spline past the float range fails ReferencePath's finite-sample check, without a numpy warning.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("polyline needs at least three (x, y) samples")
    if not np.isfinite(pts).all():
        raise ValueError("polyline has non-finite points")
    with np.errstate(all="ignore"):
        chord = np.hypot(*np.diff(pts, axis=0).T)
        if not np.isfinite(chord).all():
            raise ValueError("polyline has a chord past the float range")
        if np.min(chord) <= MIN_CHORD_RATIO * np.max(chord) or not np.min(chord) ** 2 > 0.0:
            raise ValueError(f"polyline has repeated consecutive points (chord {np.min(chord):.3g} m)")
        t_knots = np.concatenate(([0.0], np.cumsum(chord)))
        _check_spacing(spacing)
        _check_samples(t_knots[-1] / (spacing / 4.0) + 1.0)
        h, s = np.diff(t_knots), _knot_slopes(t_knots, pts)
        m = np.diff(pts, axis=0) / h[:, None]
        # Per chord, as (4, 2, chords): p0, v, a, b of p = p0 + tau (v + u (a + u b)), with u = tau / h.
        coef = np.array([pts[:-1], s[:-1], 3.0 * m - 2.0 * s[:-1] - s[1:], s[:-1] + s[1:] - 2.0 * m]).transpose(0, 2, 1)

        def curve(t):
            i = np.searchsorted(t_knots[1:-1], t, side="right")  # the chord holding t, ends included
            tau = t - t_knots[i]
            u = tau / h[i]
            p, v, a, b = np.take(coef, i, axis=2)
            return p + tau * (v + u * (a + u * b)), v + u * (2.0 * a + 3.0 * u * b), (2.0 * a + 6.0 * u * b) / h[i]

        fine = np.linspace(0.0, t_knots[-1], max(int(t_knots[-1] / (spacing / 4.0)) + 1, 32))
        return _from_parametric(fine, curve, spacing)
