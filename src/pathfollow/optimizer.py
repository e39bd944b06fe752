"""Online gain selection by minimizing locally predicted RMS cross-track error.

Every update interval the closed loop is rolled out over a short horizon for
a grid of candidate gain pairs, and the pair with the lowest RMS cross-track
error wins.  The horizon adapts to the local path curvature: a short segment
where the path bends hard, a capped longer one where it is straight.

All candidates are propagated together as numpy arrays, each row bit for bit
independent of the others, against the path's samples and segments stacked
once per rollout.  A step costs a fixed number of numpy calls: the look-ahead
scan resolves most rows in a first chunk of 4 segments and goes on in chunks
of 16, then 64.  The search is bit-deterministic: the reduction orders by
(cost, k2, k1), so results do not depend on evaluation order, and a refine
round rolls out each distinct clipped gain value once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geom import PARALLEL_EPS, TWO_PI
from .guidance import (
    COS_BETA_MIN,
    GuidanceGains,
    LOOKAHEAD_SPEED_CAP,
    MIN_TARGET_DIST,
    WEIGHT_EPS,
    track_projection,
)
from .path import MAX_RADIUS, MIN_RADIUS, ReferencePath, curvature_radius
from .vehicle import VehicleState, step_arrays


@dataclass(frozen=True)
class OptimizerSettings:
    """Search box, grid resolution and horizon cap for the online tuner."""

    k_max: float = 10.0
    grid: int = 11
    refine_rounds: int = 2
    d_limit: float = 20.0

    def __post_init__(self):
        if not self.k_max > 0.0:
            raise ValueError("k_max must be positive")
        if self.grid < 3:
            raise ValueError("grid must be at least 3")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be non-negative")
        if not self.d_limit > 0.0:
            raise ValueError("d_limit must be positive")


@dataclass(frozen=True)
class OptimizedGains:
    k1: float
    k2: float
    cost: float
    horizon: float
    fallback: bool = False


def adaptive_interval(
    state: VehicleState, path: ReferencePath, d_limit: float, s_hint: float | None = None
) -> float:
    """Gain-update interval: min(d_limit, curvature radius at the vehicle's
    projection) divided by the vehicle speed."""
    pp, _ = path.project(state.position, s_hint=s_hint)
    r_proj = curvature_radius(pp)
    return min(d_limit, r_proj) / state.speed


def rollout_cost(
    state: VehicleState,
    path: ReferencePath,
    s_min: float,
    gains: GuidanceGains,
    horizon: float,
    dt: float,
    s_proj: float | None = None,
) -> float:
    """RMS cross-track error of a closed-loop rollout with fixed gains.

    Clones the mission state and propagates the blended law over ``horizon``
    at the mission time step.  Deterministic for identical inputs; geometry
    breakdowns surface as an infinite cost.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    n_steps = max(1, int(round(horizon / dt)))
    sp0 = float(s_proj) if s_proj is not None else track_projection(state, path, s_min, gains.lookahead)[0].s
    k1, k2 = np.array([gains.k1]), np.array([gains.k2])
    return float(_rollout_costs(path, state, s_min, sp0, k1, k2, gains.lookahead, dt, n_steps)[0])


def optimize_gains(
    state: VehicleState,
    path: ReferencePath,
    s_min: float,
    settings: OptimizerSettings,
    lookahead_dist: float,
    dt: float,
    s_proj: float | None = None,
) -> OptimizedGains:
    """Coarse-to-fine grid search for the gain pair with least local cost.

    A uniform grid over [0, k_max]^2 is evaluated first (always including the
    baseline pair (1, 0)), then the winning cell is halved and re-gridded for
    each refinement round.  Ties break toward smaller k2, then smaller k1.
    If every candidate is infeasible the baseline pair is returned with the
    fallback flag set.
    """
    horizon = adaptive_interval(state, path, settings.d_limit, s_hint=s_proj)
    n_steps = max(1, int(round(horizon / dt)))
    sp0 = float(s_proj) if s_proj is not None else track_projection(state, path, s_min, lookahead_dist)[0].s

    g = settings.grid
    axis = np.linspace(0.0, settings.k_max, g)
    k1c, k2c = [a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")]
    if not np.any((k1c == 1.0) & (k2c == 0.0)):
        k1c = np.append(k1c, 1.0)
        k2c = np.append(k2c, 0.0)

    def evaluate(k1s, k2s):
        return _rollout_costs(path, state, s_min, sp0, k1s, k2s, lookahead_dist, dt, n_steps)

    def pick(k1s, k2s, costs):
        i = np.lexsort((k1s, k2s, costs))[0]
        return float(k1s[i]), float(k2s[i]), float(costs[i])

    best_k1, best_k2, best_cost = pick(k1c, k2c, evaluate(k1c, k2c))

    delta = settings.k_max / (g - 1)
    for _ in range(settings.refine_rounds):
        half = delta / 2.0
        # Distinct clipped values only (a winner on the box edge clips half an
        # axis onto it): rows roll out independently and pick sorts on the
        # full key, so duplicates cannot change the pick.
        axes = [np.linspace(b - half, b + half, g) for b in (best_k1, best_k2)]
        a1, a2 = (np.unique(np.minimum(np.maximum(a, 0.0), settings.k_max)) for a in axes)
        m1, m2 = [a.ravel() for a in np.meshgrid(a1, a2, indexing="ij")]
        # The incumbent competes with the refined grid so cost never regresses.
        costs = np.append(evaluate(m1, m2), best_cost)
        best_k1, best_k2, best_cost = pick(np.append(m1, best_k1), np.append(m2, best_k2), costs)
        delta = delta / (g - 1)

    if not math.isfinite(best_cost):
        return OptimizedGains(1.0, 0.0, math.inf, horizon, fallback=True)
    return OptimizedGains(best_k1, best_k2, best_cost, horizon)


# ----------------------------------------------------------------------
# Batched closed-loop rollout
# ----------------------------------------------------------------------

_LOOK_WIDTHS = (4, 16, 64)  # look-ahead chunk widths; later chunks reuse the last
_OFFSETS = np.arange(_LOOK_WIDTHS[-1])
# Rows of _Table.t: a segment's start x, y, vector dx, dy and squared length,
# then the rest of the samples; row _DIFFS[i] differences row _VALUES[i].
_VALUES = [0, 1, 5, 6, 7]  # x, y, tx, ty, kappa
_DIFFS = [2, 3, 8, 9, 10]
_BLOCK_CELLS = 1 << 17  # guarded projection: rows per block times samples (~1 MB)
_COARSE = 16  # guarded projection: samples per stretch of its coarse pass


class _Table:
    """A path's samples and segments stacked for the batched kernel, built per rollout call
    (not cached on the path, so missions that never tune their gains pay nothing for it).
    Zero-length segments follow the last sample, for a look-ahead chunk to run into."""

    def __init__(self, path: ReferencePath):
        n = self.n = path.sample_table()[0].size
        t = self.t = np.zeros((11, n - 1 + _LOOK_WIDTHS[-1]))
        for v, d, col in zip(_VALUES, _DIFFS, path.sample_table()):
            t[v, :n] = col
            np.subtract(col[1:], col[:-1], out=t[d, : n - 1])
        t[4] = t[2] * t[2] + t[3] * t[3]
        self.ds, self.total, self.max_chord = path.spacing, path.total_length, path.max_chord


def _rollout_costs(path, state, s_min, s_proj, k1s, k2s, lookahead_dist, dt, n_steps) -> np.ndarray:
    """RMS cross-track error per candidate gain pair over ``n_steps`` steps.

    Rows are independent bit for bit: a subset of the candidates rolls out to the same costs."""
    tab = _Table(path)
    speed = state.speed

    k = k1s.size
    x = np.full(k, state.x)
    y = np.full(k, state.y)
    psi = np.full(k, state.heading)
    s_lb = np.full(k, min(max(s_min, 0.0), tab.total))
    sp = np.full(k, min(max(s_proj, 0.0), tab.total))
    ended = np.zeros(k, dtype=bool)
    cte_sq = np.zeros(k)

    two_v2 = 2.0 * speed * speed
    inv_max = 1.0 / MAX_RADIUS

    for _ in range(n_steps):
        hx = np.cos(psi)
        hy = np.sin(psi)

        sp, pdist = _project_batch(tab, x, y, sp)
        cte_sq += pdist * pdist

        s2, end_rows, fallback = _lookahead_batch(tab, x, y, s_lb, lookahead_dist)
        ended[end_rows] = True
        s_lb = np.maximum(s_lb, s2)

        # One table interpolation for the projections and the look-ahead points.
        pts = _interp_all(tab, np.concatenate((sp, s2)))
        if fallback is not None:
            pts[:, k + fallback[0]] = fallback[1]
        cx, cy, ttx, tty = pts[:4, :k]
        p2x, p2y, t2x, t2y, kap2 = pts[:, k:]

        rx = p2x - x
        ry = p2y - y
        d12 = np.hypot(rx, ry)
        q = hx * rx + hy * ry
        eta12 = np.arctan2(hx * ry - hy * rx, q)
        eta12 = np.where(eta12 <= -np.pi, eta12 + TWO_PI, eta12)

        den = ttx * hx + tty * hy
        degen = np.abs(den) < PARALLEL_EPS
        dens = np.where(degen, 1.0, den)
        tpar = ((p2x - cx) * hx + (p2y - cy) * hy) / dens
        p4x = np.where(degen, p2x, cx + tpar * ttx)
        p4y = np.where(degen, p2y, cy + tpar * tty)

        p3x = x + q * hx
        p3y = y + q * hy
        l23 = np.hypot(p2x - p3x, p2y - p3y)
        l43 = np.hypot(p4x - p3x, p4y - p3y)
        lcx = p4x - x
        lcy = p4y - y
        lc = np.hypot(lcx, lcy)
        eta14 = np.arctan2(hx * lcy - hy * lcx, hx * lcx + hy * lcy)
        eta14 = np.where(eta14 <= -np.pi, eta14 + TWO_PI, eta14)
        eta14 = np.where(lc > 0.0, eta14, 0.0)

        r_l1 = np.minimum(MAX_RADIUS, np.maximum(MIN_RADIUS, 1.0 / np.maximum(np.abs(kap2), inv_max)))

        cosb = (t2x * rx + t2y * ry) / np.maximum(d12, 1e-12)
        cb = np.where(cosb >= 0.0, np.maximum(cosb, COS_BETA_MIN), np.minimum(cosb, -COS_BETA_MIN))
        v_l = np.minimum(np.maximum(speed * np.cos(eta12) / cb, 0.0), LOOKAHEAD_SPEED_CAP * speed)
        v_m = 0.5 * (speed + v_l)

        a12 = two_v2 * np.sin(eta12) / np.maximum(d12, MIN_TARGET_DIST)
        a14 = two_v2 * np.sin(eta14) / np.maximum(lc, MIN_TARGET_DIST)
        w1 = k1s * r_l1 / (1.0 + l23)
        w2 = k2s * v_m / (r_l1 * (1.0 + l43))
        wsum = w1 + w2
        blended = np.where(
            (wsum < WEIGHT_EPS) | (w2 == 0.0),
            a12,
            np.where(w1 == 0.0, a14, (w1 * a12 + w2 * a14) / np.where(wsum < WEIGHT_EPS, 1.0, wsum)),
        )
        cmd = np.where(ended, 0.0, blended)

        x, y, psi = step_arrays(x, y, psi, cmd, speed, dt)

    costs = np.sqrt(cte_sq / n_steps)
    return np.where(np.isfinite(costs), costs, np.inf)


def _project_batch(tab, x, y, sp_prev):
    """Arc length and distance of a windowed exact projection with a 1 m backward guard:
    the nearest of 32 samples from the guard picks two segments, solved as one (K, 2) array."""
    n = tab.n
    lo_u = np.fmax(sp_prev - 1.0, 0.0) / tab.ds
    j_lo = np.minimum(lo_u.astype(np.int64), n - 2)
    sx, sy = np.take(tab.t[:2], np.minimum(j_lo[:, None] + _OFFSETS[:32], n - 1), axis=1)
    xc, yc = x[:, None], y[:, None]
    i_star = j_lo + np.argmin((sx - xc) ** 2 + (sy - yc) ** 2, axis=1)
    # The segments ending and starting at the nearest sample.
    jc = np.minimum(np.maximum(i_star[:, None] - np.array([1, 0]), j_lo[:, None]), n - 2)
    ax, ay, dxs, dys, a = np.take(tab.t[:5], jc, axis=1)
    u = ((xc - ax) * dxs + (yc - ay) * dys) / np.maximum(a, 1e-300)
    u_min = np.where(jc == j_lo[:, None], np.minimum(lo_u - j_lo, 1.0)[:, None], 0.0)
    u = np.minimum(np.maximum(u, u_min), 1.0)
    dd = (xc - (ax + u * dxs)) ** 2 + (yc - (ay + u * dys)) ** 2
    s_cand = (jc + u) * tab.ds
    second = dd[:, 1] < dd[:, 0]
    return np.where(second, s_cand[:, 1], s_cand[:, 0]), np.sqrt(np.where(second, dd[:, 1], dd[:, 0]))


def _lookahead_batch(tab, x, y, s_lb, lookahead_dist):
    """First circle/path crossing after s_lb per candidate, scanned in chunks.

    Same answers as :meth:`ReferencePath.lookahead_point`.  Rows scan the
    segments in path order and the scalar skip bound passes only segments
    without a root, so chunk widths and skip tests do not change the first
    crossing.  The first chunk, 4 wide for the usual advance of 0-2
    segments, skips nothing; chunks of 16, then 64 cover the rows left.

    Returns the arc lengths, the rows that end the path (no crossing, end inside the
    circle), and the other rows without one with their :func:`_guarded_projection` points.
    """
    n = tab.n
    l2 = lookahead_dist * lookahead_dist
    eps = 1e-9  # the scalar query's vertex-seam tolerance
    u_s = s_lb / tab.ds
    j = np.minimum(u_s.astype(np.int64), n - 2)
    # Only the segment holding s_lb starts past -eps.
    u_lo = np.where(_OFFSETS[: _LOOK_WIDTHS[0]] == 0, (u_s - j)[:, None], -eps)
    s_out = np.full(x.size, np.nan)
    rows, xr, yr = np.arange(x.size), x, y
    for chunk, width in enumerate(itertools.chain(_LOOK_WIDTHS, itertools.repeat(_LOOK_WIDTHS[-1]))):
        while chunk:
            # No root lies within gap / max_chord - 1 segments of a vertex whose distance differs
            # from L1 by gap (a nan state skips nothing); past the end a row waits on padding.
            gap = np.abs(np.hypot(np.take(tab.t[0], j) - xr, np.take(tab.t[1], j) - yr) - lookahead_dist)
            skip = gap / tab.max_chord - 1.0
            jump = (skip >= 1.0) & (j < n - 1)
            if not jump.any():
                break
            j = np.minimum(j + np.where(jump, np.minimum(skip, n), 0.0).astype(np.int64), n - 1)
        if chunk and (j == n - 1).all():
            break  # every row left has skipped past the last segment
        idx = j[:, None] + _OFFSETS[:width]
        ax, ay, dxs, dys, a = np.take(tab.t[:5], idx, axis=1)
        rxs, rys = ax - xr[:, None], ay - yr[:, None]
        nb = -(rxs * dxs + rys * dys)
        disc = nb * nb - a * (rxs * rxs + rys * rys - l2)
        ok = (disc >= 0.0) & (a > 0.0)
        sq, sa = np.sqrt(np.where(ok, disc, 0.0)), np.where(ok, a, 1.0)
        u1, u2 = (nb - sq) / sa, (nb + sq) / sa
        lo = u_lo if chunk == 0 else -eps
        in1 = (u1 > lo) & (u1 <= 1.0 + eps)
        has = ok & (in1 | ((u2 > lo) & (u2 <= 1.0 + eps)))
        hit = has.any(axis=1)
        hr = np.flatnonzero(hit)
        if hr.size:
            kf = has[hr].argmax(axis=1)
            u = np.where(in1[hr, kf], u1[hr, kf], u2[hr, kf])
            s_out[rows[hr]] = (idx[hr, kf] + np.minimum(np.maximum(u, 0.0), 1.0)) * tab.ds
        j = j + width
        keep = ~hit & (j <= n - 2)
        if not keep.any():
            break
        rows, xr, yr, j = rows[keep], xr[keep], yr[keep], j[keep]

    miss = np.flatnonzero(np.isnan(s_out))
    if not miss.size:
        return s_out, miss, None
    s_out[miss] = tab.total
    inside = (tab.t[0, n - 1] - x[miss]) ** 2 + (tab.t[1, n - 1] - y[miss]) ** 2 < l2
    far = miss[~inside]
    s_out[far], points = _guarded_projection(tab, x[far], y[far], s_lb[far])
    return s_out, miss[inside], (far, points)


def _guarded_projection(tab, x, y, s_hint):
    """``ReferencePath.project(p, s_hint, window=total)`` for many rows, bit for bit.

    Same arithmetic, 1e-18 tie rule and zero-length-segment branch as the scalar
    query.  Returns the arc lengths and the points as rows x, y, tx, ty, kappa.
    """
    n, ds, m = tab.n, tab.ds, x.size
    lo_s = np.minimum(np.maximum(s_hint - 1.0, 0.0), tab.total)
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
        dc = np.sqrt((tab.t[0, first] - xs) ** 2 + (tab.t[1, first] - ys) ** 2)
        bound = np.min(dc, axis=1, where=first >= lo, initial=np.inf, keepdims=True)
        near = (dc - _COARSE * tab.max_chord <= bound) & (first + _COARSE > lo)
        start = np.maximum(first[near.argmax(axis=1)], lo[:, 0])
        stop = np.minimum(first[near.shape[1] - 1 - near[:, ::-1].argmax(axis=1)] + _COARSE, n)
        idx = np.minimum(start[:, None] + np.arange((stop - start).max()), stop[:, None] - 1)
        sx, sy = np.take(tab.t[0], idx), np.take(tab.t[1], idx)
        i0[b : b + block] = start + np.argmin((sx - xs) ** 2 + (sy - ys) ** 2, axis=1)

    # Segments i0 - 2 .. i0 + 1, in the scalar loop's order.
    jmin = np.minimum(ilo, n - 2)
    guard = lo_s > 0.0
    j = i0 + np.arange(-2, 2)[:, None]
    ax, ay, dx, dy, seg2 = np.take(tab.t[:5], np.minimum(np.maximum(j, 0), n - 2), axis=1)
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
    g = np.take(tab.t, jf, axis=1)
    pts = g[_VALUES] + g[_DIFFS] * f
    # math.hypot, as in the scalar query: np.hypot differs in the last bit on ~1% of inputs.
    tn = np.fromiter(map(math.hypot, pts[2].tolist(), pts[3].tolist()), float, m)
    pts[2:4] = np.where(tn == 0.0, tab.t[5:7, jf], pts[2:4] / np.where(tn == 0.0, 1.0, tn))
    return (jf + f) * ds, pts


def _interp_all(tab, s):
    """Linear table interpolation of position, unit tangent and curvature (5, m)."""
    u = np.minimum(np.maximum(s / tab.ds, 0.0), tab.n - 1)
    j = np.minimum(u.astype(np.int64), tab.n - 2)
    g = np.take(tab.t, j, axis=1)
    pts = g[_VALUES] + g[_DIFFS] * (u - j)
    pts[2:4] /= np.maximum(np.hypot(pts[2], pts[3]), 1e-300)
    return pts
