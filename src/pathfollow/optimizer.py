"""Online gain selection by minimizing locally predicted RMS cross-track error.

Every update interval the closed loop is rolled out over a short horizon for
a grid of candidate gain pairs, and the pair with the lowest RMS cross-track
error wins.  The horizon adapts to the local path curvature: a short segment
where the path bends hard, a capped longer one where it is straight.

All candidates are propagated simultaneously as numpy arrays against the
shared immutable path, which keeps a full coarse-to-fine search cheap and
bit-deterministic: the reduction orders by (cost, k2, k1), so results do not
depend on evaluation order.
"""

from __future__ import annotations

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
    costs = _rollout_costs(
        path,
        state,
        s_min,
        sp0,
        np.array([gains.k1]),
        np.array([gains.k2]),
        gains.lookahead,
        dt,
        n_steps,
    )
    return float(costs[0])


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
        order = np.lexsort((k1s, k2s, costs))
        i = order[0]
        return float(k1s[i]), float(k2s[i]), float(costs[i])

    best_k1, best_k2, best_cost = pick(k1c, k2c, evaluate(k1c, k2c))

    delta = settings.k_max / (g - 1)
    for _ in range(settings.refine_rounds):
        half = delta / 2.0
        a1 = np.clip(np.linspace(best_k1 - half, best_k1 + half, g), 0.0, settings.k_max)
        a2 = np.clip(np.linspace(best_k2 - half, best_k2 + half, g), 0.0, settings.k_max)
        m1, m2 = [a.ravel() for a in np.meshgrid(a1, a2, indexing="ij")]
        costs = evaluate(m1, m2)
        # The incumbent competes with the refined grid so cost never regresses.
        m1 = np.append(m1, best_k1)
        m2 = np.append(m2, best_k2)
        costs = np.append(costs, best_cost)
        best_k1, best_k2, best_cost = pick(m1, m2, costs)
        delta = delta / (g - 1)

    if not math.isfinite(best_cost):
        return OptimizedGains(1.0, 0.0, math.inf, horizon, fallback=True)
    return OptimizedGains(best_k1, best_k2, best_cost, horizon)


# ----------------------------------------------------------------------
# Batched closed-loop rollout
# ----------------------------------------------------------------------


def _rollout_costs(
    path: ReferencePath,
    state: VehicleState,
    s_min: float,
    s_proj: float,
    k1s: np.ndarray,
    k2s: np.ndarray,
    lookahead_dist: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """RMS cross-track error per candidate gain pair over ``n_steps`` steps."""
    px, py, tx, ty, kap = path.sample_table()
    ds = path.spacing
    n = px.size
    total = path.total_length
    speed = state.speed

    k = k1s.size
    x = np.full(k, state.x)
    y = np.full(k, state.y)
    psi = np.full(k, state.heading)
    s_lb = np.full(k, min(max(s_min, 0.0), total))
    sp = np.full(k, min(max(s_proj, 0.0), total))
    ended = np.zeros(k, dtype=bool)
    cte_sq = np.zeros(k)

    two_v2 = 2.0 * speed * speed

    for _ in range(n_steps):
        hx = np.cos(psi)
        hy = np.sin(psi)

        sp, cx, cy, pdist, ttx, tty = _project_batch(px, py, tx, ty, ds, n, x, y, sp)
        cte_sq += pdist * pdist

        s2, p2x, p2y, t2x, t2y, kap2, end_now = _lookahead_batch(
            path, px, py, tx, ty, kap, ds, n, total, x, y, s_lb, lookahead_dist
        )
        ended |= end_now
        s_lb = np.maximum(s_lb, s2)

        rx = p2x - x
        ry = p2y - y
        d12 = np.hypot(rx, ry)
        eta12 = np.arctan2(hx * ry - hy * rx, hx * rx + hy * ry)
        eta12 = np.where(eta12 <= -np.pi, eta12 + TWO_PI, eta12)

        den = ttx * hx + tty * hy
        degen = np.abs(den) < PARALLEL_EPS
        dens = np.where(degen, 1.0, den)
        tpar = ((p2x - cx) * hx + (p2y - cy) * hy) / dens
        p4x = np.where(degen, p2x, cx + tpar * ttx)
        p4y = np.where(degen, p2y, cy + tpar * tty)

        q = rx * hx + ry * hy
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

        inv_max = 1.0 / MAX_RADIUS
        r_l1 = np.minimum(MAX_RADIUS, np.maximum(MIN_RADIUS, 1.0 / np.maximum(np.abs(kap2), inv_max)))

        cosb = (t2x * rx + t2y * ry) / np.maximum(d12, 1e-12)
        cb = np.where(cosb >= 0.0, np.maximum(cosb, COS_BETA_MIN), np.minimum(cosb, -COS_BETA_MIN))
        v_l = np.clip(speed * np.cos(eta12) / cb, 0.0, LOOKAHEAD_SPEED_CAP * speed)
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


_PROJ_WINDOW = 32


def _project_batch(px, py, tx, ty, ds, n, x, y, sp_prev):
    """Windowed exact polyline projection with a 1 m backward guard."""
    lo = np.maximum(sp_prev - 1.0, 0.0)
    j_lo = np.minimum((lo / ds).astype(np.int64), n - 2)
    idx = j_lo[:, None] + np.arange(_PROJ_WINDOW)[None, :]
    np.clip(idx, 0, n - 1, out=idx)
    d2 = (px[idx] - x[:, None]) ** 2 + (py[idx] - y[:, None]) ** 2
    i_star = j_lo + np.argmin(d2, axis=1)
    np.clip(i_star, 0, n - 1, out=i_star)

    best_d2 = None
    best_s = None
    for j_cand in (np.maximum(i_star - 1, j_lo), np.minimum(np.maximum(i_star, j_lo), n - 2)):
        j_cand = np.minimum(j_cand, n - 2)
        ax = px[j_cand]
        ay = py[j_cand]
        dxs = px[j_cand + 1] - ax
        dys = py[j_cand + 1] - ay
        seg2 = np.maximum(dxs * dxs + dys * dys, 1e-300)
        u = ((x - ax) * dxs + (y - ay) * dys) / seg2
        u_min = np.where(j_cand == j_lo, np.clip(lo / ds - j_lo, 0.0, 1.0), 0.0)
        u = np.clip(u, u_min, 1.0)
        qx = ax + u * dxs
        qy = ay + u * dys
        dd = (x - qx) ** 2 + (y - qy) ** 2
        s_cand = (j_cand + u) * ds
        if best_d2 is None:
            best_d2, best_s = dd, s_cand
        else:
            better = dd < best_d2
            best_d2 = np.where(better, dd, best_d2)
            best_s = np.where(better, s_cand, best_s)

    cx, cy, ttx, tty, _ = _interp_all(px, py, tx, ty, None, ds, n, best_s)
    return best_s, cx, cy, np.sqrt(best_d2), ttx, tty


_LOOK_CHUNK = 16


def _lookahead_batch(path, px, py, tx, ty, kap, ds, n, total, x, y, s_lb, lookahead_dist):
    """First circle/path crossing after s_lb per candidate, scanned in chunks.

    Same answers as :meth:`ReferencePath.lookahead_point`, with the same skip
    bound.  Every row scans to the path end; chunks grow so the common
    one-segment advance costs one small scan, and each chunk covers only the
    rows still unresolved.  Rows with no crossing resolve to the path
    endpoint (end flag) when it lies inside the look-ahead circle, otherwise
    to the guarded closest point, which the scalar query computes for those
    (rare) rows.
    """
    j_orig = np.minimum((s_lb / ds).astype(np.int64), n - 2)
    u_first = s_lb / ds - j_orig
    s_out = np.full(x.size, total)
    found = np.zeros(x.size, dtype=bool)
    j_cur = j_orig.copy()
    l2 = lookahead_dist * lookahead_dist
    # Same vertex-seam tolerance as the scalar path query.
    eps = 1e-9

    rows = np.arange(x.size)
    width = _LOOK_CHUNK
    while rows.size:
        # No root lies within gap / max_chord - 1 segments of a vertex whose
        # distance differs from L1 by gap (a nan state skips nothing).
        j = j_cur[rows]
        gap = np.abs(np.hypot(px[j] - x[rows], py[j] - y[rows]) - lookahead_dist)
        skip = gap / path.max_chord - 1.0
        j_cur[rows] = j + np.where(skip >= 1.0, np.minimum(skip, n), 0.0).astype(np.int64)
        rows = rows[j_cur[rows] <= n - 2]
        if not rows.size:
            break
        idx = j_cur[rows, None] + np.arange(width)
        valid = idx <= n - 2
        np.minimum(idx, n - 2, out=idx)
        ax = px[idx]
        ay = py[idx]
        dxs = px[idx + 1] - ax
        dys = py[idx + 1] - ay
        rxs = ax - x[rows, None]
        rys = ay - y[rows, None]
        a = dxs * dxs + dys * dys
        b = rxs * dxs + rys * dys
        c = rxs * rxs + rys * rys - l2
        disc = b * b - a * c
        ok = (disc >= 0.0) & valid & (a > 0.0)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        sa = np.where(ok, a, 1.0)
        u1 = (-b - sq) / sa
        u2 = (-b + sq) / sa
        u_lo = np.where(idx == j_orig[rows, None], u_first[rows, None], -eps)
        c1 = ok & (u1 > u_lo) & (u1 <= 1.0 + eps)
        c2 = ok & (u2 > u_lo) & (u2 <= 1.0 + eps)
        upick = np.where(c1, u1, np.where(c2, u2, np.nan))
        has = ~np.isnan(upick)
        hit = has.any(axis=1)
        kf = np.argmax(has, axis=1)
        r = np.arange(rows.size)
        s_out[rows[hit]] = ((idx[r, kf] + np.clip(upick[r, kf], 0.0, 1.0)) * ds)[hit]
        found[rows[hit]] = True
        j_cur[rows] += width
        rows = rows[~hit & (j_cur[rows] <= n - 2)]
        width = min(width * 4, 64)

    end_mask = ~found & ((px[-1] - x) ** 2 + (py[-1] - y) ** 2 < l2)
    p2x, p2y, t2x, t2y, kap2 = _interp_all(px, py, tx, ty, kap, ds, n, s_out)
    for i in np.flatnonzero(~found & ~end_mask):
        pp, _ = path.project((x[i], y[i]), s_hint=s_lb[i], window=total)
        s_out[i] = pp.s
        p2x[i], p2y[i] = pp.position
        t2x[i], t2y[i] = pp.tangent
        kap2[i] = pp.curvature
    return s_out, p2x, p2y, t2x, t2y, kap2, end_mask


def _interp_all(px, py, tx, ty, kap, ds, n, s):
    """Linear table interpolation of position, unit tangent and curvature."""
    u = np.clip(s / ds, 0.0, n - 1)
    j = np.minimum(u.astype(np.int64), n - 2)
    f = u - j
    ix = px[j] + (px[j + 1] - px[j]) * f
    iy = py[j] + (py[j + 1] - py[j]) * f
    itx = tx[j] + (tx[j + 1] - tx[j]) * f
    ity = ty[j] + (ty[j + 1] - ty[j]) * f
    tn = np.maximum(np.hypot(itx, ity), 1e-300)
    itx = itx / tn
    ity = ity / tn
    if kap is None:
        return ix, iy, itx, ity, None
    ik = kap[j] + (kap[j + 1] - kap[j]) * f
    return ix, iy, itx, ity, ik
