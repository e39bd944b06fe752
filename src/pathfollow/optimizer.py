"""Online gain selection by minimizing locally predicted RMS cross-track error.

Every update interval the closed loop is rolled out over a short horizon for
a grid of candidate gain pairs, and the pair with the lowest RMS cross-track
error wins.  The horizon adapts to the local path curvature: a short segment
where the path bends hard, a capped longer one where it is straight.

All candidates are propagated together as numpy arrays, each row bit for bit
independent of the others, through the path's batched queries
(:meth:`ReferencePath.project_many`, :meth:`~ReferencePath.lookahead_many`,
:meth:`~ReferencePath.point_at_many`), :func:`guidance.blended_many` and
:func:`vehicle.step_arrays`, so a step costs a fixed number of numpy calls.
One call serves several where it can: the headings' cos and sin feed both the
law and the step, and each transcendental runs once over stacked rows.  That
is exact, because numpy's float64 ufuncs give an element the same bits in any
array (tests/test_rollout_kernel.py).  The search is bit-deterministic:
the reduction orders by (cost, k2, k1), so results do not depend on
evaluation order, and a round rolls out each distinct clipped gain value
once, plus the incumbent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .guidance import GuidanceGains, blended_many, track_projection
from .path import ReferencePath, curvature_radius
from .vehicle import VehicleState, step_arrays

# Most grid points per axis: a search round rolls out up to grid^2 + 1 rows at
# about 1 KB each (9.8 MB at 101); a larger grid is refused up front.
MAX_GRID = 101
# Most steps in one rollout, min(d_limit, MAX_RADIUS) / speed / dt (400 in the
# stock scenario); a scenario whose tuner could ask for more is refused up front.
MAX_ROLLOUT_STEPS = 10_000


@dataclass(frozen=True)
class OptimizerSettings:
    """Search box, grid resolution and horizon cap for the online tuner.  ``d_limit``
    defaults to 20 m here; in a scenario, ``null`` means twice the look-ahead."""

    k_max: float = 10.0
    grid: int = 11
    refine_rounds: int = 2
    d_limit: float = 20.0

    def __post_init__(self):
        if not self.k_max > 0.0:
            raise ValueError("k_max must be positive")
        if not 3 <= self.grid <= MAX_GRID:
            raise ValueError(f"grid must be between 3 and {MAX_GRID}")
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
    a_max: float | None = None,
) -> float:
    """RMS cross-track error of a closed-loop rollout with fixed gains.

    Clones the mission state and propagates the blended law over ``horizon``
    at the mission time step, saturating commands at ``a_max`` as
    :func:`vehicle.step` does.  Deterministic for identical inputs; geometry
    breakdowns surface as an infinite cost.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    n_steps = max(1, int(round(horizon / dt)))
    sp0 = float(s_proj) if s_proj is not None else track_projection(state, path, s_min, gains.lookahead)[0].s
    k1, k2 = np.array([gains.k1]), np.array([gains.k2])
    return float(_rollout_costs(path, state, s_min, sp0, k1, k2, gains.lookahead, dt, n_steps, a_max)[0])


def optimize_gains(
    state: VehicleState,
    path: ReferencePath,
    s_min: float,
    settings: OptimizerSettings,
    lookahead_dist: float,
    dt: float,
    s_proj: float | None = None,
    a_max: float | None = None,
) -> OptimizedGains:
    """Coarse-to-fine grid search for the gain pair with least local cost.

    Each round grids the box of side ``delta`` centred on the incumbent, clipped
    to [0, k_max]^2, and shrinks ``delta`` by ``grid - 1``.  Round 0 is centred
    at (k_max/2, k_max/2) with ``delta = k_max``, so it grids the whole box; the
    incumbent starts as the baseline pair (1, 0), so that pair always competes.
    A round rolls out each distinct clipped gain value once, plus the incumbent
    when the grid lacks it, so cost never regresses.  Ties break toward smaller
    k2, then smaller k1.  If every candidate is infeasible the baseline pair is
    returned with the fallback flag set.  Rollouts saturate commands at
    ``a_max``, as the mission does.
    """
    horizon = adaptive_interval(state, path, settings.d_limit, s_hint=s_proj)
    n_steps = max(1, int(round(horizon / dt)))
    sp0 = float(s_proj) if s_proj is not None else track_projection(state, path, s_min, lookahead_dist)[0].s

    g, k_max = settings.grid, settings.k_max
    best_k1, best_k2 = 1.0, 0.0  # the incumbent
    centre, delta = (k_max / 2.0, k_max / 2.0), k_max
    for _ in range(settings.refine_rounds + 1):
        half = delta / 2.0
        # Rows roll out independently and the pick sorts on the full key, so
        # neither a duplicate value (a centre on the box edge clips half an
        # axis onto it) nor a re-rolled incumbent can change the pick.
        a1, a2 = (np.unique(np.minimum(np.maximum(np.linspace(b - half, b + half, g), 0.0), k_max)) for b in centre)
        k1s, k2s = [a.ravel() for a in np.meshgrid(a1, a2, indexing="ij")]
        if not np.any((k1s == best_k1) & (k2s == best_k2)):
            k1s, k2s = np.append(k1s, best_k1), np.append(k2s, best_k2)
        costs = _rollout_costs(path, state, s_min, sp0, k1s, k2s, lookahead_dist, dt, n_steps, a_max)
        i = np.lexsort((k1s, k2s, costs))[0]
        best_k1, best_k2, best_cost = float(k1s[i]), float(k2s[i]), float(costs[i])
        centre, delta = (best_k1, best_k2), delta / (g - 1)

    if not math.isfinite(best_cost):
        return OptimizedGains(1.0, 0.0, math.inf, horizon, fallback=True)
    return OptimizedGains(best_k1, best_k2, best_cost, horizon)


# ----------------------------------------------------------------------
# Batched closed-loop rollout
# ----------------------------------------------------------------------


def _rollout_costs(path, state, s_min, s_proj, k1s, k2s, lookahead_dist, dt, n_steps, a_max=None) -> np.ndarray:
    """RMS cross-track error per candidate gain pair over ``n_steps`` steps.

    Rows are independent bit for bit: a subset of the candidates rolls out to the same costs."""
    speed, total = state.speed, path.total_length

    k = k1s.size
    x = np.full(k, state.x)
    y = np.full(k, state.y)
    psi = np.full(k, state.heading)
    s_lb = np.full(k, min(max(s_min, 0.0), total))
    sp = np.full(k, min(max(s_proj, 0.0), total))
    ended, any_ended = np.zeros(k, dtype=bool), False
    cte_sq = np.zeros(k)
    cs = np.empty((2, k))  # the headings' cos and sin, shared by the law and the step

    for _ in range(n_steps):
        sp, pdist = path.project_many(x, y, sp)
        cte_sq += pdist * pdist

        s2, end_rows, fallback = path.lookahead_many(x, y, s_lb, lookahead_dist)
        if end_rows.size:
            ended[end_rows] = any_ended = True
        s_lb = np.maximum(s_lb, s2)

        # One table interpolation for the projections and the look-ahead points.
        pts = path.point_at_many(np.concatenate((sp, s2)))
        if fallback is not None:
            pts[:, k + fallback[0]] = fallback[1]
        np.cos(psi, out=cs[0])
        np.sin(psi, out=cs[1])
        cmd = blended_many(x, y, cs[0], cs[1], pts[:4, :k], pts[:, k:], speed, k1s, k2s)
        if any_ended:
            cmd = np.where(ended, 0.0, cmd)
        if a_max is not None:  # vehicle.step's clamp, in its order
            cmd = np.where(-a_max > cmd, -a_max, cmd)
            cmd = np.where(a_max < cmd, a_max, cmd)
        x, y, psi = step_arrays(x, y, psi, cmd, speed, dt, cs)

    costs = np.sqrt(cte_sq / n_steps)
    return np.where(np.isfinite(costs), costs, np.inf)
