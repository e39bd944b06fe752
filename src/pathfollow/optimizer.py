"""Online gain selection by minimizing locally predicted RMS cross-track error.

Every update interval the closed loop is rolled out over a short horizon for
a grid of candidate gain pairs, and the pair with the lowest RMS cross-track
error wins.  The horizon adapts to the local path curvature: a short segment
where the path bends hard, a capped longer one where it is straight.

All candidates are propagated together, each row bit for bit independent of
the others, by one of two kernels.  The numpy kernel, the reference, runs the
path's batched queries (:meth:`ReferencePath.project_many`,
:meth:`~ReferencePath.lookahead_many`, :meth:`~ReferencePath.point_at_many`),
:func:`guidance.blended_many` and :func:`vehicle.step_arrays` as a fixed
number of numpy calls per step, on (2, K) rows x then y, each transcendental
once over stacked rows; numpy's float64 ufuncs give an element the same bits in
any array (tests/test_rollout_kernel.py).  The compiled kernel (``_rollout.c``,
built with the system ``cc`` on a process's first rollout and called through
ctypes) runs a step as three row loops around one ``np.arctan2`` call, and
repeats the numpy stages' operations element by element in their order.  Its
costs are numpy's bit for bit: +, -, *, /, sqrt and fmod round correctly in
both; hypot, sin and cos are libm's in both, which a probe set checks before
first use; numpy's maximum, minimum, argmin and mod rules are written out; the
build allows no contraction and no fast-math; and arctan2, whose SIMD loop
differs from libm's, stays numpy's (tests/test_compiled_rollout.py).  Without
a compiler, or when the build or the probe fails, numpy's kernel flies; a
compiled call that meets a NaN index or raises a float flag hands its rollout
to numpy, which raises or warns as it does alone.

The search is bit-deterministic: the reduction orders by (cost, k2, k1), so
results do not depend on evaluation order.  One gain update keeps a table of costs by gain pair and rolls each pair
out at most once; every k2 = 0 pair is one entry, because such a row flies the
look-ahead term alone whatever its k1.  Rollout steps are at most 0.4 m
(``speed * dt``), which the batched projection's window can follow.
"""

from __future__ import annotations

import ctypes
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .guidance import GuidanceGains, blended_many, law_operands, track_projection
from .path import ReferencePath, _window_width, curvature_radius
from .vehicle import VehicleState, _check_a_max, step_arrays, step_operands

# Most grid points per axis: a rollout call holds up to grid^2 + 1 rows at
# about 1 KB each (9.8 MB at 101); a larger grid is refused up front.
MAX_GRID = 101
# Most steps in one rollout, min(d_limit, MAX_RADIUS) / speed / dt (400 in the
# stock scenario); a scenario whose tuner could ask for more is refused up front.
MAX_ROLLOUT_STEPS = 10_000
# Longest step, speed * dt in m, that a rollout flies (0.05 in the stock scenario).  The batched projection's
# window reaches 0.5 m past the previous projection; at that reach, over three stock gain updates (6 x 6 gain
# pairs, 60 steps each), its arc lengths match the scalar projection's in every row up to a 0.46 m step, and
# part from them from 0.47-0.48 m on, by spacing (ROADMAP, "Closed by measurement").
_MAX_STEP = 0.4


@dataclass(frozen=True)
class OptimizerSettings:
    """Search box, grid resolution and horizon cap for the online tuner.  ``d_limit``
    defaults to 20 m here; in a scenario, ``null`` means twice the look-ahead."""

    k_max: float = 10.0
    grid: int = 11
    refine_rounds: int = 2
    d_limit: float = 20.0

    def __post_init__(self):
        if not 0.0 < self.k_max < math.inf:
            raise ValueError("k_max must be positive and finite")
        if not (type(self.grid) is int and 3 <= self.grid <= MAX_GRID):
            raise ValueError(f"grid must be an integer between 3 and {MAX_GRID}")
        if not (type(self.refine_rounds) is int and self.refine_rounds >= 0):
            raise ValueError("refine_rounds must be a non-negative integer")
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
    n_steps, sp0 = _rollout_start(state, path, s_min, gains.lookahead, horizon, dt, s_proj, a_max)
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
    A round's candidates are each distinct clipped gain value once, plus the
    incumbent when the grid lacks it, so cost never regresses.  Ties break toward smaller
    k2, then smaller k1.  If every candidate is infeasible the baseline pair is
    returned with the fallback flag set.  Rollouts saturate commands at
    ``a_max``, as the mission does.

    Costs come from a table kept for the update: a round rolls out only the
    pairs it has not seen, all k2 = 0 pairs as one.  Those rows tie, so when
    the incumbent is the look-ahead-only pair (0, 0) a round keeps it unless
    some k2 > 0 pair beats it; such a round's call also rolls out the later
    rounds' boxes around (0, 0), as many whole boxes as keep the call within
    ``grid^2 + 1`` rows.  The picks are those of rolling out every round
    whole, bit for bit, since a row's cost does not depend on the other rows.
    """
    horizon = adaptive_interval(state, path, settings.d_limit, s_hint=s_proj)
    n_steps, sp0 = _rollout_start(state, path, s_min, lookahead_dist, horizon, dt, s_proj, a_max)

    g, k_max, rounds = settings.grid, settings.k_max, settings.refine_rounds
    table = {}  # cost by _keys entry
    best_k1, best_k2 = 1.0, 0.0  # the incumbent
    centre, delta = (k_max / 2.0, k_max / 2.0), k_max
    for r in range(rounds + 1):
        k1s, k2s = _box(centre, delta, g, k_max)
        if not np.any((k1s == best_k1) & (k2s == best_k2)):
            k1s, k2s = np.append(k1s, best_k1), np.append(k2s, best_k2)
        keys = _keys(k1s, k2s)
        todo = dict.fromkeys(k for k in keys if k not in table)
        if todo and best_k1 == best_k2 == 0.0:
            # The later rounds' boxes, should (0, 0) stay the pick, while the call holds one round's rows.
            ahead = delta
            for _ in range(r, rounds):
                ahead /= g - 1
                box = _keys(*_box((0.0, 0.0), ahead, g, k_max))
                box = dict.fromkeys(k for k in box if k not in table and k not in todo)
                if len(todo) + len(box) > g * g + 1:
                    break
                todo.update(box)
        if todo:
            k1n, k2n = np.array(list(todo)).T
            costs = _rollout_costs(path, state, s_min, sp0, k1n, k2n, lookahead_dist, dt, n_steps, a_max)
            table.update(zip(todo, costs.tolist()))
        costs = np.array([table[k] for k in keys])
        i = np.lexsort((k1s, k2s, costs))[0]
        best_k1, best_k2, best_cost = float(k1s[i]), float(k2s[i]), float(costs[i])
        centre, delta = (best_k1, best_k2), delta / (g - 1)

    if not math.isfinite(best_cost):
        return OptimizedGains(1.0, 0.0, math.inf, horizon, fallback=True)
    return OptimizedGains(best_k1, best_k2, best_cost, horizon)


def _rollout_start(state, path, s_min, lookahead_dist, horizon, dt, s_proj, a_max):
    """The tuner's entry checks, then a rollout's steps over ``horizon`` (at least one) and its first projection's arc
    length.  A ValueError, before any rollout, for a look-ahead distance or ``dt`` outside (0, inf), a ``horizon`` not
    above 0, an ``a_max`` the schema refuses, a step ``speed * dt`` past _MAX_STEP or more than MAX_ROLLOUT_STEPS
    steps, none of which a mission that ``supervisor.mission_problems`` admits asks for."""
    if not 0.0 < lookahead_dist < math.inf:
        raise ValueError(f"look-ahead distance must be positive and finite, got {lookahead_dist!r}")
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    _check_a_max(a_max)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not state.speed * dt <= _MAX_STEP:
        raise ValueError(f"a rollout step speed * dt must be at most {_MAX_STEP} m, got {state.speed!r} * {dt!r}")
    steps = horizon / dt
    if not (steps < math.inf and round(steps) <= MAX_ROLLOUT_STEPS):
        raise ValueError(f"a rollout of horizon {horizon!r} s at dt {dt!r} s exceeds {MAX_ROLLOUT_STEPS} steps")
    sp0 = float(s_proj) if s_proj is not None else track_projection(state, path, s_min, lookahead_dist)[0].s
    return max(1, round(steps)), sp0


def _box(centre, delta, grid, k_max):
    """A round's candidates: the grid of side ``delta`` around ``centre``, clipped to [0, k_max]^2,
    as pair rows over each axis's distinct values (a centre on the box edge clips half an axis)."""
    a1, a2 = (np.unique(np.minimum(np.maximum(np.linspace(b - delta / 2.0, b + delta / 2.0, grid), 0.0), k_max))
              for b in centre)
    return [a.ravel() for a in np.meshgrid(a1, a2, indexing="ij")]


def _keys(k1s, k2s):
    """The pairs' entries in the cost table: ±0 are one value, and a k2 = 0 row flies the look-ahead
    term alone whatever its k1 (``blended_many``'s last ``putmask``), so every such pair is (0, 0)."""
    return [(k1, k2) if k2 else (0.0, 0.0) for k1, k2 in zip(k1s.tolist(), k2s.tolist())]


# ----------------------------------------------------------------------
# Batched closed-loop rollout
# ----------------------------------------------------------------------


def _rollout_costs(path, state, s_min, s_proj, k1s, k2s, lookahead_dist, dt, n_steps, a_max=None) -> np.ndarray:
    """RMS cross-track error per candidate gain pair over ``n_steps`` steps.

    Rows are independent bit for bit: a subset of the candidates rolls out to the same costs.  The compiled
    kernel flies the steps when it is built (:func:`rollout_kernel`); numpy's does when it is not, or when a
    compiled call hands the rollout back."""
    ks = np.array((k1s, k2s), dtype=float)
    args = (path, state, s_min, s_proj, ks, lookahead_dist, n_steps, law_operands(state.speed),
            step_operands(state.speed, dt, a_max))
    lib = _kernel()[0]
    cte_sq = _compiled_steps(lib, *args) if lib is not None else None
    if cte_sq is None:
        cte_sq = _numpy_steps(*args)
    costs = np.sqrt(cte_sq / n_steps)
    return np.where(np.isfinite(costs), costs, np.inf)


def _rollout_rows(path, state, s_min, s_proj, k):
    """A rollout's starting rows: positions (x, then y), headings, their cos and sin, look-ahead bounds,
    projection and look-ahead arc lengths, ended flags and squared cross-track sums."""
    total = path.total_length
    pos = np.empty((2, k))
    pos[0], pos[1] = state.x, state.y
    psi = np.full(k, state.heading)
    cs = np.array((np.cos(psi), np.sin(psi)))  # the headings' cos and sin, shared by the law and the step
    s_lb = np.full(k, min(max(s_min, 0.0), total))
    s = np.empty((2, k))  # arc lengths of the projections, then of the look-ahead points
    s[0] = min(max(s_proj, 0.0), total)
    return pos, psi, cs, s_lb, s, np.zeros(k, dtype=bool), np.zeros(k)


def _numpy_steps(path, state, s_min, s_proj, ks, lookahead_dist, n_steps, law, rk4):
    """The rollout's squared cross-track sums, stepped by the numpy stages."""
    pos, psi, cs, s_lb, s, ended, cte_sq = _rollout_rows(path, state, s_min, s_proj, ks.shape[1])
    any_ended = False
    for _ in range(n_steps):
        s[0], pdist = path.project_many(pos, s[0])
        cte_sq += pdist * pdist

        s[1], end_rows, fallback = path.lookahead_many(pos, s_lb, lookahead_dist)
        if end_rows.size:
            ended[end_rows] = any_ended = True
        np.maximum(s_lb, s[1], out=s_lb)

        # One table interpolation for the projections and the look-ahead points.
        pts = path.point_at_many(s)
        if fallback is not None:
            pts[:, 1, fallback[0]] = fallback[1]
        cmd = blended_many(pos, cs, pts[:4, 0], pts[:, 1], law, ks)
        if any_ended:
            np.putmask(cmd, ended, 0.0)
        pos, psi, cs = step_arrays(pos, psi, cmd, rk4, cs)
    return cte_sq


_KERNEL = None  # (the compiled library, "") or (None, why numpy flies), once the first rollout has built it


class _Rollout(ctypes.Structure):
    """_rollout.c's Rollout: one rollout's operands and the addresses of its rows' arrays."""

    _fields_ = [("t", ctypes.c_void_p)] + [(f, ctypes.c_long) for f in ("cols", "width", "last_j", "k")] + [
        (f, ctypes.c_double) for f in ("ds", "last", "l2", "v", "arc_gain", "v_cap", "h", "dt", "scale", "a_max")
    ] + [(f, ctypes.c_void_p) for f in (
        "k1", "k2", "pos", "psi", "cs", "s_lb", "s", "ended", "cte", "j", "miss", "cd", "pts", "eta")
    ] + [("nfall", ctypes.c_long), ("frows", ctypes.c_void_p), ("fpts", ctypes.c_void_p)]


def _compiled_steps(lib, path, state, s_min, s_proj, ks, lookahead_dist, n_steps, law, rk4):
    """:func:`_numpy_steps`' sums, bit for bit, from the compiled step around numpy's arctan2; None when a
    call met a NaN index or raised a float flag, and numpy must fly the rollout instead."""
    rows = pos, psi, cs, s_lb, s, ended, cte_sq = _rollout_rows(path, state, s_min, s_proj, ks.shape[1])
    k, n = psi.size, path._n
    j, miss = np.empty(k, dtype=np.int64), np.empty(k, dtype=np.int64)
    cd, pts, eta = np.empty((2, 2, k)), np.empty((9, k)), np.empty((2, k))
    _, steps, scale, bounds = rk4
    st = _Rollout(path._table.ctypes.data, path._table.shape[1], _window_width(path.spacing), n - 2, k,
                  path.spacing, n - 1.0, lookahead_dist * lookahead_dist, *map(float, law), steps[0, 0],
                  steps[1, 0], scale, bounds[1] if bounds else math.inf,
                  *(a.ctypes.data for a in (*ks, *rows, j, miss, cd, pts, eta)))
    r = ctypes.byref(st)
    for _ in range(n_steps):
        misses = lib.rollout_track(r)
        if misses < 0:
            return None
        if misses:  # numpy's own answers for the rows the chunk missed
            end_rows, fallback = path._lookahead_misses(pos, s_lb, lookahead_dist, s[1], miss[:misses], j)
            ended[end_rows] = True
            if fallback is not None:
                fell, points = fallback[0], np.ascontiguousarray(fallback[1])
                st.nfall, st.frows, st.fpts = fell.size, fell.ctypes.data, points.ctypes.data
        if lib.rollout_geometry(r):
            return None
        st.nfall = 0
        np.arctan2(cd[0], cd[1], out=eta)
        if lib.rollout_step(r):
            return None
    return cte_sq


def rollout_kernel() -> str:
    """The kernel that flies the tuner's rollouts in this process: "compiled", or "numpy (why)"."""
    lib, why = _kernel()
    return "compiled" if lib is not None else f"numpy ({why})"


def _kernel():
    """The compiled library and "", or None and why numpy flies; built on the first call in a process."""
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _build()
    return _KERNEL


def _build():
    """Compile _rollout.c with the system cc into a private directory, load it and check its libm against numpy's;
    the directory goes once the library is loaded.  Any failure leaves numpy's kernel."""
    import subprocess  # here: 7 ms of every cold start, which most processes never build in

    try:
        with tempfile.TemporaryDirectory() as tmp:
            so = os.path.join(tmp, "_rollout.so")
            src = os.path.join(os.path.dirname(__file__), "_rollout.c")
            cmd = ["cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-o", so, src, "-lm"]
            subprocess.run(cmd, check=True, capture_output=True, timeout=60)
            lib = ctypes.CDLL(so)
    except FileNotFoundError:
        return None, "no C compiler: cc not found"
    except (OSError, subprocess.SubprocessError) as e:  # a failed or timed-out compile, a failed load
        return None, f"no compiled kernel: {e}"
    for f in (lib.rollout_track, lib.rollout_geometry, lib.rollout_step):
        f.argtypes, f.restype = [ctypes.POINTER(_Rollout)], ctypes.c_long
    lib.rollout_libm.argtypes, lib.rollout_libm.restype = [ctypes.c_void_p] * 3 + [ctypes.c_long], None
    if not _libm_matches(lib):
        return None, "the compiled kernel's hypot, sin or cos differs from numpy's"
    return lib, ""


def _libm_matches(lib) -> bool:
    """Whether the library's hypot, sin and cos give numpy's bits on a fixed probe set: +-0, +-pi, +-pi/2,
    subnormals, large values and 4,096 seeded ones over 17 decades.  The compiled kernel is exact only if they do."""
    rng = np.random.default_rng(0)
    special = [0.0, math.pi, math.pi / 2, 5e-324, 1e-310, 2.2e-308, 1e22, 1e300]
    x = np.concatenate((special, np.negative(special), rng.standard_normal(4096) * 10.0 ** rng.integers(-8, 9, 4096)))
    y, out = x[::-1].copy(), np.empty((3, x.size))
    lib.rollout_libm(x.ctypes.data, y.ctypes.data, out.ctypes.data, x.size)
    return out.tobytes() == np.array((np.hypot(x, y), np.sin(x), np.cos(x))).tobytes()
