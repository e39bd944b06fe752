"""Bit-for-bit pins of the batched rollout kernel and of the numpy property it rests on.

* sha256 digests of ``optimizer._rollout_costs`` over states that each
  drive one branch of the kernel, recorded before the kernel's numpy calls
  were merged.  Each case also asserts, through wrappers around the
  rollout's stages, that its branch fired, so a digest cannot pass by
  skipping the code it pins.
* numpy's float64 ``sin``, ``cos``, ``arctan2`` and ``hypot`` give the same
  bits over an (m, K) array as one call per row: the kernel merges calls on
  rows of equal length, which is exact only under this property.
"""

import hashlib
import math

import numpy as np
import pytest

import pathfollow.optimizer as optimizer
from pathfollow.geom import PARALLEL_EPS
from pathfollow.path import ReferencePath, make_line_path, make_sinusoid_path
from pathfollow.vehicle import VehicleState

STOCK = make_sinusoid_path(-15.0, 150.0)
LINE = make_line_path((0.0, 0.0), (1.0, 0.0), 60.0)
AXIS = np.linspace(0.0, 10.0, 11)
GRID = [a.ravel() for a in np.meshgrid(AXIS, AXIS, indexing="ij")]
FEW = (np.array([1.0, 2.0, 0.0, 10.0]), np.array([0.0, 3.0, 1.0, 10.0]))

# Gain updates of the stock proposed mission: (x, y, heading, s_min, s_proj),
# as recorded in test_optimizer.STOCK_UPDATES.
STOCK_STATES = [
    (-3.6107740019546357, 16.372402235837207, 0.9868956497560274, 32.27070017999215, 22.041166313054696),
    (24.43046214266706, 1.7895839933998166, -1.0900750793979341, 71.9024930779502, 61.90537057239762),
    (117.1026665225003, -17.041043220297382, -0.48186735444866713, 212.0025011839532, 201.60748577609303),
]

# name: (path, (x, y, heading), s_min, s_proj, (k1s, k2s), a_max, branch fired)
CASES = {
    **{f"stock{i}": (STOCK, st[:3], st[3], st[4], GRID, None, None) for i, st in enumerate(STOCK_STATES)},
    # The path ends 5 m ahead, inside the 10 m look-ahead circle.
    "end": (LINE, (55.0, 0.5, 0.1), 55.0, 55.0, FEW, None, "end"),
    # 40 m off the line: no crossing, end outside the circle.
    "fallback": (LINE, (20.0, 40.0, -0.3), 20.0, 20.0, FEW, None, "fallback"),
    # s_min 20 m behind the vehicle: the first crossing lies 400 segments on.
    "past_chunk": (LINE, (20.0, 1.0, 0.2), 0.0, 20.0, FEW, None, "past_chunk"),
    # Commands reach 2.8 m/s^2 here unclamped.
    "saturate": (STOCK, STOCK_STATES[0][:3], *STOCK_STATES[0][3:], GRID, 0.5, "saturate"),
    # Heading along the normal of the line: the corrector lines are parallel.
    "degen": (LINE, (20.0, -1.0, math.pi / 2), 20.0, 20.0, FEW, None, "degen"),
    # Projection hint 5 m ahead of the vehicle: the 1 m guard clamps it.
    "guard": (LINE, (20.0, 0.5, 0.0), 20.0, 25.0, FEW, None, "guard"),
}

# sha256 of the costs' bytes over 200 steps at L1 = 10 m, dt = 0.01 s.
DIGESTS = {
    "stock0": "001fbdbc92e375838f3a519fda205e9d8086f0c92d1854aff085af98bf332447",
    "stock1": "235833c899cf5579d5891eef70f83658d0ef23894173623191575ab35dc43902",
    "stock2": "86ced7ea50cc35aca1742a182415ec7cca77fd26933f20f01e0817bea411d6c8",
    "end": "b7f1e2541830b295279d8004405943e51402276a295a6ad6022ec57aa16a70c6",
    "fallback": "b21d803351fa72f754f12cd524c65cbcbc5763ae2f7437d8b2fe56f3bd7c0c93",
    "past_chunk": "64c25ce67439b076e89fa144a5eaeb43f2295561336feed6a78207ecf50ede43",
    "saturate": "a8db7d533d8606f3c5da26e32397a89d09d9cc876c99c3f9b77a50645bb2c4dc",
    "degen": "aec07a1218adfd0da728246ac52361e986ac6a54e7ff6c68e44737967f2f2485",
    "guard": "22f9946deb58cdf2c068440e1bde309fedd72f5119a22185b2e50dd93b9dcb94",
}


def branch_counter(monkeypatch, path, a_max):
    """Wrap the rollout's stages; count the calls in which each branch fired."""
    fired = dict.fromkeys(("end", "fallback", "past_chunk", "saturate", "degen", "guard"), 0)
    project_many, lookahead_many = ReferencePath.project_many, ReferencePath.lookahead_many
    blended_many, step_arrays = optimizer.blended_many, optimizer.step_arrays

    def project(self, x, y, s_prev):
        s, d = project_many(self, x, y, s_prev)
        fired["guard"] += bool(np.any((s_prev > 1.0) & (np.abs(s - (s_prev - 1.0)) < 1e-9)))
        return s, d

    def lookahead(self, x, y, s_lb, lookahead_dist):
        s2, end_rows, fallback = lookahead_many(self, x, y, s_lb, lookahead_dist)
        fired["end"] += end_rows.size > 0
        fired["fallback"] += fallback is not None
        crossed = np.ones(x.size, dtype=bool)
        crossed[end_rows] = False
        if fallback is not None:
            crossed[fallback[0]] = False
        first = np.floor(s_lb / self.spacing)
        fired["past_chunk"] += bool(np.any(crossed & (np.floor(s2 / self.spacing) >= first + 4)))
        return s2, end_rows, fallback

    def blended(x, y, hx, hy, proj, *rest):
        fired["degen"] += bool(np.any(np.abs(proj[2] * hx + proj[3] * hy) < PARALLEL_EPS))
        return blended_many(x, y, hx, hy, proj, *rest)

    def stepped(x, y, psi, a_cmd, *rest, **kwargs):
        fired["saturate"] += a_max is not None and bool(np.any(np.abs(a_cmd) == a_max))
        return step_arrays(x, y, psi, a_cmd, *rest, **kwargs)

    monkeypatch.setattr(ReferencePath, "project_many", project)
    monkeypatch.setattr(ReferencePath, "lookahead_many", lookahead)
    monkeypatch.setattr(optimizer, "blended_many", blended)
    monkeypatch.setattr(optimizer, "step_arrays", stepped)
    return fired


@pytest.mark.parametrize("name", sorted(CASES))
def test_rollout_costs_digest(name, monkeypatch):
    path, (x, y, heading), s_min, s_proj, (k1s, k2s), a_max, branch = CASES[name]
    fired = branch_counter(monkeypatch, path, a_max)
    st = VehicleState(x, y, heading, 5.0)
    costs = optimizer._rollout_costs(path, st, s_min, s_proj, k1s, k2s, 10.0, 0.01, 200, a_max)
    assert branch is None or fired[branch] > 0, fired
    assert hashlib.sha256(costs.tobytes()).hexdigest() == DIGESTS[name]


def edge_inputs(rng, n):
    """Random float64s over many magnitudes, with ±0, ±pi, ±pi/2 and subnormals mixed in."""
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    edges = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 5e-324, -5e-324, 1e-310, -2.2e-308]
    v[rng.integers(0, n, n // 10)] = rng.choice(edges, n // 10)
    return v


@pytest.mark.parametrize("k", [1, 4, 7, 121])
def test_merged_transcendentals_match_per_row_calls(k):
    # One call over an (m, k) array against one call per freshly allocated row,
    # so SIMD bodies and tails split the inputs differently in the two.
    rng = np.random.default_rng(k)
    m = 20_000 // k
    a, b = (edge_inputs(rng, m * k).reshape(m, k) for _ in range(2))
    for fn, args in ((np.sin, (a,)), (np.cos, (a,)), (np.arctan2, (a, b)), (np.hypot, (a, b))):
        merged = fn(*args)
        rows = np.stack([fn(*(arg[i].copy() for arg in args)) for i in range(m)])
        assert merged.tobytes() == rows.tobytes(), fn.__name__
