"""Bit-for-bit pins of the batched rollout kernel and of the numpy property it rests on.

* sha256 digests of ``optimizer._rollout_costs`` over states that each
  drive one branch of the kernel, recorded before the kernel's numpy calls
  were merged.  Each case also asserts, through wrappers around the
  rollout's stages, that its branch fired, so a digest cannot pass by
  skipping the code it pins.
* numpy's float64 ``sin``, ``cos``, ``arctan2`` and ``hypot`` give the same
  bits over an (m, K) array as one call per row: the kernel merges calls on
  rows of equal length, which is exact only under this property.
* sha256 digests of each batched stage's outputs (``project_many``,
  ``lookahead_many``, ``point_at_many``, ``blended_many``, ``step_arrays``)
  over seeded rows on the stock sinusoid, a line, a circle arc and a kinked
  polyline table, recorded before the stages took the rows' positions as one
  (2, K) array (sinusoid and line) or before their per-call constants and
  in-place selects (circle and polyline).
* a property test of the batched path queries (``project_many``,
  ``lookahead_many``) against the scalar ones over seeded rows on six
  paths, a hairpin and a table with coincident vertices among them.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathfollow.optimizer as optimizer
from pathfollow.geom import PARALLEL_EPS
from pathfollow.guidance import law_operands, track_projection
from pathfollow.path import (
    ReferencePath,
    _window_width,
    make_circle_path,
    make_line_path,
    make_polyline_path,
    make_sinusoid_path,
)
from pathfollow.vehicle import VehicleState, step_operands

from path_tables import corner_table, kinked_table

STOCK = make_sinusoid_path(-15.0, 150.0)
LINE = make_line_path((0.0, 0.0), (1.0, 0.0), 60.0)
AXIS = np.linspace(0.0, 10.0, 11)
GRID = [a.ravel() for a in np.meshgrid(AXIS, AXIS, indexing="ij")]
FEW = (np.array([1.0, 2.0, 0.0, 10.0]), np.array([0.0, 3.0, 1.0, 10.0]))
# A polyline hairpin, its legs 3 m apart, and gain pairs whose rows lose the circle on the sinusoid
# below with costs that depend on the fallback point's last bits.
HAIRPIN = make_polyline_path([(0.0, 0.0), (20.0, 0.0), (21.5, 1.5), (20.0, 3.0), (0.0, 3.0)])
LOST = (np.array([1.0, 2.0, 3.0, 10.0]), np.array([0.0, 5.0, 4.0, 1.0]))

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
    # Off curved paths every row loses the circle, and the fallback point comes from the scalar
    # projection: on a line it equals the table point at its arc length, on a curve not in every bit.
    # The state of test_optimize_deterministic_and_bounded, with its first projection.
    "lost_sinusoid": (make_sinusoid_path(0.0, 150.0), (40.0, 20.0, 0.5), 30.0, 27.272826421246503, LOST, None,
                      "fallback"),
    "lost_hairpin": (HAIRPIN, (18.0, 20.0, 3.7), 57.0, 57.0, FEW, None, "fallback"),
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
    "lost_sinusoid": "bc482f893fc4f0ba21beebc813f9af2b2d3830aad17cd18b8379687093505642",
    "lost_hairpin": "afc01d8d055be0075f70102bfc56c030623f603ef8a0f507b2c0f9b5cc824707",
}


def branch_counter(monkeypatch, path, a_max):
    """Wrap the rollout's stages; count the calls in which each branch fired."""
    monkeypatch.setattr(optimizer, "_KERNEL", (None, "pinned: the stages are wrapped"))
    fired = dict.fromkeys(("end", "fallback", "past_chunk", "saturate", "degen", "guard"), 0)
    project_many, lookahead_many = ReferencePath.project_many, ReferencePath.lookahead_many
    blended_many, step_arrays = optimizer.blended_many, optimizer.step_arrays

    def project(self, pos, s_prev):
        s, d = project_many(self, pos, s_prev)
        fired["guard"] += bool(np.any((s_prev > 1.0) & (np.abs(s - (s_prev - 1.0)) < 1e-9)))
        return s, d

    def lookahead(self, pos, s_lb, lookahead_dist):
        s2, end_rows, fallback = lookahead_many(self, pos, s_lb, lookahead_dist)
        fired["end"] += end_rows.size > 0
        fired["fallback"] += fallback is not None
        crossed = np.ones(pos.shape[1], dtype=bool)
        crossed[end_rows] = False
        if fallback is not None:
            crossed[fallback[0]] = False
        first = np.floor(s_lb / self.spacing)
        fired["past_chunk"] += bool(np.any(crossed & (np.floor(s2 / self.spacing) >= first + 4)))
        return s2, end_rows, fallback

    def blended(pos, cs, proj, *rest):
        fired["degen"] += bool(np.any(np.abs(proj[2] * cs[0] + proj[3] * cs[1]) < PARALLEL_EPS))
        return blended_many(pos, cs, proj, *rest)

    def stepped(pos, psi, a_cmd, *rest, **kwargs):
        fired["saturate"] += a_max is not None and bool(np.any(np.abs(a_cmd) >= a_max))
        return step_arrays(pos, psi, a_cmd, *rest, **kwargs)

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


@pytest.mark.parametrize("a_max", [None, 0.5])
@pytest.mark.parametrize("name", sorted(CASES))
def test_k2_zero_rows_cost_the_same_whatever_k1(name, a_max):
    # optimize_gains rolls out one row for every k2 = 0 pair: such a row flies
    # the look-ahead term alone (blended_many's last putmask), whatever its k1.
    path, (x, y, heading), s_min, s_proj, *_ = CASES[name]
    k1s = np.tile([0.0, -0.0, 5e-324, 1.0, 10.0], 2)
    k2s = np.repeat([0.0, -0.0], 5)
    st = VehicleState(x, y, heading, 5.0)
    costs = optimizer._rollout_costs(path, st, s_min, s_proj, k1s, k2s, 10.0, 0.01, 200, a_max)
    assert costs.tobytes() == np.full(k1s.size, costs[0]).tobytes()


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


# ----------------------------------------------------------------------
# Per-stage pins
# ----------------------------------------------------------------------

# Headings every stage case carries, on rows of the on-path group.
EDGE_HEADINGS = [math.pi, -math.pi, 0.0, -0.0]


def stage_rows(path, seed, k=240, lookahead=10.0):
    """Seeded rollout rows on ``path``: positions, headings, projection hints and look-ahead bounds.

    Rows 0-29 lie within 8 m of the path end, 30-59 on the path, 60-119 up to 1 m off it and
    the rest up to 40 m off.  Every fourth row's hint lies 1.5-6 m ahead of its foot, so the 1 m
    guard clamps its projection; every fifth row's look-ahead bound lies 20 m behind the foot,
    past the batched look-ahead's first chunk; the other bounds sit just before the crossing."""
    rng = np.random.default_rng(seed)
    total = path.total_length
    s = rng.uniform(0.0, total, k)
    s[:30] = total - rng.uniform(0.0, 8.0, 30)
    off = rng.uniform(-40.0, 40.0, k)
    off[30:60] = 0.0
    off[60:120] = rng.uniform(-1.0, 1.0, 60)
    foot = [path.point_at(v) for v in s]
    tx, ty = np.array([pp.tangent for pp in foot]).T
    x = np.array([pp.position[0] for pp in foot]) - off * ty
    y = np.array([pp.position[1] for pp in foot]) + off * tx
    psi = np.arctan2(ty, tx) + rng.uniform(-1.0, 1.0, k)
    psi[31:35] = EDGE_HEADINGS
    s_prev = s + rng.uniform(-0.5, 0.5, k)
    s_prev[::4] = s[::4] + rng.uniform(1.5, 6.0, s[::4].size)
    s_lb = s + np.sqrt(np.maximum(lookahead * lookahead - off * off, 0.0)) - rng.uniform(0.0, 0.1, k)
    s_lb[::5] = s[::5] - 20.0
    return x, y, psi, np.clip(s_prev, 0.0, total), np.clip(s_lb, 0.0, total)


def stage_outputs(path, seed):
    """Each batched stage's outputs over ``stage_rows``, chained as in a rollout step, plus what fired.

    Every tenth row's heading is turned square to its projection's tangent, so its corrector
    lines are parallel; three rows are appended to the law's inputs whose corrector point is
    the vehicle itself.  Gains are drawn from 0, -0, 10 and uniform values, and every third
    command is clamped to 0.5 m/s^2 before the step."""
    x, y, psi, s_prev, s_lb = stage_rows(path, seed)
    k, total = x.size, path.total_length
    rng = np.random.default_rng(seed + 100)
    out = {}
    sp, dist = path.project_many(np.array((x, y)), s_prev)
    out["project_many"] = (sp, dist)
    s2, end_rows, fallback = path.lookahead_many(np.array((x, y)), s_lb, 10.0)
    out["lookahead_many"] = (s2, end_rows) + (fallback or ())
    pts = path.point_at_many(np.concatenate((sp, s2, [-5.0, -0.0, total, total + 5.0])))
    out["point_at_many"] = (pts,)
    if fallback is not None:
        pts[:, k + fallback[0]] = fallback[1]
    psi[::10] = np.arctan2(pts[3, :k:10], pts[2, :k:10]) + math.pi / 2

    # Vehicle, projection and look-ahead point of the appended rows: p4 = p1.
    px, py = rng.uniform(-20.0, 20.0, (2, 3))
    proj = np.concatenate((pts[:4, :k], [px, py, np.ones(3), np.zeros(3)]), axis=1)
    p2 = np.concatenate((pts[:, k : 2 * k], [px + 5.0, py + 3.0, np.zeros(3), np.ones(3), np.zeros(3)]), axis=1)
    bx, by, bpsi = np.append(x, px + 5.0), np.append(y, py), np.append(psi, np.zeros(3))
    cs = np.array((np.cos(bpsi), np.sin(bpsi)))
    k1s, k2s = rng.choice([0.0, -0.0, 10.0, 2.5], (2, k + 3))
    k1s[::3] = rng.uniform(0.0, 10.0, k1s[::3].size)
    k2s[1::3] = rng.uniform(0.0, 10.0, k2s[1::3].size)
    cmd = optimizer.blended_many(np.array((bx, by)), cs, proj, p2, law_operands(5.0), np.array((k1s, k2s)))
    out["blended_many"] = (cmd,)

    cmd = cmd[:k]
    cmd[::3] = np.clip(cmd[::3], -0.5, 0.5)
    pos, psi, _ = optimizer.step_arrays(np.array((x, y)), psi, cmd, step_operands(5.0, 0.01), cs[:, :k])
    out["step_arrays"] = (pos[0], pos[1], psi)

    fired = {
        "guard": bool(np.any((s_prev > 1.0) & (sp == s_prev - 1.0))),
        "end": end_rows.size > 0,
        "fallback": fallback is not None,
        "past_chunk": bool(np.any(np.floor(s2 / path.spacing) >= np.floor(s_lb / path.spacing) + 4)),
        "degen": bool(np.any(np.abs(proj[2] * cs[0] + proj[3] * cs[1]) < PARALLEL_EPS)),
        "clamped": bool(np.any(np.abs(cmd) == 0.5)),
    }
    return out, fired


STAGE_PATHS = {
    "stock": (STOCK, 11),
    "line": (LINE, 12),
    "circle": (make_circle_path((3.0, -2.0), 15.0, start_angle=0.3, turns=1.25), 13),
    "polyline": (kinked_table(5), 14),
}

# sha256 of each stage's outputs' bytes, concatenated in order: line and stock recorded before
# the stages took positions as one (2, K) array, circle and polyline before the stages built
# their constant operands once per call and selected in place.  The look-ahead, point and law
# digests of circle, polyline and stock were re-recorded when the scalar projection took the
# batched one's guard fraction, lo / ds - j: only look-ahead fallback rows moved, which reach
# that projection, by at most 2 ULP in arc length.
STAGE_DIGESTS = {
    "circle": {
        "project_many": "d07255bd19d1dfa4cbb28a729ef43f2a81d72afdcc1e8f4d657d03def3b17a0d",
        "lookahead_many": "c1a2df5fe57f039da8ce989bc389810cb5bedac91379eedd93ca22404dfcd9f9",
        "point_at_many": "62595ba895172c3f132a0ae54c08e8101eb6df7f837c30aface66f70e8b4b5c2",
        "blended_many": "4b230c681604e4f3e7f270f974beb036dee640aba109f6e4e3190bed9c0d791f",
        "step_arrays": "cbe7ab52157124338972c64e8d8a12f74c1a5705e305ef2780cd00a80ae2fa8a",
    },
    "line": {
        "project_many": "65605fdafe24630164c0c27dc9f0f76519df47b73ad20f9efa57d255e87bb2c2",
        "lookahead_many": "80325a354d9be2f6e9fe08d489ebf15104c63a25f98f1ad9a223607b50b6b817",
        "point_at_many": "bf5df8ee248c54a5c5ed15d9e0c5d37dd93949e9b3d06d5d659489613a1ed036",
        "blended_many": "5fc1964fdea50a9f4c9082580765cc8d20b9fd0313f6357dab665dbe479cb68c",
        "step_arrays": "2c1683200e9844f252367ecf7590adc377407d12a7ba3d7594bd10ba06e2ccbb",
    },
    "polyline": {
        "project_many": "e3f100e10666c17d9d35dc839016a9185b8b88bd9a35a15029d39bf80f782460",
        "lookahead_many": "a068c1ae751875a51d34a8a58c438b78b5c6e7a6d744e5bbe39d8f3e602c5bbb",
        "point_at_many": "6f6e41b648bf33b6c06d2fa541c039386aae825d1f910a57eebe3612630f6209",
        "blended_many": "8f10a4d82113423404bed887f395191fbdc1535ec5922f9749b3e7438f8b34fd",
        "step_arrays": "e7823815f82cf1d35cff1f4047473e0e41114f53a2913f9f3edd3aa93b4abc2e",
    },
    "stock": {
        "project_many": "2d0ba4ef05611010375bb4d2ce3678b0766e9d230418d696cc05f09c746c05cc",
        "lookahead_many": "6829ce55ae653fe643ccf15f6ef0ff35a5d16725dade89be8f8e081346a19d4e",
        "point_at_many": "3ed938ac5e08281b0294a0864b6323550667f061bc37ff278df73071ed3d5ff7",
        "blended_many": "d18c24197e39b12b810f196736120bc49170658cf970deade4d061fb81518ae8",
        "step_arrays": "44b0f7a08063fb0be92508423083e5fc2ffb44245772aa8bda180ba08fd3d843",
    },
}


def stage_digests(out):
    return {
        stage: hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()
        for stage, arrays in out.items()
    }


@pytest.mark.parametrize("name", sorted(STAGE_PATHS))
def test_stage_outputs_digest(name):
    out, fired = stage_outputs(*STAGE_PATHS[name])
    assert all(fired.values()), fired
    assert stage_digests(out) == STAGE_DIGESTS[name]


QUERY_PATHS = {**{name: path for name, (path, _) in STAGE_PATHS.items()}, "hairpin": HAIRPIN, "corner": corner_table()}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(QUERY_PATHS)), seed=st.integers(0, 2**32 - 1), lookahead=st.floats(0.5, 20.0))
def test_batched_path_queries_answer_the_scalar_ones(kind, seed, lookahead):
    # Rows up to 20 m off the path, one step of up to optimizer._MAX_STEP at any heading past the point
    # whose arc length is their hint; every fourth hint lies 1.5-6 m ahead, so the 1 m guard clamps it,
    # and every eighth look-ahead bound lies before the path start and another past its end.
    # Drawn from a seeded generator, as Hypothesis's floats favour round values (test_scalar_tick).
    path = QUERY_PATHS[kind]
    total, ds, k = path.total_length, path.spacing, 32
    rng = np.random.default_rng(seed)
    s_prev = rng.uniform(0.0, total, k)
    x, y, tx, ty, _ = path.point_at_many(s_prev)
    normal, heading = rng.uniform(-20.0, 20.0, k), rng.uniform(-math.pi, math.pi, k)
    step = rng.uniform(0.0, optimizer._MAX_STEP, k)
    pos = np.array((x - normal * ty + step * np.cos(heading), y + normal * tx + step * np.sin(heading)))
    s_lb = np.clip(s_prev + rng.uniform(-5.0, 25.0, k), 0.0, total)
    s_lb[1::8] = rng.uniform(-6.0, 0.0, k // 8)  # before the path start, which both read as 0
    s_lb[5::8] = total + rng.uniform(0.0, 50.0, k // 8)  # past the path end
    s_prev[3::4] = np.minimum(s_prev[3::4] + rng.uniform(1.5, 6.0, k // 4), total)

    # The projection: bit for bit (distance within 2 ULP, x * x against **) where the scalar answer lies in the
    # batched window, samples j_lo .. j_lo + width - 1; elsewhere the scalar search reached past it.
    s, d = path.project_many(pos, s_prev)
    j_lo = np.minimum((np.fmax(s_prev - 1.0, 0.0) / ds).astype(int), path.sample_table()[0].size - 2)
    for i in range(k):
        pp, dist = path.project(pos[:, i], s_hint=s_prev[i])
        assert pp.s >= j_lo[i] * ds, i
        if pp.s <= (j_lo[i] + _window_width(ds) - 1) * ds:
            assert (pp.s, abs(dist - d[i]) <= 2 * np.spacing(dist)) == (s[i], True), i

    # The look-ahead: arc lengths, end rows, fallback rows and their points, all bit for bit.
    s, end_rows, fallback = path.lookahead_many(pos, s_lb, lookahead)
    fell, points = fallback or (np.zeros(0, dtype=int), np.zeros((5, 0)))
    for i in range(k):
        la = path.lookahead_point(pos[:, i], s_lb[i], lookahead)
        assert (la.point.s, la.end_of_path, la.fallback) == (s[i], i in end_rows, i in fell), i
        if la.fallback:
            pp = la.point
            assert tuple(points[:, fell.tolist().index(i)]) == (*pp.position, *pp.tangent, pp.curvature), i


def test_hairpin_rollout_projections_part_only_where_the_scalar_answer_leaves_the_window(monkeypatch):
    # Every project_many row of round 0's rollouts on the hairpin, the vehicle at (5, 1.8) on its way back along the
    # upper leg, against project_s at the row's hint: the arc length bit for bit and the distance within 2 ULP
    # wherever they agree, and they part only where the scalar answer lies past the batched window's last sample.
    # The scalar search reaches 25 m past the hint and the batched one 0.5 m: the scalar one has found the lower
    # leg, or looked on past a batched window whose nearest sample is its last (ROADMAP item 17).
    monkeypatch.setattr(optimizer, "_KERNEL", (None, "pinned: the stages are wrapped"))
    calls, project_many = [], ReferencePath.project_many

    def spy(self, pos, s_prev):
        s, d = project_many(self, pos, s_prev)
        calls.append((pos.copy(), s_prev.copy(), s, d))
        return s, d

    monkeypatch.setattr(ReferencePath, "project_many", spy)
    n, ds = HAIRPIN.sample_table()[0].size, HAIRPIN.spacing
    st = VehicleState(5.0, 1.8, math.pi, 5.0)
    parted = []
    for s_min in (0.0, 5.0, 30.0, 40.0):
        calls.clear()
        s_proj = track_projection(st, HAIRPIN, s_min, 10.0)[0].s
        optimizer._rollout_costs(HAIRPIN, st, s_min, s_proj, *GRID, 10.0, 0.01, 400)
        assert len(calls) == 400
        parted.append(0)
        for pos, s_prev, s, d in calls:
            s_end = (np.minimum((np.fmax(s_prev - 1.0, 0.0) / ds).astype(int), n - 2) + _window_width(ds) - 1) * ds
            for i in range(s.size):
                s_want, d_want = HAIRPIN.project_s(pos[:, i], s_hint=s_prev[i])
                if s[i] != s_want:
                    assert s_want > s_end[i], (s_min, i)
                    parted[-1] += 1
                else:
                    assert abs(d[i] - d_want) <= 2 * np.spacing(d_want), (s_min, i)
    assert parted == [31094, 12716, 12282, 12282]


PAST_END_PATHS = {"line": make_line_path((0.0, 0.0), (1.0, 0.0), 100.0), "stock": STOCK, "corner": corner_table()}


@pytest.mark.parametrize("name", sorted(PAST_END_PATHS))
def test_batched_path_queries_answer_past_the_path_end(name):
    # Hints and look-ahead bounds at and past the path end, +inf and 1e300 among them, answer as the scalar queries
    # do: the batched ones cast s / spacing to int64 before they clamped it, which overflowed at 1e300 and +inf.
    # Rows lie up to 25 m off the path's last 10 m, so some end the path inside the circle and some fall back.
    path = PAST_END_PATHS[name]
    total = path.total_length
    rng = np.random.default_rng(7)
    x, y, tx, ty, _ = path.point_at_many(total - rng.uniform(0.0, min(10.0, total), 8))
    normal = np.array((0.0, 0.3, -2.0, 4.0, -7.5, 12.0, -18.0, 25.0))
    pos = np.array((x - normal * ty, y + normal * tx))

    for s in (total, total + 5.0, 1e9, 1e300, math.inf):
        sp, d = path.project_many(pos, np.full(pos.shape[1], s))
        for i in range(pos.shape[1]):
            s_want, d_want = path.project_s(pos[:, i], s_hint=s)
            assert (sp[i], abs(d[i] - d_want) <= 2 * np.spacing(d_want)) == (s_want, True), (s, i)

    for lookahead in (3.0, 10.0):
        for s in (total, total + 5.0, 1e9, 1e300, math.inf, -1e300, -math.inf):
            s_lb = np.full(pos.shape[1], s)
            s2, end_rows, fallback = path.lookahead_many(pos, s_lb, lookahead)
            fell = fallback[0] if fallback is not None else ()
            for i in range(pos.shape[1]):
                la = path.lookahead_point(pos[:, i], s, lookahead)
                assert (la.point.s, la.end_of_path, la.fallback) == (s2[i], i in end_rows, i in fell), (s, i)
