"""The compiled rollout step (``src/pathfollow/_rollout.c``) against the numpy kernel it repeats, bit for bit.

``optimizer._rollout_costs`` flies its steps on the compiled kernel when the system ``cc`` builds it, and on
the numpy stages otherwise; a compiled call that meets a NaN index or raises a float flag hands the whole
rollout back to numpy.  These tests hold the two kernels to the same bytes and the same exceptions, pin the
rollout digests under both, and check which kernel a process picks and why.
"""

import hashlib
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathfollow.optimizer as optimizer
from pathfollow.guidance import law_operands
from pathfollow.path import make_polyline_path, make_sinusoid_path
from pathfollow.vehicle import VehicleState, step_operands

from path_tables import corner_table, cusp_table, kinked_table, spike_table
from test_rollout_kernel import CASES, DIGESTS, HAIRPIN, LINE, STOCK

COMPILED = optimizer.rollout_kernel() == "compiled"
needs_compiled = pytest.mark.skipif(not COMPILED, reason=f"rollout kernel: {optimizer.rollout_kernel()}")
NUMPY = (None, "pinned by the test")

TABLES = {
    "stock": STOCK,
    "sinusoid": make_sinusoid_path(0.0, 150.0),
    "line": LINE,
    "hairpin": HAIRPIN,
    "zigzag": make_polyline_path([(0.0, 0.0), (10.0, 4.0), (20.0, -4.0), (30.0, 4.0), (40.0, 0.0)]),
    "kinked": kinked_table(3),
    "spike": spike_table(),
    "corner": corner_table(),
    "cusp": cusp_table(),
}
GAINS = [0.0, -0.0, 5e-324, 1e300]
A_MAX = [None, 5e-324, 0.5, 3.0, math.inf]


def outcome(args, kernel=None):
    """The costs' bytes, or the exception's type and message, of one ``_rollout_costs`` call on ``kernel``
    (None: the process's own)."""
    saved = optimizer._KERNEL
    optimizer._KERNEL = kernel or optimizer._kernel()
    try:
        return optimizer._rollout_costs(*args).tobytes()
    except Exception as e:  # RuntimeWarning included: the test session turns numpy's warnings into errors
        return type(e), str(e)
    finally:
        optimizer._KERNEL = saved


def case_args(name, a_max):
    path, (x, y, heading), s_min, s_proj, (k1s, k2s), _, _ = CASES[name]
    return path, VehicleState(x, y, heading, 5.0), s_min, s_proj, k1s, k2s, 10.0, 0.01, 200, a_max


@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_rollout_costs_digest_under_both_kernels(name, kernel):
    # test_rollout_kernel's digests, recorded on the numpy stages, without the wrappers that pin that test to numpy.
    if kernel == "compiled" and not COMPILED:
        pytest.skip(f"rollout kernel: {optimizer.rollout_kernel()}")
    costs = outcome(case_args(name, CASES[name][5]), None if kernel == "compiled" else NUMPY)
    assert hashlib.sha256(costs).hexdigest() == DIGESTS[name]


@needs_compiled
@pytest.mark.parametrize("a_max", [None, 0.5])
@pytest.mark.parametrize("name", sorted(CASES))
def test_compiled_kernel_flies_the_digest_cases_itself(name, a_max):
    # No hand-back on the pinned cases: the compiled steps give the numpy steps' squared sums themselves.
    path, state, s_min, s_proj, k1s, k2s, lookahead, dt, n_steps, _ = case_args(name, a_max)
    args = (path, state, s_min, s_proj, np.array((k1s, k2s)), lookahead, n_steps, law_operands(5.0),
            step_operands(5.0, dt, a_max))
    sums = optimizer._compiled_steps(optimizer._kernel()[0], *args)
    assert sums is not None
    assert sums.tobytes() == optimizer._numpy_steps(*args).tobytes()


@needs_compiled
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    table=st.sampled_from(sorted(TABLES)),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 40),
    lookahead=st.sampled_from([3.0, 10.0]),
    a_max=st.sampled_from(A_MAX),
    speed=st.sampled_from([5.0, 40.0]),
    n_steps=st.integers(1, 40),
)
def test_compiled_rollout_matches_numpy(table, seed, k, lookahead, a_max, speed, n_steps):
    # A state 0-40 m off the path at any heading, ±pi among them, with hints near its foot; gains uniform on
    # [0, 10] with 0, -0, 5e-324 and 1e300 mixed in.  Drawn from a seeded generator, as Hypothesis's floats favour
    # round values (test_scalar_tick).  Same bytes, or the same exception, from both kernels.
    path = TABLES[table]
    total = path.total_length
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, total)
    (x, y, tx, ty, _), off = path.point_at_many(np.array([s]))[:, 0], rng.uniform(-40.0, 40.0) * rng.integers(0, 2)
    heading = rng.choice([math.pi, -math.pi, rng.uniform(-math.pi, math.pi)])
    state = VehicleState(x - off * ty, y + off * tx, heading, speed)
    k1s, k2s = rng.uniform(0.0, 10.0, (2, k))
    for ks in (k1s, k2s):
        special = rng.random(k) < 0.3
        ks[special] = rng.choice(GAINS, np.count_nonzero(special))
    s_min, s_proj = s + rng.uniform(-5.0, 15.0), s + rng.uniform(-2.0, 2.0)
    args = (path, state, s_min, s_proj, k1s, k2s, lookahead, 0.01, n_steps, a_max)
    assert outcome(args) == outcome(args, NUMPY)


@needs_compiled
@pytest.mark.parametrize("change", ["x", "s_min", "k1", "k2"])
def test_non_finite_rows_hand_the_rollout_to_numpy(change):
    # A NaN position or look-ahead bound meets an index cast, and a NaN or infinite gain raises a float flag: the
    # compiled call hands the rollout back, and both kernels raise the same exception or give the same bits.
    path, state, s_min, s_proj, k1s, k2s, *rest = case_args("stock1", None)
    k1s, k2s = k1s.copy(), k2s.copy()
    if change == "x":
        state = VehicleState(math.nan, state.y, state.heading, state.speed)
    elif change == "s_min":
        s_min = math.nan
    else:
        (k1s if change == "k1" else k2s)[5:9] = (math.nan, math.inf, -math.inf, 1e300)
    args = (path, state, s_min, s_proj, k1s, k2s, *rest)
    ks, law, rk4 = np.array((k1s, k2s)), law_operands(5.0), step_operands(5.0, 0.01)
    assert optimizer._compiled_steps(optimizer._kernel()[0], *args[:4], ks, 10.0, 200, law, rk4) is None
    assert outcome(args) == outcome(args, NUMPY)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler: the numpy kernel is the only one")
def test_compiled_kernel_is_chosen_where_cc_builds_it():
    # The speed-up cannot vanish silently: with a compiler present, the process flies the compiled kernel.
    assert optimizer.rollout_kernel() == "compiled"


def test_without_a_compiler_numpy_flies_and_the_digests_hold(monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setattr(optimizer, "_KERNEL", None)
    assert optimizer.rollout_kernel() == "numpy (no C compiler: cc not found)"
    for name in sorted(CASES):
        costs = optimizer._rollout_costs(*case_args(name, CASES[name][5]))
        assert hashlib.sha256(costs.tobytes()).hexdigest() == DIGESTS[name], name


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler: nothing to check")
def test_a_libm_mismatch_selects_numpy(monkeypatch):
    # The kernel is exact only where libm's cos is numpy's: one that differs in the last bit leaves numpy.
    cos = np.cos
    monkeypatch.setattr(np, "cos", lambda x: np.nextafter(cos(x), np.inf))
    monkeypatch.setattr(optimizer, "_KERNEL", None)
    assert optimizer.rollout_kernel() == "numpy (the compiled kernel's hypot, sin or cos differs from numpy's)"
