"""The compiled rollout step (``src/pathfollow/_rollout.c``) against the numpy kernel it repeats, bit for bit.

``optimizer._rollout_costs`` flies its steps on the compiled kernel when the system ``cc`` builds it, and on
the numpy stages otherwise; a compiled call that meets a NaN index or raises a float flag hands the whole
rollout back to numpy.  These tests hold the two kernels to the same bytes and the same exceptions, pin the
rollout digests under both, and check which kernel a process picks and why.  The compiled kernel splits a
rollout's rows into slices, one thread each; the slice tests force the split by patching the thread count.
"""

import hashlib
import math
import multiprocessing
import shutil
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathfollow.optimizer as optimizer
from pathfollow.guidance import law_operands
from pathfollow.path import ReferencePath, make_polyline_path, make_sinusoid_path
from pathfollow.vehicle import VehicleState, step_operands

from path_tables import corner_table, cusp_table, kinked_table, spike_table
from test_rollout_kernel import CASES, DIGESTS, HAIRPIN, LINE, STOCK

COMPILED = optimizer.rollout_kernel().startswith("compiled")
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


def step_args(args):
    """``_rollout_costs`` arguments as the kernels' step functions take them."""
    path, state, s_min, s_proj, k1s, k2s, lookahead, dt, n_steps, a_max = args
    return (path, state, s_min, s_proj, np.array((k1s, k2s)), lookahead, n_steps, law_operands(state.speed),
            step_operands(state.speed, dt, a_max))


def compiled_sums(args):
    """The compiled steps' squared sums, or None where they hand the rollout back."""
    return optimizer._compiled_steps(optimizer._kernel()[0], *step_args(args))


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
    args = case_args(name, a_max)
    sums = compiled_sums(args)
    assert sums is not None
    assert sums.tobytes() == optimizer._numpy_steps(*step_args(args)).tobytes()


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
    assert compiled_sums(args) is None
    assert outcome(args) == outcome(args, NUMPY)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler: the numpy kernel is the only one")
def test_compiled_kernel_is_chosen_where_cc_builds_it():
    # The speed-up cannot vanish silently: with a compiler present, the process flies the compiled kernel, on up
    # to a thread per CPU.
    n = optimizer._threads()
    assert optimizer.rollout_kernel() == (f"compiled, up to {n} threads" if n > 1 else "compiled, 1 thread")


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
    assert optimizer.rollout_kernel() == "numpy (the compiled kernel's hypot, sin, cos or arctan2 differs from numpy's)"


def split(monkeypatch, parts):
    """Split a compiled rollout's rows into ``parts`` slices, or as many as it has rows."""
    monkeypatch.setattr(optimizer, "_threads", lambda: parts)
    monkeypatch.setattr(optimizer, "_MIN_ROWS", 1)


@needs_compiled
@pytest.mark.parametrize("name", sorted(CASES))
def test_row_slices_on_threads_give_the_one_slice_bytes(name, monkeypatch):
    # Rows are independent bit for bit, so slices flown on threads join to one slice's sums, with no hand-back, and
    # every thread is gone when the call returns.
    args = case_args(name, CASES[name][5])
    threads = threading.active_count()
    split(monkeypatch, 1)
    one = compiled_sums(args)
    assert one is not None
    for parts in (2, 3, 5):
        split(monkeypatch, parts)
        sums = compiled_sums(args)
        assert sums is not None and sums.tobytes() == one.tobytes(), parts
        assert threading.active_count() == threads


# Rows 5 m before the 60 m line's end, 20 m ahead of their look-ahead bound, and 40 m off the line: the first end the
# path in the compiled bulk test at every step, the second take the scalar look-ahead once, and the last lose the
# circle at every step.  (x, y, heading, look-ahead bound, projection hint)
MIXED = [(55.0, 0.5, 0.1, 55.0, 55.0)] * 3 + [(20.0, 1.0, 0.2, 0.0, 20.0)] * 3 + [(20.0, 40.0, -0.3, 0.0, 20.0)] * 3


def start_rows_at(monkeypatch, starts):
    """Start row i of every rollout at ``starts[i]`` in place of the shared state: _rollout_rows hands out the
    starts in row order, over the numpy kernel's one call and the compiled kernel's one call per slice."""
    rollout_rows, taken = optimizer._rollout_rows, [0]

    def rows(path, state, s_min, s_proj, k):
        out = pos, psi, cs, s_lb, s, _, _ = rollout_rows(path, state, s_min, s_proj, k)
        x, y, heading, lb, hint = np.array(starts[taken[0]:taken[0] + k]).T
        taken[0] = (taken[0] + k) % len(starts)
        pos[:], psi[:], cs[:], s_lb[:], s[0] = (x, y), heading, (np.cos(heading), np.sin(heading)), lb, hint
        return out

    monkeypatch.setattr(optimizer, "_rollout_rows", rows)


@needs_compiled
def test_end_scalar_and_fallback_rows_in_different_slices(monkeypatch):
    # Each slice stops for its own scalar rows while the others fly on; the joined sums are numpy's.
    start_rows_at(monkeypatch, MIXED)
    answers = {"end": 0, "fallback": 0, "crossing": 0}
    misses = ReferencePath._lookahead_misses

    def spy(self, pos, s_lb, lookahead_dist, s_out, miss, j):
        end_rows, fallback = misses(self, pos, s_lb, lookahead_dist, s_out, miss, j)
        fell = 0 if fallback is None else fallback[0].size
        answers["end"] += end_rows.size
        answers["fallback"] += fell
        answers["crossing"] += miss.size - end_rows.size - fell
        return end_rows, fallback

    monkeypatch.setattr(ReferencePath, "_lookahead_misses", spy)
    k1s, k2s = np.linspace(0.0, 8.0, 9), np.linspace(5.0, 1.0, 9)
    args = (LINE, VehicleState(0.0, 0.0, 0.0, 5.0), 0.0, 0.0, k1s, k2s, 10.0, 0.01, 200, None)
    numpy_costs = outcome(args, NUMPY)
    threads = threading.active_count()
    for parts in (1, 2, 3, 4, 9):
        split(monkeypatch, parts)
        answers.update(dict.fromkeys(answers, 0))
        sums = compiled_sums(args)
        assert sums is not None
        assert outcome(args) == numpy_costs, parts
        assert threading.active_count() == threads
        # the 3 crossing rows once and the 3 lost rows at every step, on each of the two calls
        assert answers == {"end": 0, "fallback": 2 * 3 * 200, "crossing": 2 * 3}, parts


# A hook whose spline turns back past its third point: near its end the look-ahead circle holds the path end while
# the path leaves and re-enters it beyond the chunk, so the bulk end test must leave such rows to the scalar scan.
HOOK = make_polyline_path([(0.0, 0.0), (20.0, 0.0), (20.0, 6.0), (14.0, 6.0)])


@needs_compiled
@pytest.mark.parametrize("x, y, heading, s_min, lookahead", [(8.39, 4.08, 2.63, 35.6, 6.0),
                                                            (13.1, 2.73, -1.77, 39.5, 4.0),
                                                            (11.8, -3.58, 1.7, 41.0, 10.0)])
def test_the_compiled_bulk_end_test_ends_only_numpys_rows(monkeypatch, x, y, heading, s_min, lookahead):
    # Each state parts the two kernels once the compiled skip bound is 50 segments looser than numpy's.
    args = (HOOK, VehicleState(x, y, heading, 5.0), s_min, HOOK.project((x, y))[0].s, np.array([6.6, 2.5, 7.7, 2.1]),
            np.array([8.3, 0.6, 8.3, 1.6]), lookahead, 0.01, 50, None)
    for parts in (1, 4):
        split(monkeypatch, parts)
        assert compiled_sums(args) is not None
        assert outcome(args) == outcome(args, NUMPY)


@needs_compiled
def test_a_nan_row_in_one_slice_hands_the_whole_rollout_to_numpy(monkeypatch):
    path, state, s_min, s_proj, k1s, k2s, *rest = case_args("stock1", None)
    k1s = k1s.copy()
    k1s[100] = math.nan  # in the last of 3 slices
    args = (path, state, s_min, s_proj, k1s, k2s, *rest)
    threads = threading.active_count()
    split(monkeypatch, 3)
    assert compiled_sums(args) is None
    assert outcome(args) == outcome(args, NUMPY)
    assert threading.active_count() == threads


@needs_compiled
def test_an_exception_while_answering_misses_reaches_the_caller(monkeypatch):
    def fail(*_):
        raise RuntimeError("scalar look-ahead failed")

    monkeypatch.setattr(ReferencePath, "_lookahead_misses", fail)
    start_rows_at(monkeypatch, MIXED)
    args = (LINE, VehicleState(0.0, 0.0, 0.0, 5.0), 0.0, 0.0, *np.ones((2, 9)), 10.0, 0.01, 200, None)
    threads = threading.active_count()
    for parts in (1, 3):
        split(monkeypatch, parts)
        with pytest.raises(RuntimeError, match="scalar look-ahead failed"):
            optimizer._rollout_costs(*args)
        assert threading.active_count() == threads


@needs_compiled
def test_a_pool_worker_flies_its_rollouts_on_one_thread_to_the_same_bytes():
    # A sweep's pool holds a process per CPU, so a process that multiprocessing started splits no rollout over
    # threads; its rollouts give this process's bytes.
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(optimizer.rollout_kernel).result() == "compiled, 1 thread"
        for name in sorted(CASES):
            args = case_args(name, CASES[name][5])
            assert pool.submit(optimizer._rollout_costs, *args).result().tobytes() == outcome(args), name


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler: nothing to check")
@pytest.mark.parametrize("arctan2", [np.hypot, np.vectorize(math.atan2)], ids=["hypot", "vectorized"])
def test_an_arctan2_loop_not_found_selects_numpy(monkeypatch, arctan2):
    # The kernel calls the float64 loop of numpy's arctan2 ufunc itself: when np.arctan2 is no ufunc, or its table
    # names another, numpy flies.
    monkeypatch.setattr(np, "arctan2", arctan2)
    monkeypatch.setattr(optimizer, "_KERNEL", None)
    assert optimizer.rollout_kernel() == "numpy (numpy's arctan2 ufunc shows no float64 loop)"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler: nothing to check")
def test_an_arctan2_loop_mismatch_selects_numpy(monkeypatch):
    # A loop found but giving other bits fails the probe: here hypot's float64 loop in arctan2's place.
    lookup = optimizer._float64_loop
    monkeypatch.setattr(optimizer, "_float64_loop", lambda name: lookup("hypot"))
    monkeypatch.setattr(optimizer, "_KERNEL", None)
    assert optimizer.rollout_kernel() == "numpy (the compiled kernel's hypot, sin, cos or arctan2 differs from numpy's)"
