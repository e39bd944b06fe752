"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests -q"""

import json
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import missions  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seeded(name):
    def first(seed, n=5):
        return list(islice(workloads.scenarios(name, seed), n))

    assert first(3) == first(3)
    assert first(3) != first(4)
    assert workloads.first_round(name, 3) == first(3, workloads.WORKLOADS[name].round_size)


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    np.testing.assert_allclose(spans.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


def test_tracer_nests_spans_and_sums_self_time():
    tr = spans.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(1000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    outer()
    stats = spans.layer_stats(tr)
    assert (stats["outer"].calls, stats["inner"].calls) == (2, 6)
    assert list(tr.parent) == [-1, 0, 0, 0, -1, 4, 4, 4]
    assert stats["outer"].self_s + stats["inner"].self_s == pytest.approx(stats["outer"].total_s)


def test_block_rates_split_missions_at_gain_updates():
    stamps = [0.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0]  # seven steps
    # Updates start inside steps 1, 4 and 7: the blocks are steps 1-3 and
    # 4-6, and step 7, after the last update, is left out.
    np.testing.assert_allclose(missions.block_rates(stamps, [0.5, 4.5, 12.5]), [3 / 4.0, 3 / 8.0])
    np.testing.assert_allclose(missions.block_rates(stamps, []), [7 / 13.0])


def test_coverage_guard_flags_a_workload_that_stops_exercising_its_layers():
    def tracer_with(*names):
        tr = spans.Tracer()
        for name in names:
            tr.wrap(name, lambda: None)()
        return tr

    ticks = ("supervisor.step.midcourse", "supervisor.step.circle", "supervisor.step.close")
    assert spans.coverage_problems(False, tracer_with(*ticks)) == []
    assert spans.coverage_problems(True, tracer_with("optimizer.optimize_gains", ticks[2])) == []
    assert spans.coverage_problems(True, tracer_with(*ticks))
    assert spans.coverage_problems(False, tracer_with("optimizer.optimize_gains", *ticks))
    assert len(spans.coverage_problems(False, tracer_with(ticks[2]))) == 2


def _attributes():
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in spans._targets()]


def test_patched_attributes_are_restored():
    before = _attributes()
    tr = spans.Tracer()
    with spans.patched(tr):
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in before)
        m = missions.build(next(workloads.scenarios("baseline_two_phase", 0)), missions.PathCache())
        for _ in range(50):
            m.step()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)
    assert spans.layer_stats(tr)["supervisor.step.midcourse"].calls == 50

    with pytest.raises(RuntimeError), spans.patched(spans.Tracer()):
        raise RuntimeError("body failed")
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)


@pytest.fixture(scope="module")
def flown():
    m = missions.build(next(workloads.scenarios("baseline_two_phase", 0)), missions.PathCache())
    missions.fly(m)
    return m


def test_output_check_accepts_the_same_outcome(flown):
    ref = missions.outcome(flown)
    assert missions.check(flown, ref) == []
    nudged = dict(ref, a_rms=ref["a_rms"] * (1.0 + 1e-14))
    assert missions.reference_problems(missions.outcome(flown), nudged) == []


@pytest.mark.parametrize(
    "key, perturb",
    [
        ("a_rms", lambda v: v * (1.0 + 1e-9)),
        ("d_rms", lambda v: v * (1.0 - 1e-9)),
        ("a_max", lambda v: v + 1e-6),
        ("steps", lambda v: v + 1),
        ("timed_out", lambda v: not v),
        ("final_pose", lambda v: [v[0], v[1] + 1e-8, v[2]]),
    ],
)
def test_output_check_catches_a_perturbed_reference(flown, key, perturb):
    ref = missions.outcome(flown)
    ref[key] = perturb(ref[key])
    problems = missions.check(flown, ref)
    assert len(problems) == 1 and problems[0].startswith(key)


def test_stored_reference_is_complete_and_current(flown):
    ref = json.loads((BENCH / "reference.json").read_text())
    assert {k: len(v) for k, v in ref.items()} == {
        name: w.reference_count for name, w in workloads.WORKLOADS.items()
    }
    assert missions.check(flown, ref["baseline_two_phase"][0]) == []
