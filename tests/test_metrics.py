import pytest

from pathfollow.metrics import (
    PHASE_CLOSE,
    PHASE_MIDCOURSE,
    RunRecord,
    improvements,
    summarize,
)
from pathfollow.path import make_line_path, make_sinusoid_path
from pathfollow.supervisor import Mission, MissionConfig
from pathfollow.vehicle import VehicleState


def make_run(a_vals, cte_vals, phase=PHASE_CLOSE):
    run = RunRecord()
    for i, (a, c) in enumerate(zip(a_vals, cte_vals)):
        run.append(i * 0.01, 0.0, 0.0, 0.0, a, c, phase, 1.0, 0.0)
    return run


def first_record(path, state, controller):
    """Phase label and cross-track error a mission records on its first step."""
    mission = Mission(path, state, MissionConfig(controller=controller))
    mission.step()
    return mission.record.phase[0], mission.record.cte[0]


def test_cross_track_error_on_path():
    path = make_sinusoid_path(0.0, 150.0)
    pp = path.point_at(12.0)
    st = VehicleState(pp.position[0], pp.position[1], 0.0, 5.0)
    for controller in ("baseline", "proposed"):
        phase, cte = first_record(path, st, controller)
        assert phase == PHASE_CLOSE
        assert cte < 1e-9


def test_cross_track_error_close_range_is_distance_to_path():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    st = VehicleState(7.0, -2.0, 0.0, 5.0)
    for controller in ("baseline", "proposed"):
        phase, cte = first_record(line, st, controller)
        assert phase == PHASE_CLOSE
        assert cte == pytest.approx(2.0, abs=1e-9)


def test_cross_track_error_midcourse_is_distance_to_start():
    # Start (0, 20); 40 m away lies beyond the 2 r0 ~ 30.3 m mid-course boundary.
    path = make_sinusoid_path(0.0, 150.0)
    st = VehicleState(0.0, -20.0, 0.0, 5.0)
    phase, cte = first_record(path, st, "baseline")
    assert phase == PHASE_MIDCOURSE
    assert cte == pytest.approx(40.0)


def test_summarize_constant_series():
    run = make_run([2.0] * 100, [1.0] * 100)
    s = summarize(run)
    assert (s.a_rms, s.d_rms, s.a_max) == pytest.approx((2.0, 1.0, 2.0))


def test_summarize_uses_absolute_peak():
    run = make_run([1.0, -3.0, 2.0], [0.1, 0.2, 0.3])
    assert summarize(run).a_max == pytest.approx(3.0)


def test_summarize_rms_dominates_mean():
    run = make_run([1.0, -2.0, 0.5, 3.0], [0.5, 1.5, 0.2, 0.8])
    s = summarize(run)
    vals = [1.0, -2.0, 0.5, 3.0]
    assert s.a_rms >= sum(abs(v) for v in vals) / len(vals)
    assert s.a_max >= s.a_rms


def test_summarize_close_samples_only():
    run = RunRecord()
    run.append(0.0, 0, 0, 0, 9.0, 9.0, PHASE_MIDCOURSE, 1, 0)
    run.append(0.01, 0, 0, 0, 2.0, 1.0, PHASE_CLOSE, 1, 0)
    s = summarize(run)
    assert (s.a_rms, s.d_rms, s.a_max) == pytest.approx((2.0, 1.0, 2.0))
    full = summarize(run, close_only=False)
    assert full.a_max == pytest.approx(9.0)


def test_summarize_empty_run_raises():
    with pytest.raises(ValueError, match="empty run"):
        summarize(RunRecord())
    only_mid = RunRecord()
    only_mid.append(0.0, 0, 0, 0, 1.0, 1.0, PHASE_MIDCOURSE, 1, 0)
    with pytest.raises(ValueError, match="close-range"):
        summarize(only_mid)


def test_improvements_identical_runs():
    run = make_run([2.0] * 10, [1.0] * 10)
    assert improvements(run, run) == pytest.approx((0.0, 0.0))


def test_improvements_reference_ratios():
    base = make_run([1.330] * 10, [0.632] * 10)
    prop = make_run([1.205] * 10, [0.473] * 10)
    cte_pct, ae_pct = improvements(base, prop)
    assert cte_pct == pytest.approx(25.158, abs=1e-2)
    assert ae_pct == pytest.approx(9.398, abs=1e-2)


def test_improvements_sign_flips_on_swap():
    base = make_run([2.0] * 10, [1.0] * 10)
    prop = make_run([1.5] * 10, [0.8] * 10)
    c1, a1 = improvements(base, prop)
    c2, a2 = improvements(prop, base)
    assert c1 > 0 > c2
    assert a1 > 0 > a2


def test_improvements_zero_denominator_raises():
    base = make_run([0.0] * 10, [0.0] * 10)
    prop = make_run([1.0] * 10, [1.0] * 10)
    with pytest.raises(ValueError, match="zero baseline"):
        improvements(base, prop)
