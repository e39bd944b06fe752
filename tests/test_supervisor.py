import math

import numpy as np
import pytest

from pathfollow import optimizer
from pathfollow.config import parse_scenario
from pathfollow.metrics import PHASE_CIRCLE, PHASE_CLOSE, PHASE_MIDCOURSE, summarize
from pathfollow.midcourse import InfeasibleGeometryError
from pathfollow.optimizer import OptimizerSettings
from pathfollow.path import curvature_radius, make_line_path, make_sinusoid_path
from pathfollow.supervisor import (
    CircleFollow,
    CloseRange,
    Done,
    Mission,
    MissionConfig,
    classify_phase,
    run_mission,
)
from pathfollow.vehicle import VehicleState


@pytest.fixture(scope="module")
def bench_path():
    return make_sinusoid_path(0.0, 150.0)


def test_classify_close_start(bench_path):
    # Start (0, 20), radius of curvature there ~15.17: the stock vehicle
    # position 25 m away sits inside the 2 r0 ~ 30.3 m boundary.
    r0 = curvature_radius(bench_path.point_at(0.0))
    assert 2 * r0 == pytest.approx(30.336, abs=5e-3)
    st = VehicleState(-15.0, 0.0, 0.0, 5.0)
    assert math.hypot(-15.0 - 0.0, 0.0 - 20.0) == pytest.approx(25.0)
    assert classify_phase(st, bench_path, r0) == PHASE_CLOSE


def test_classify_far_start(bench_path):
    r0 = curvature_radius(bench_path.point_at(0.0))
    sx, sy = bench_path.start.position
    st = VehicleState(sx - 60.0, sy, 0.0, 5.0)
    assert classify_phase(st, bench_path, r0) == PHASE_MIDCOURSE


def test_classify_boundary_is_inclusive():
    line = make_line_path((0.0, 0.0), (1.0, 0.0), 100.0)
    r0 = curvature_radius(line.point_at(0.0))
    st = VehicleState(-2.0 * r0, 0.0, 0.0, 5.0)
    assert classify_phase(st, line, r0) == PHASE_MIDCOURSE


def test_close_range_mission_records_every_step(bench_path):
    cfg = MissionConfig(controller="baseline")
    run = run_mission(bench_path, VehicleState(-15.0, 0.0, 0.6, 5.0), cfg)
    t = np.array(run.t)
    assert np.allclose(np.diff(t), cfg.dt, atol=1e-9)
    assert set(run.phase) == {PHASE_CLOSE}
    assert not run.timed_out


def test_baseline_and_fixed_gain_blended_trajectories_identical(bench_path):
    st = VehicleState(-15.0, 0.0, math.radians(39.118), 5.0)
    rb = run_mission(bench_path, st, MissionConfig(controller="baseline"))
    rp = run_mission(bench_path, st, MissionConfig(controller="proposed", k1=1.0, k2=0.0))
    assert rb.x == rp.x and rb.y == rp.y and rb.a_cmd == rp.a_cmd


def test_baseline_flies_and_logs_gains_one_zero(bench_path):
    # The baseline ignores the configured gains and optimizer: it flies
    # (1, 0) untuned and its telemetry says so.
    st = VehicleState(-15.0, 0.0, math.radians(39.118), 5.0)
    rd = run_mission(bench_path, st, MissionConfig(controller="baseline"))
    cfg = MissionConfig(controller="baseline", k1=2.0, k2=1.0, optimizer=OptimizerSettings())
    rg = run_mission(bench_path, st, cfg)
    assert rg.x == rd.x and rg.a_cmd == rd.a_cmd
    assert set(rg.k1) == {1.0} and set(rg.k2) == {0.0}


def test_full_mission_phase_sequence(bench_path):
    cfg = MissionConfig(
        controller="proposed", optimizer=OptimizerSettings(), initiation_radius=10.0
    )
    mission = Mission(bench_path, VehicleState(-45.0, 20.0, 0.0, 5.0), cfg)
    run = mission.run()
    order = [p for i, p in enumerate(run.phase) if i == 0 or run.phase[i - 1] != p]
    assert order == [PHASE_MIDCOURSE, PHASE_CIRCLE, PHASE_CLOSE]
    assert mission.done
    assert not run.timed_out


def test_done_is_absorbing(bench_path):
    cfg = MissionConfig(controller="baseline")
    mission = Mission(bench_path, VehicleState(-15.0, 0.0, 0.6, 5.0), cfg)
    mission.run()
    n = len(mission.record)
    for _ in range(5):
        cmd, phase = mission.step()
        assert cmd == 0.0
        assert isinstance(phase, Done)
    assert len(mission.record) == n  # absorbing state emits no records


def test_lookahead_parameter_is_nondecreasing(bench_path):
    cfg = MissionConfig(controller="proposed", k1=1.0, k2=0.5)
    mission = Mission(bench_path, VehicleState(-15.0, 0.0, 0.9, 5.0), cfg)
    last = -1.0
    while not mission.done:
        mission.step()
        if isinstance(mission.phase, CloseRange):
            assert mission.phase.s_min >= last - 1e-12
            last = mission.phase.s_min


def test_infeasible_geometry_reported(bench_path):
    # Far start heading directly away from both candidate circles.
    with pytest.raises(InfeasibleGeometryError):
        Mission(
            bench_path,
            VehicleState(60.0, 80.0, math.radians(45.0), 5.0),
            MissionConfig(controller="baseline"),
        )


def test_mission_times_out_instead_of_spinning(bench_path):
    cfg = MissionConfig(controller="baseline", max_time=1.0)
    run = run_mission(bench_path, VehicleState(-15.0, 0.0, 0.6, 5.0), cfg)
    assert run.timed_out
    assert run.t[-1] <= 1.0 + cfg.dt


def test_end_of_path_coast_duration(bench_path):
    cfg = MissionConfig(controller="baseline")
    run = run_mission(bench_path, VehicleState(-15.0, 0.0, 0.6, 5.0), cfg)
    a = np.array(run.a_cmd)
    n_coast = int(round(cfg.lookahead / 5.0 / cfg.dt))
    assert np.all(a[-n_coast:] == 0.0)
    assert a[-n_coast - 1] != 0.0 or a[-n_coast - 2] != 0.0


def test_summaries_available_for_both_controllers(bench_path):
    for controller in ("baseline", "proposed"):
        cfg = MissionConfig(controller=controller, k1=1.0, k2=0.3)
        run = run_mission(bench_path, VehicleState(-15.0, 0.0, 0.6, 5.0), cfg)
        s = summarize(run)
        assert s.a_max >= s.a_rms > 0
        assert s.d_rms > 0


def test_gain_updates_roll_out_with_the_mission_a_max(bench_path, monkeypatch):
    # The tuner must pick gains for the saturated vehicle the mission flies.
    from pathfollow import optimizer

    seen = []
    tune = optimizer.optimize_gains

    def recording(*args, **kwargs):
        seen.append(kwargs.get("a_max"))
        return tune(*args, **kwargs)

    monkeypatch.setattr(optimizer, "optimize_gains", recording)
    cfg = MissionConfig(optimizer=OptimizerSettings(grid=3, refine_rounds=0), a_max=0.5)
    mission = Mission(bench_path, VehicleState(-15.0, 0.0, 0.0, 5.0), cfg)
    for _ in range(5):
        mission.step()
    assert seen == [0.5]


@pytest.mark.parametrize("off_deg, arrives", [(1.9, True), (-1.9, True), (2.1, False), (-2.1, False)])
def test_approach_phases_hand_over_only_within_the_heading_tolerance(bench_path, off_deg, arrives):
    # On the contact point, then on the path start, heading off_deg from the tangent there (2 deg allowed).
    mission = Mission(bench_path, VehicleState(-45.0, 20.0, 0.0, 5.0),
                      MissionConfig(controller="baseline", initiation_radius=10.0))
    circle, w = mission.phase.circle, mission.phase.solution.w
    start = bench_path.start
    for phase, (x, y), (tx, ty), after in ((mission.phase, w, circle.tangent_at(w), CircleFollow),
                                            (CircleFollow(circle), start.position, start.tangent, CloseRange)):
        mission.phase = phase
        mission.state = VehicleState(x, y, math.atan2(ty, tx) + math.radians(off_deg), 5.0)
        mission.step()
        assert isinstance(mission.phase, after if arrives else type(phase))


@pytest.mark.parametrize("a_max", [0.0, -0.0, -1.0, math.nan, -math.inf])
def test_mission_config_refuses_the_a_max_the_schema_refuses(a_max):
    # parse_scenario refuses sim.a_max <= 0; at -1 a baseline mission flew an inverted
    # clamp that never finished, and at NaN the tuner died in point_at_many.
    with pytest.raises(ValueError, match="a_max"):
        MissionConfig(a_max=a_max)


@pytest.mark.parametrize(
    "field, value, message",
    [("lookahead", 0.0, "lookahead must be positive"), ("lookahead", math.nan, "lookahead must be positive"),
     ("dt", -0.01, "dt must be positive"), ("controller", "both", "unknown controller 'both'")],
)
def test_mission_config_refuses_what_no_mission_can_fly(field, value, message):
    with pytest.raises(ValueError, match=message):
        MissionConfig(**{field: value})


@pytest.mark.parametrize("a_max", [None, 5e-324, 3.0, math.inf])
def test_mission_config_takes_a_positive_or_no_a_max(a_max):
    assert MissionConfig(a_max=a_max).a_max == a_max


@pytest.mark.parametrize("k1, k2", [(1e300, 1e300), (1.0, 1e305), (math.inf, math.inf)])
def test_baseline_mission_takes_gains_it_never_flies(bench_path, k1, k2):
    # The baseline flies (1, 0) untuned, so the blended-command bound of the configured gains is not its own.
    config = MissionConfig(controller="baseline", k1=k1, k2=k2, optimizer=OptimizerSettings())
    assert config.flown == (1.0, 0.0, None)
    mission = Mission(bench_path, VehicleState(-15.0, 0.0, math.radians(39.118), 5.0), config)
    assert (mission.gains.k1, mission.gains.k2, mission._optimizer) == (1.0, 0.0, None)


def test_an_untuned_law_at_k2_zero_is_not_bounded_by_its_k1(bench_path):
    # At k2 = 0 the tick flies the look-ahead term alone, whatever k1: the baseline's bits.
    st = VehicleState(-15.0, 0.0, math.radians(39.118), 5.0)
    rb = run_mission(bench_path, st, MissionConfig(controller="baseline", max_time=5.0))
    rp = run_mission(bench_path, st, MissionConfig(k1=1e300, k2=0.0, max_time=5.0))
    assert rb.x == rp.x and rb.a_cmd == rp.a_cmd


@pytest.mark.parametrize("k2", [1e305, math.nan])
def test_a_fixed_gain_law_that_blends_keeps_the_blended_command_bound(bench_path, k2):
    # The k2 the baseline scenario may now hold is still refused where it is flown; a NaN k2 is not 0, so it blends.
    config = MissionConfig(k1=1.0, k2=k2)
    with pytest.raises(ValueError, match="guidance.k1/k2: the blended command must be finite"):
        Mission(bench_path, VehicleState(-15.0, 0.0, 0.0, 5.0), config)


def test_each_gain_update_predicts_the_cost_the_mission_flies(monkeypatch):
    # A gain update's cost is the RMS cross-track error of its winning pair's rollout.  Where the mission flies that
    # pair for the whole horizon, in close range and before the next update, the flown RMS over those ticks, summed
    # in step order as the rollout sums it, is the same to the last few bits.  The stock proposed mission's first
    # five such updates: they catch a tuner that flies other dynamics than the mission, such as a cut projection reach.
    cfg = parse_scenario({})
    mission = Mission(cfg.build_path(), cfg.build_state(39.118), cfg.mission_config("proposed"))
    updates, optimize = [], optimizer.optimize_gains

    def spy(*args, **kwargs):
        updates.append((len(mission.record), optimize(*args, **kwargs)))  # the index of the tick it serves
        return updates[-1][1]

    monkeypatch.setattr(optimizer, "optimize_gains", spy)
    rec, checked = mission.record, []
    while len(checked) < 5:
        assert not mission.done
        seen = len(updates)
        mission.step()
        if len(updates) > seen >= 1:  # a new update ends the previous one's gains
            (i0, res), (i1, _) = updates[-2:]
            n = max(1, round(res.horizon / mission.config.dt))
            if i0 + n <= i1 and set(rec.phase[i0 : i0 + n]) == {PHASE_CLOSE}:
                sq = 0.0
                for cte in rec.cte[i0 : i0 + n]:
                    sq += cte * cte
                checked.append((res.cost, math.sqrt(sq / n)))
    for cost, flown in checked:
        assert cost == pytest.approx(flown, rel=1e-12, abs=0.0)
