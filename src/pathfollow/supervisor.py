"""Mission phase logic: per-step command dispatch, transitions, telemetry.

A mission runs through at most four phases: an optional mid-course phase
(constant-command arc onto the initiation circle), circle following around
to the path start, close-range path tracking, and an absorbing done state.
The phase is classified once at mission start: mid-course when the vehicle
is at least twice the start curvature radius away from the path start,
otherwise the close-range law applies immediately.

Both controllers fly one close-range tick, at the gains and tuner that
:attr:`MissionConfig.flown` gives: the baseline is gains (1, 0) with no
optimizer, the proposed controller the configured gains and optimizer.  While
k2 = 0 the tick evaluates only the look-ahead term.

Each integration step emits exactly one telemetry record.  Cross-track
error follows the phase convention: distance to the path start point during
mid-course, distance to the closest path point otherwise.  Close range starts
with its projection (``guidance.track_projection``, over the whole path from
the forward-progress guard), so every close-range tick searches from the
previous projection; only the blended tick builds a PathPoint, the others
read ``ReferencePath.project_s``.  Circle-follow ticks search the whole path,
over the span ``nearest_span`` proves for points within ``_SPAN_REACH``
circle radii of the centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import guidance, midcourse as mc, optimizer as opt, vehicle
from .geom import Vec2, heading_vector, signed_angle
from .metrics import PHASE_CIRCLE, PHASE_CLOSE, PHASE_MIDCOURSE, RunRecord
from .path import MAX_RADIUS, MIN_RADIUS, ReferencePath, curvature_radius
from .vehicle import VehicleState, _check_a_max

CONTROLLER_BASELINE = "baseline"
CONTROLLER_PROPOSED = "proposed"
# Most steps in one mission, max_time / dt (180,000 in the stock scenario).  Each
# step keeps about 76 B of telemetry, so this allows about 150 MB; a scenario
# that could ask for more is refused up front.
MAX_MISSION_STEPS = 2_000_000
# The disc around the initiation circle's centre, in circle radii, whose points the circle-follow tick projects onto
# a bounded span of the path (ReferencePath.nearest_span).  Circle following keeps the vehicle about one radius out.
_SPAN_REACH = 1.5


@dataclass(frozen=True)
class MissionConfig:
    """Everything a single mission needs besides the path and initial state."""

    lookahead: float = 10.0
    initiation_radius: float | None = None  # default: lookahead / 2
    dt: float = 0.01
    controller: str = CONTROLLER_PROPOSED
    k1: float = 1.0
    k2: float = 0.0
    optimizer: opt.OptimizerSettings | None = None  # None: gains stay fixed
    arrive_pos_tol: float = 0.25
    arrive_heading_tol: float = math.radians(2.0)
    end_s_tol: float = 0.1
    a_max: float | None = None
    max_time: float = 1800.0

    def __post_init__(self):
        if not self.lookahead > 0.0:
            raise ValueError("lookahead must be positive")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.controller not in (CONTROLLER_BASELINE, CONTROLLER_PROPOSED):
            raise ValueError(f"unknown controller {self.controller!r}")
        _check_a_max(self.a_max)

    @property
    def radius(self) -> float:
        return self.initiation_radius if self.initiation_radius is not None else self.lookahead / 2.0

    @property
    def flown(self) -> tuple[float, float, opt.OptimizerSettings | None]:
        """The gains (k1, k2) the controller starts from and the tuner it flies: the baseline is (1, 0), never tuned."""
        if self.controller == CONTROLLER_BASELINE:
            return 1.0, 0.0, None
        return self.k1, self.k2, self.optimizer


def mission_problems(config: MissionConfig, speed: float) -> list[str]:
    """The flight envelope: one line, named by its scenario key, per bound that ``config`` breaks at ``speed``.
    Finite: the arc command 2 speed^2 / MIN_TARGET_DIST, the coast's lookahead / speed / dt steps, a step's turn dt * 2
    speed / MIN_TARGET_DIST, (speed * max_time)^2 and, for a law that blends (a tuner or a flown k2 other than 0), the
    blend, (k1 MAX_RADIUS + k2 (1 + cap) speed / 2 MIN_RADIUS) times the arc command at the largest gains flown.  At
    most MAX_MISSION_STEPS steps, then MAX_ROLLOUT_STEPS a rollout of steps speed * dt at most the tuner's bound, which
    its batched projection can follow, over a gain update's horizon, at least min(d_limit, MIN_RADIUS) / speed > 0."""
    v, dt, mt, d_min = speed, config.dt, config.max_time, guidance.MIN_TARGET_DIST
    k1, k2, tuner = config.flown
    too_fast = not math.isfinite(2.0 * v * v / d_min)
    problems = [f"vehicle.speed: must keep the arc command 2 speed^2 / {d_min} finite, got {v!r}"] if too_fast else []
    if too_long := not mt / dt <= MAX_MISSION_STEPS:  # a quotient past the float range is inf
        problems.append(f"sim.max_time: a mission's max_time / dt steps must be at most {MAX_MISSION_STEPS},"
                        f" got {mt / dt:.6g} at max_time {mt!r}, dt {dt!r}")
    if too_fast:  # the other bounds all take a finite arc command
        return problems
    if not math.isfinite((la := config.lookahead) / v / dt):
        problems.append(f"guidance.lookahead: lookahead / speed / dt must be finite, got {la!r} / {v!r} / {dt!r}")
    elif tuner and not too_long and (n := min(tuner.d_limit, MAX_RADIUS) / v / dt) > opt.MAX_ROLLOUT_STEPS:
        problems.append(f"optimizer.d_limit: a rollout's min(d_limit, {MAX_RADIUS:g}) / speed / dt steps must be at most"
                        f" {opt.MAX_ROLLOUT_STEPS}, got {n:.6g} at d_limit {tuner.d_limit!r}, speed {v!r}, dt {dt!r}")
    if tuner and not (h := min(tuner.d_limit, MIN_RADIUS) / v) > 0.0:  # a quotient under the float range is 0
        problems.append(f"optimizer.d_limit: a gain update's least horizon min(d_limit, {MIN_RADIUS:g}) / speed must be"
                        f" positive, got {h!r} at d_limit {tuner.d_limit!r}, speed {v!r}")
    if tuner and not v * dt <= opt._MAX_STEP:
        problems.append(f"sim.dt: a rollout's step speed * dt must be at most {opt._MAX_STEP} m, got {v * dt:.6g}"
                        f" at speed {v!r}, dt {dt!r}")
    if not math.isfinite(dt * 2.0 * v / d_min):
        problems.append(f"sim.dt: the turn per step dt * 2 speed / {d_min} must be finite, got {dt!r} at speed {v!r}")
    if not math.isfinite((v * mt) * (v * mt)):  # a product: Python's ** raises
        problems.append(f"sim.max_time: the farthest flight speed * max_time must square to a finite float,"
                        f" got {mt!r} at speed {v!r}")
    if tuner is None and k2 == 0.0:  # the tick flies the arc command alone and forms no blend
        return problems
    k_max = tuner.k_max if tuner else 0.0  # the tuner's largest gains
    w_max = max(k1, k_max) * MAX_RADIUS + max(k2, k_max) * (1.0 + guidance.LOOKAHEAD_SPEED_CAP) * v / (2.0 * MIN_RADIUS)
    if not math.isfinite(w_max * 2.0 * v * v / d_min):
        tuned = f" (tuned up to optimizer.k_max {k_max!r})" if k_max > min(k1, k2) else ""
        problems.append(f"guidance.k1/k2: the blended command must be finite, got {k1!r} / {k2!r}{tuned} at speed {v!r}")
    return problems


@dataclass
class Midcourse:
    solution: mc.ContactSolution
    circle: mc.InitiationCircle


@dataclass
class CircleFollow:
    circle: mc.InitiationCircle
    span: float | None = None  # ticks within _SPAN_REACH radii of the centre search [0, span]; None: the whole path


@dataclass
class CloseRange:
    s_min: float
    s_proj: float
    coast_left: int | None = None


@dataclass
class Done:
    pass


Phase = Midcourse | CircleFollow | CloseRange | Done


def classify_phase(state: VehicleState, path: ReferencePath, r0: float) -> str:
    """Mid-course when the vehicle is at least 2 r0 from the path start."""
    sx, sy = path.start.position
    d = math.hypot(state.x - sx, state.y - sy)
    return PHASE_MIDCOURSE if d >= 2.0 * r0 else PHASE_CLOSE


class Mission:
    """Owns one vehicle's run along one path; not shared across threads."""

    def __init__(self, path: ReferencePath, state: VehicleState, config: MissionConfig):
        if problems := mission_problems(config, state.speed):
            raise ValueError("; ".join(problems))
        self.path = path
        self.state = state
        self.config = config
        self.record = RunRecord(controller=config.controller)
        k1, k2, self._optimizer = config.flown
        self.gains = guidance.GuidanceGains(k1, k2, config.lookahead)
        self._next_opt_t = -math.inf

        self._start = path.start  # the pose the approach ends at, where close range starts
        if classify_phase(state, path, curvature_radius(self._start)) == PHASE_MIDCOURSE:
            candidates = mc.candidate_circles(path, config.radius)
            circle, solution = mc.select_circle(state.position, state.heading, candidates, state.speed)
            self.phase: Phase = Midcourse(solution, circle)
            self._contact = solution.w, circle.tangent_at(solution.w)  # where the arc meets the circle
        else:
            self.phase = self._close_range()

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return isinstance(self.phase, Done)

    def run(self) -> RunRecord:
        while not self.done:
            if self.state.t > self.config.max_time:
                self.record.timed_out = True
                break
            self.step()
        return self.record

    def step(self) -> tuple[float, Phase]:
        """Advance one integration step; returns the applied command and phase."""
        phase = self.phase
        if isinstance(phase, Done):
            return 0.0, phase

        if not isinstance(phase, CloseRange):  # close range ends only by coasting out
            self._check_transitions()
        cmd, cte, label = self._command_and_cte()
        state, cfg = self.state, self.config
        self.record.append(state.t, state.x, state.y, state.heading, cmd, cte, label, self.gains.k1, self.gains.k2)
        self.state = vehicle.step(state, cmd, cfg.dt, cfg.a_max)
        phase = self.phase
        if isinstance(phase, CloseRange) and phase.coast_left is not None:
            phase.coast_left -= 1
            if phase.coast_left <= 0:
                self.phase = phase = Done()
        return cmd, phase

    # ------------------------------------------------------------------

    def _check_transitions(self) -> None:
        if isinstance(self.phase, Midcourse) and self._arrived(*self._contact):
            circle = self.phase.circle
            self.phase = CircleFollow(circle, self.path.nearest_span(circle.center, _SPAN_REACH * circle.radius))
        if isinstance(self.phase, CircleFollow) and self._arrived(self._start.position, self._start.tangent):
            self.phase = self._close_range()

    def _close_range(self) -> CloseRange:
        """Close range from the current state, with its first projection."""
        return CloseRange(0.0, guidance.track_projection(self.state, self.path, 0.0, self.config.lookahead)[0].s)

    def _arrived(self, point: Vec2, tangent: Vec2) -> bool:
        """Within the position tolerance of ``point`` and the heading tolerance of ``tangent``."""
        cfg, state = self.config, self.state
        return (math.hypot(state.x - point[0], state.y - point[1]) <= cfg.arrive_pos_tol
                and abs(signed_angle(heading_vector(state.heading), tangent)) <= cfg.arrive_heading_tol)

    def _command_and_cte(self) -> tuple[float, float, str]:
        cfg = self.config
        if isinstance(self.phase, Midcourse):
            sx, sy = self._start.position
            cte = math.hypot(self.state.x - sx, self.state.y - sy)
            return mc.midcourse_command(self.state, self.phase.solution), cte, PHASE_MIDCOURSE

        if isinstance(self.phase, CircleFollow):
            x, y, circle = self.state.x, self.state.y, self.phase.circle
            cx, cy = circle.center
            span = self.phase.span if math.hypot(x - cx, y - cy) <= _SPAN_REACH * circle.radius else None
            _, cte = self.path.project_s((x, y), window=span)
            cmd = mc.circle_follow_command(self.state, circle, cfg.lookahead)
            return cmd, cte, PHASE_CIRCLE

        phase = self.phase
        assert isinstance(phase, CloseRange)

        if phase.coast_left is not None:
            phase.s_proj, cte = self.path.project_s(self.state.position, s_hint=phase.s_proj)
            return 0.0, cte, PHASE_CLOSE

        state, path, s_min = self.state, self.path, phase.s_min
        if self._optimizer is not None and state.t >= self._next_opt_t:
            res = opt.optimize_gains(state, path, s_min, self._optimizer, cfg.lookahead, cfg.dt,
                                     s_proj=phase.s_proj, a_max=cfg.a_max)
            self.gains = guidance.GuidanceGains(res.k1, res.k2, cfg.lookahead)
            self._next_opt_t = state.t + res.horizon

        gains = self.gains
        if gains.k2 == 0.0:
            # The corrector weight is 0, so the law is its look-ahead term alone.
            cmd, la = guidance.baseline_step(state, path, s_min, cfg.lookahead)
            phase.s_proj, cte = path.project_s(state.position, s_hint=phase.s_proj)
            la_s, end_of_path = la.point.s, la.end_of_path
        else:
            geom = guidance.corrector_geometry(state, path, s_min, cfg.lookahead, proj_hint=phase.s_proj)
            cmd = guidance.blended_command(state, geom, gains)
            cte, la_s, end_of_path = geom.proj_dist, geom.p2.s, geom.end_of_path
            phase.s_proj = geom.proj.s
        if la_s > s_min:  # max(s_min, la_s)
            phase.s_min = la_s
        if end_of_path or la_s >= path.total_length - cfg.end_s_tol:
            phase.coast_left = self._coast_steps()
            return 0.0, cte, PHASE_CLOSE
        return cmd, cte, PHASE_CLOSE

    def _coast_steps(self) -> int:
        # Coast straight for one look-ahead time so trailing error is recorded.
        return max(1, int(round(self.config.lookahead / self.state.speed / self.config.dt)))


def run_mission(path: ReferencePath, state: VehicleState, config: MissionConfig) -> RunRecord:
    """Convenience wrapper: build and run a mission to completion."""
    return Mission(path, state, config).run()
