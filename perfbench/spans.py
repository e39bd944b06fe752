"""Per-layer tracing: spans around the library's public functions.

The traced run swaps the module and class attributes that the library's call
sites look up (``pathfollow.guidance.corrector_geometry``,
``ReferencePath.project``, ``pathfollow.optimizer.optimize_gains``, ...) for
wrappers that record one span per call, and restores them afterwards.  Spans
are kept in memory as flat arrays and written out when the run ends.  A
layer's self time is its span's duration minus the durations of its direct
child spans.  Counts such as fallbacks are read from the returned objects.

``pathfollow.geom`` has no span: callers bind its functions by name and a
wrapper would cost as much as the call, so geom time counts in the callers'
self time.  ``pathfollow.cli`` is not driven by the workloads.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pathfollow import config, guidance, metrics, midcourse, optimizer, path, supervisor, vehicle

# Close-range law calls sampled as probe states: every CLOSE_STRIDE-th call,
# at most CLOSE_SAMPLES of them; each is replayed CLOSE_REPEATS times.
CLOSE_STRIDE = 250
CLOSE_SAMPLES = 16
CLOSE_REPEATS = 20

# Gain updates replayed by the optimizer probe ("the first three update states").
UPDATE_SAMPLES = 3

PHASES = ("midcourse", "circle", "close")


class Tracer:
    """In-memory span recorder; one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span named ``name`` per call; ``observe(tracer,
        span_index, args, kwargs, result)`` runs after each call returns."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if observe is not None:
                observe(self, i, args, kwargs, result)
            return result

        return traced

    def write(self, file) -> None:
        np.savez(
            file,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children.

    Spans come from one thread with stack discipline, so children never
    overlap and their sum is the part of the parent interval they cover.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    covered = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(covered, parent[has], dur[has])
    return dur - covered


def span_starts(tr: Tracer, name: str) -> np.ndarray:
    """Start times of the spans named ``name``."""
    return np.frombuffer(tr.start)[np.frombuffer(tr.name, dtype=np.int32) == tr.name_id(name)]


@dataclasses.dataclass
class Stats:
    calls: int
    total_s: float
    self_s: float
    durations: np.ndarray


_NO_CALLS = Stats(0, 0.0, 0.0, np.empty(0))


def layer_stats(tr: Tracer) -> dict[str, Stats]:
    ids = np.frombuffer(tr.name, dtype=np.int32)
    start = np.frombuffer(tr.start)
    dur = np.frombuffer(tr.end) - start
    own = self_times(np.frombuffer(tr.parent, dtype=np.int32), start, np.frombuffer(tr.end))
    out = {}
    for nid, name in enumerate(tr.names):
        m = ids == nid
        out[name] = Stats(int(m.sum()), float(dur[m].sum()), float(own[m].sum()), dur[m])
    return out


# ----------------------------------------------------------------------
# Patch targets and the counts read from their results
# ----------------------------------------------------------------------


def _obs_project(tr, i, args, kwargs, result):
    if kwargs.get("s_hint", args[2] if len(args) > 2 else None) is None:
        tr.counts["path.project.unhinted_calls"] += 1


def _obs_lookahead(tr, i, args, kwargs, la):
    tr.counts["path.lookahead_point.fallbacks"] += la.fallback
    tr.counts["path.lookahead_point.end_of_path"] += la.end_of_path


def _obs_close_law(tr, i, args, kwargs, result):
    if isinstance(result, guidance.CorrectorGeometry):
        tr.counts["guidance.corrector_geometry.fallbacks"] += result.fallback
    n = tr.counts["close_law_calls"]
    tr.counts["close_law_calls"] += 1
    if n % CLOSE_STRIDE == 0 and len(tr.captured["close"]) < CLOSE_SAMPLES:
        state, p, s_min, lookahead = args[:4]
        tr.captured["close"].append((state, p, s_min, lookahead, kwargs.get("proj_hint")))


def candidate_count(settings: optimizer.OptimizerSettings) -> int:
    """Candidates one optimize_gains call rolls out (computed from its settings)."""
    g = settings.grid
    on_grid = 1.0 in np.linspace(0.0, settings.k_max, g)
    return g * g + (0 if on_grid else 1) + settings.refine_rounds * g * g


def _obs_optimize(tr, i, args, kwargs, res):
    settings, dt = args[3], args[5]
    steps = max(1, int(round(res.horizon / dt)))
    tr.counts["optimizer.candidate_steps"] += candidate_count(settings) * steps
    tr.counts["optimizer.fallbacks"] += res.fallback
    tr.counts["optimizer.baseline_pair_wins"] += (res.k1, res.k2) == (1.0, 0.0)
    if len(tr.captured["update"]) < UPDATE_SAMPLES:
        tr.captured["update"].append((args, kwargs))


def _obs_tick(tr, i, args, kwargs, result):
    tr.name[i] = tr.name_id("supervisor.step." + args[0].record.phase[-1])


def _targets():
    return (
        (path.ReferencePath, "project", "path.project", _obs_project),
        (path.ReferencePath, "lookahead_point", "path.lookahead_point", _obs_lookahead),
        (path, "make_sinusoid_path", "path.build", None),
        (path, "make_polyline_path", "path.build", None),
        (guidance, "baseline_step", "guidance.baseline_step", _obs_close_law),
        (guidance, "corrector_geometry", "guidance.corrector_geometry", _obs_close_law),
        (guidance, "blended_command", "guidance.blended_command", None),
        (vehicle, "step", "vehicle.step", None),
        (midcourse, "select_circle", "midcourse.select_circle", None),
        (midcourse, "midcourse_command", "midcourse.midcourse_command", None),
        (midcourse, "circle_follow_command", "midcourse.circle_follow_command", None),
        (optimizer, "optimize_gains", "optimizer.optimize_gains", _obs_optimize),
        (supervisor.Mission, "step", "supervisor.step", _obs_tick),
        (metrics, "summarize", "metrics.summarize", None),
        (config, "parse_scenario", "config.parse_scenario", None),
    )


@contextmanager
def patched(tracer: Tracer, only: set[str] | None = None):
    """Swap the traced attributes for span-recording wrappers; restore on exit."""
    saved = []
    try:
        for owner, attr, name, observe in _targets():
            if only is not None and name not in only:
                continue
            fn = getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(name, fn, observe))
            saved.append((owner, attr, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ----------------------------------------------------------------------
# Probes: layers a workload's missions never call, replayed on its states
# ----------------------------------------------------------------------


def _far_state(p: path.ReferencePath, speed: float, lookahead: float) -> vehicle.VehicleState:
    """A start well past the mid-course threshold, behind and beside the path
    start, heading at it."""
    st = p.start
    d = 2.0 * path.curvature_radius(st) + 10.0 * lookahead
    tx, ty = st.tangent
    sx, sy = st.position
    x, y = sx - d * tx - 0.25 * d * ty, sy - d * ty + 0.25 * d * tx
    return vehicle.VehicleState(x, y, math.atan2(sy - y, sx - x), speed)


def run_probes(mission_tracer: Tracer, first: supervisor.Mission, settings: optimizer.OptimizerSettings) -> Tracer:
    """Time every layer on this workload's geometry, whether or not its
    missions call it.

    * approach: a baseline mission from a far start on the first mission's
      path, stepped until close range (circle selection, mid-course and
      circle-follow ticks);
    * close-range laws (baseline, corrector geometry, blend at gains (1, 0))
      at close-range states sampled from the traced missions;
    * ``optimize_gains`` and a K = 1 ``rollout_cost`` over the adaptive
      horizon at the first gain-update states, or at the first sampled
      close-range states where the missions make no gain updates.
    """
    p, cfg = first.path, first.config
    close = []
    for state, cp, s_min, lookahead, hint in mission_tracer.captured["close"]:
        if hint is None:
            hint = guidance.track_projection(state, cp, s_min, lookahead)[0].s
        close.append((state, cp, s_min, lookahead, hint))
    updates = mission_tracer.captured["update"] or [
        ((state, cp, s_min, settings, lookahead, cfg.dt), {"s_proj": hint})
        for state, cp, s_min, lookahead, hint in close[:UPDATE_SAMPLES]
    ]
    horizons = [
        optimizer.adaptive_interval(a[0], a[1], a[3].d_limit, s_hint=kw.get("s_proj")) for a, kw in updates
    ]

    probe = Tracer()
    rollout = probe.wrap("optimizer.rollout_cost", optimizer.rollout_cost)
    with patched(probe):
        approach = supervisor.Mission(
            p,
            _far_state(p, first.state.speed, cfg.lookahead),
            dataclasses.replace(cfg, controller=supervisor.CONTROLLER_BASELINE, optimizer=None),
        )
        while not isinstance(approach.phase, supervisor.CloseRange) and approach.state.t <= cfg.max_time:
            approach.step()

        for state, cp, s_min, lookahead, hint in close:
            gains = guidance.GuidanceGains(1.0, 0.0, lookahead)
            for _ in range(CLOSE_REPEATS):
                guidance.baseline_step(state, cp, s_min, lookahead)
                geom = guidance.corrector_geometry(state, cp, s_min, lookahead, proj_hint=hint)
                guidance.blended_command(state, geom, gains)

        for (args, kwargs), horizon in zip(updates, horizons):
            optimizer.optimize_gains(*args, **kwargs)
            state, up, s_min, _, lookahead, dt = args
            gains = guidance.GuidanceGains(1.0, 0.0, lookahead)
            rollout(state, up, s_min, gains, horizon, dt, s_proj=kwargs.get("s_proj"))
            probe.counts["optimizer.rollout_steps_k1"] += max(1, int(round(horizon / dt)))
    return probe


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

# Layers every workload's missions call: their totals come from the missions.
_ALWAYS_CALLED = ("path.project", "path.lookahead_point", "vehicle.step")
# Layers some workloads never call: per-call time falls back to the probe.
_SOMETIMES_CALLED = (
    "guidance.baseline_step",
    "guidance.corrector_geometry",
    "guidance.blended_command",
    "midcourse.select_circle",
    "midcourse.midcourse_command",
    "midcourse.circle_follow_command",
)


def coverage_problems(tuned: bool, mission_tracer: Tracer) -> list[str]:
    """The traced run fails when a workload stops exercising its layers."""
    ms = layer_stats(mission_tracer)
    calls = ms.get("optimizer.optimize_gains", _NO_CALLS).calls
    if tuned:
        return [] if calls else ["no optimize_gains calls on a tuned workload"]
    problems = [f"{calls} optimize_gains calls on a baseline workload"] if calls else []
    for phase in ("midcourse", "circle"):
        if not ms.get(f"supervisor.step.{phase}", _NO_CALLS).calls:
            problems.append(f"no {phase} ticks on a baseline workload")
    return problems


def layer_metrics(mission_tracer: Tracer, probe: Tracer, overhead_frac: float):
    """Per-layer metrics as {name: (value, unit)}, plus the names of the
    per-call times taken from the probe because the missions made no call."""
    ms, ps = layer_stats(mission_tracer), layer_stats(probe)
    mc, pc = mission_tracer.counts, probe.counts
    out: dict[str, tuple[float, str]] = {}
    from_probe: set[str] = set()

    def source(name, *metric_names):
        s = ms.get(name, _NO_CALLS)
        if s.calls:
            return s, mc
        from_probe.update(metric_names)
        return ps[name], pc

    build = ms["path.build"]
    out["path.build_s"] = (build.self_s / build.calls, "s")
    for name in _ALWAYS_CALLED:
        s = ms[name]
        out[f"{name}.calls"] = (s.calls, "count")
        out[f"{name}.self_s"] = (s.self_s, "s")
        out[f"{name}.self_us"] = (s.self_s / s.calls * 1e6, "us")
    out["path.project.unhinted_calls"] = (mc["path.project.unhinted_calls"], "count")
    out["path.lookahead_point.fallbacks"] = (mc["path.lookahead_point.fallbacks"], "count")
    out["path.lookahead_point.end_of_path"] = (mc["path.lookahead_point.end_of_path"], "count")

    for name in _SOMETIMES_CALLED:
        out[f"{name}.calls"] = (ms.get(name, _NO_CALLS).calls, "count")
        s, _ = source(name, f"{name}.self_us")
        out[f"{name}.self_us"] = (s.self_s / s.calls * 1e6, "us")
    out["guidance.corrector_geometry.fallbacks"] = (mc["guidance.corrector_geometry.fallbacks"], "count")

    og = "optimizer.optimize_gains"
    out[f"{og}.calls"] = (ms.get(og, _NO_CALLS).calls, "count")
    s, counts = source(og, f"{og}.self_ms", f"{og}.p50_ms", f"{og}.max_ms", "optimizer.candidate_step_ns")
    out[f"{og}.self_ms"] = (s.self_s / s.calls * 1e3, "ms")
    out[f"{og}.p50_ms"] = (float(np.median(s.durations)) * 1e3, "ms")
    out[f"{og}.max_ms"] = (float(s.durations.max()) * 1e3, "ms")
    out["optimizer.candidate_steps"] = (mc["optimizer.candidate_steps"], "count")
    out["optimizer.candidate_step_ns"] = (s.self_s / counts["optimizer.candidate_steps"] * 1e9, "ns")
    out["optimizer.fallbacks"] = (mc["optimizer.fallbacks"], "count")
    out["optimizer.baseline_pair_wins"] = (mc["optimizer.baseline_pair_wins"], "count")
    rollout = ps["optimizer.rollout_cost"]
    from_probe.add("optimizer.rollout_step_us_k1")
    out["optimizer.rollout_step_us_k1"] = (rollout.self_s / pc["optimizer.rollout_steps_k1"] * 1e6, "us")

    for phase in PHASES:
        out[f"supervisor.steps.{phase}"] = (ms.get(f"supervisor.step.{phase}", _NO_CALLS).calls, "count")
    for phase in PHASES:
        s, _ = source(f"supervisor.step.{phase}", f"supervisor.tick_us.{phase}")
        out[f"supervisor.tick_us.{phase}"] = (s.total_s / s.calls * 1e6, "us")
    out["supervisor.self_s"] = (sum(ms.get(f"supervisor.step.{ph}", _NO_CALLS).self_s for ph in PHASES), "s")
    out["metrics.summarize.self_s"] = (ms["metrics.summarize"].self_s, "s")
    out["config.parse_scenario.self_s"] = (ms["config.parse_scenario"].self_s, "s")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out, from_probe
