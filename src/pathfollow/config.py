"""Scenario configuration: schema validation and object construction.

Scenarios are single JSON files (diffable, versionable).  The schema is
documented in the README and written down once here, in ``_SECTIONS`` and
``_PATHS``: every key with its default and its check.  :func:`default_scenario`
returns the stock benchmark setup (sinusoid path, 5 m/s vehicle starting at
(-15, 0), 10 m look-ahead, 11-heading sweep).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path as FsPath

import numpy as np

from . import path as pathmod
from .guidance import LOOKAHEAD_SPEED_CAP, MIN_TARGET_DIST
from .optimizer import MAX_GRID, MAX_ROLLOUT_STEPS, OptimizerSettings
from .supervisor import CONTROLLER_BASELINE, CONTROLLER_PROPOSED, MissionConfig
from .vehicle import VehicleState

CONTROLLER_BOTH = "both"

DEFAULT_SWEEP_HEADINGS = [-20.882 + 15.0 * k for k in range(11)]


class ConfigError(ValueError):
    """Invalid scenario configuration; carries one message per problem."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


# ----------------------------------------------------------------------
# Schema: each key maps to (default, check).  A check returns the parsed value or raises
# ValueError naming the problem; a required key defaults to None, which its check refuses.
# ----------------------------------------------------------------------


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check(ok, message: str, convert=None):
    """Check returning ``v`` (or ``convert(v)``) if ``ok(v)``, else raising ``message.format(v)``."""
    def check(v):  # ok(v) may raise with its own message
        if not ok(v):
            raise ValueError(message.format(v))
        return v if convert is None else convert(v)
    return check


def _optional(check):
    return lambda v: None if v is None else check(v)


def _number(v) -> float:
    if v is None:
        raise ValueError("missing value")
    if not _real(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _headings(v) -> list[float]:
    if not isinstance(v, list) or not v:
        raise ValueError("expected a non-empty list")
    if bad := [h for h in v if not _real(h)]:
        raise ValueError(f"non-numeric entries {bad!r}")
    return [float(h) for h in v]


_POSITIVE = _check(lambda v: _number(v) > 0, "must be positive, got {!r}", float)
# The arc law's largest command, 2 V^2 / MIN_TARGET_DIST, must be a finite float.
_SPEED = _check(
    lambda v: math.isfinite(2.0 * _POSITIVE(v) * _POSITIVE(v) / MIN_TARGET_DIST),
    f"must keep the arc command 2 speed^2 / {MIN_TARGET_DIST} finite, got {{!r}}",
    float,
)
_NONNEGATIVE = _check(lambda v: _number(v) >= 0, "must be non-negative", float)
_PAIR = _check(
    lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_real, v)),
    "expected [x, y] numbers, got {!r}",
    lambda v: (float(v[0]), float(v[1])),
)
_SENSES = (pathmod.SENSE_ANTICLOCKWISE, pathmod.SENSE_CLOCKWISE)
_CONTROLLERS = (CONTROLLER_BASELINE, CONTROLLER_PROPOSED, CONTROLLER_BOTH)

# The keys of ``path`` besides ``kind`` (default "sinusoid"); the polyline
# points are checked when the path is built.
_PATHS = {
    "sinusoid": {"x_start": (-15.0, _number), "x_end": (150.0, _number)},
    "circle": {
        "center": (None, _PAIR),
        "radius": (None, _POSITIVE),
        "sense": (pathmod.SENSE_ANTICLOCKWISE, _check(lambda v: v in _SENSES, "invalid {!r}")),
        "start_angle_deg": (0.0, _number),
        "turns": (2.0, _POSITIVE),
    },
    "line": {
        "start": (None, _PAIR),
        "direction": (None, _check(lambda v: _PAIR(v) != (0.0, 0.0), "must be a non-zero vector", _PAIR)),
        "length": (1000.0, _POSITIVE),
    },
    "polyline": {
        "points": (None, lambda v: v),
        "file": (None, _check(lambda v: v is None or isinstance(v, str), "expected a file name, got {!r}")),
    },
}

# Sections in README order; ``controller`` is a plain top-level value.
_SECTIONS = {
    "vehicle": {"speed": (5.0, _SPEED), "start": ([-15.0, 0.0], _PAIR), "heading_deg": (39.118, _number)},
    "guidance": {  # initiation_radius None: lookahead / 2
        "lookahead": (10.0, _POSITIVE), "initiation_radius": (None, _optional(_POSITIVE)),
        "k1": (1.0, _NONNEGATIVE), "k2": (0.0, _NONNEGATIVE),
    },
    "sim": {"dt": (0.01, _POSITIVE), "a_max": (None, _optional(_POSITIVE)), "max_time": (1800.0, _POSITIVE)},
    "controller": (CONTROLLER_BOTH, _check(lambda v: v in _CONTROLLERS, "expected baseline/proposed/both, got {!r}")),
    "optimizer": {
        "enabled": (True, _check(lambda v: isinstance(v, bool), "expected true/false, got {!r}")),
        "k_max": (10.0, _POSITIVE),
        "grid": (11, _check(lambda v: type(v) is int and 3 <= v <= MAX_GRID,
                            f"expected integer in [3, {MAX_GRID}], got {{!r}}")),
        "refine_rounds": (2, _check(lambda v: type(v) is int and v >= 0, "expected integer >= 0, got {!r}")),
        "d_limit": (None, _optional(_POSITIVE)),  # None: 2 * lookahead
    },
    "tolerances": {"arrive_pos": (0.25, _POSITIVE), "arrive_heading_deg": (2.0, _POSITIVE), "end_s": (0.1, _POSITIVE)},
    "sweep": {"headings_deg": (DEFAULT_SWEEP_HEADINGS, _headings)},
}


def default_scenario() -> dict:
    """Stock benchmark scenario matching the reference comparison setup."""
    out = {"path": {"kind": "sinusoid", **{k: row[0] for k, row in _PATHS["sinusoid"].items()}}}
    for name, rows in _SECTIONS.items():
        out[name] = rows[0] if isinstance(rows, tuple) else {k: row[0] for k, row in rows.items()}
    return copy.deepcopy(out)


@dataclass
class ScenarioConfig:
    """Validated scenario ready to build paths, states and mission configs.

    ``mission`` holds every per-mission setting; :meth:`mission_config` sets
    the controller each run flies (``controller`` here may be ``both``).
    ``path_spec`` is the checked ``path`` object with every key of its kind.
    """

    path_spec: dict
    speed: float
    start: tuple[float, float]
    heading_deg: float
    controller: str
    mission: MissionConfig
    sweep_headings_deg: list[float] = field(default_factory=lambda: list(DEFAULT_SWEEP_HEADINGS))
    base_dir: FsPath | None = None

    # ------------------------------------------------------------------

    def build_path(self) -> pathmod.ReferencePath:
        """Construct the path; an unreadable file or degenerate geometry is a ConfigError."""
        spec = self.path_spec
        kind = spec["kind"]
        try:
            if kind == "sinusoid":
                return pathmod.make_sinusoid_path(spec["x_start"], spec["x_end"])
            if kind == "circle":
                angle = math.radians(spec["start_angle_deg"])
                return pathmod.make_circle_path(spec["center"], spec["radius"], spec["sense"], angle, spec["turns"])
            if kind == "line":
                return pathmod.make_line_path(spec["start"], spec["direction"], spec["length"])
            pts = spec["points"]
            if pts is None:
                fname = FsPath(spec["file"])
                if not fname.is_absolute() and self.base_dir is not None:
                    fname = self.base_dir / fname
                pts = np.loadtxt(fname, delimiter=",", ndmin=2)
            return pathmod.make_polyline_path(pts)
        except (OSError, TypeError, ValueError) as exc:  # TypeError: e.g. a point that is an object
            raise ConfigError([f"path: {exc}"]) from exc

    def build_state(self, heading_deg: float | None = None) -> VehicleState:
        h = self.heading_deg if heading_deg is None else heading_deg
        return VehicleState(x=self.start[0], y=self.start[1], heading=math.radians(h), speed=self.speed)

    @property
    def optimizer(self) -> OptimizerSettings | None:
        return self.mission.optimizer

    def mission_config(self, controller: str) -> MissionConfig:
        return replace(self.mission, controller=controller)

    def controllers(self, override: str | None = None) -> list[str]:
        sel = override if override is not None else self.controller
        if sel == CONTROLLER_BOTH:
            return [CONTROLLER_BASELINE, CONTROLLER_PROPOSED]
        return [sel]


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------


def _walk(problems: list[str], name: str, section, rows: dict) -> dict:
    """Check one section against its rows; returns it with the defaults filled in."""
    if not isinstance(section, dict):
        problems.append(f"{name}: expected an object, got {section!r}")
        section = {}
    if unknown := sorted(set(section) - set(rows)):
        problems.append(f"unknown {name} keys: {unknown}")
    out = {}
    for key, (default, check) in rows.items():
        try:
            out[key] = check(section.get(key, default))
        except (ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
            problems.append(f"{name}.{key}: {exc}")
    return out


def parse_scenario(data: dict, base_dir: FsPath | None = None) -> ScenarioConfig:
    """Validate a scenario dict against the schema; raises ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected an object"])
    problems: list[str] = []
    if unknown := sorted(set(data) - {"path", *_SECTIONS}):
        problems.append(f"unknown top-level keys: {unknown}")
    spec, pspec = data.get("path", {}), {}
    kind = spec.get("kind", "sinusoid") if isinstance(spec, dict) else "sinusoid"
    if not isinstance(kind, str) or kind not in _PATHS:
        problems.append(f"path.kind: expected one of {sorted(_PATHS)}, got {kind!r}")
    else:  # the kind row only fills in the kind checked above
        pspec = _walk(problems, "path", spec, {"kind": (kind, str), **_PATHS[kind]})
    if kind == "sinusoid" and {"x_start", "x_end"} <= pspec.keys() and not pspec["x_start"] < pspec["x_end"]:
        problems.append("path: empty domain, x_start must be below x_end")
    if kind == "polyline" and pspec["points"] is None and pspec.get("file", "") is None:
        problems.append("path: polyline needs 'points' or 'file'")
    sec = {}
    for name, rows in _SECTIONS.items():
        if isinstance(rows, dict):
            sec[name] = _walk(problems, name, data.get(name, {}), rows)
            continue
        try:  # a plain top-level value
            sec[name] = rows[1](data.get(name, rows[0]))
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    # Bounds across sections on floats a run computes: the coast's step count lookahead / speed / dt
    # (Mission._coast_steps), a step's largest turn dt * 2 speed / MIN_TARGET_DIST, the blend's weighted sum,
    # at most (k1 MAX_RADIUS + k2 v_m / MIN_RADIUS) 2 speed^2 / MIN_TARGET_DIST with v_m <= (1 + cap) speed / 2,
    # and the square of the farthest flight speed * max_time, which the projections' squared distances meet.
    # Past a finite coast, the tuner's rollout runs min(d_limit, MAX_RADIUS) / speed / dt steps at most.
    gd, v, dt, mt = sec["guidance"], sec["vehicle"].get("speed"), sec["sim"].get("dt"), sec["sim"].get("max_time")
    opt = sec["optimizer"]
    if None not in (gd.get("lookahead"), v, dt):
        if not math.isfinite(gd["lookahead"] / v / dt):
            problems.append(f"guidance.lookahead: lookahead / speed / dt must be finite, got {gd['lookahead']!r} / {v!r} / {dt!r}")
        elif opt.get("enabled") and "d_limit" in opt:
            d_limit = 2.0 * gd["lookahead"] if opt["d_limit"] is None else opt["d_limit"]
            if (n := min(d_limit, pathmod.MAX_RADIUS) / v / dt) > MAX_ROLLOUT_STEPS:
                problems.append(f"optimizer.d_limit: a rollout's min(d_limit, {pathmod.MAX_RADIUS:g}) / speed / dt steps must be"
                                f" at most {MAX_ROLLOUT_STEPS}, got {n:.6g} at d_limit {d_limit!r}, speed {v!r}, dt {dt!r}")
    if None not in (v, dt) and not math.isfinite(dt * 2.0 * v / MIN_TARGET_DIST):
        problems.append(f"sim.dt: the turn per step dt * 2 speed / {MIN_TARGET_DIST} must be finite, got {dt!r} at speed {v!r}")
    if None not in (v, mt) and not math.isfinite((v * mt) * (v * mt)):  # a product: Python's ** raises
        problems.append(f"sim.max_time: the farthest flight speed * max_time must square to a finite float, got {mt!r} at speed {v!r}")
    if None not in (gd.get("k1"), gd.get("k2"), v):
        w_max = gd["k1"] * pathmod.MAX_RADIUS + gd["k2"] * (1.0 + LOOKAHEAD_SPEED_CAP) * v / (2.0 * pathmod.MIN_RADIUS)
        if not math.isfinite(w_max * 2.0 * v * v / MIN_TARGET_DIST):
            problems.append(f"guidance.k1/k2: the blended command must be finite, got {gd['k1']!r} / {gd['k2']!r} at speed {v!r}")
    if problems:
        raise ConfigError(problems)

    veh, gd, sim, opt, tol = (sec[k] for k in ("vehicle", "guidance", "sim", "optimizer", "tolerances"))
    d_limit = 2.0 * gd["lookahead"] if opt["d_limit"] is None else opt["d_limit"]
    tuner = OptimizerSettings(opt["k_max"], opt["grid"], opt["refine_rounds"], d_limit) if opt["enabled"] else None
    mission = MissionConfig(
        lookahead=gd["lookahead"], initiation_radius=gd["initiation_radius"], dt=sim["dt"], k1=gd["k1"], k2=gd["k2"],
        optimizer=tuner, arrive_pos_tol=tol["arrive_pos"], arrive_heading_tol=math.radians(tol["arrive_heading_deg"]),
        end_s_tol=tol["end_s"], a_max=sim["a_max"], max_time=sim["max_time"],
    )
    return ScenarioConfig(
        path_spec=pspec, speed=veh["speed"], start=veh["start"], heading_deg=veh["heading_deg"], base_dir=base_dir,
        controller=sec["controller"], mission=mission, sweep_headings_deg=sec["sweep"]["headings_deg"],
    )


def load_scenario(path: str | FsPath | None) -> ScenarioConfig:
    """Load a scenario JSON file; None loads the stock defaults."""
    if path is None:
        return parse_scenario(default_scenario())
    fp = FsPath(path)
    try:
        data = json.loads(fp.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {fp}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config {fp}: {exc}"])
    return parse_scenario(data, base_dir=fp.parent)
