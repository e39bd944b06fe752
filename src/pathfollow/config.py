"""Scenario configuration: schema validation and object construction.

Scenarios are single JSON files (diffable, versionable).  The schema is
documented in the README; :func:`default_scenario` returns the stock
benchmark setup (sinusoid path, 5 m/s vehicle starting at (-15, 0), 10 m
look-ahead, 11-heading sweep).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from . import path as pathmod
from .optimizer import OptimizerSettings
from .supervisor import CONTROLLER_BASELINE, CONTROLLER_PROPOSED, MissionConfig
from .vehicle import VehicleState

CONTROLLER_BOTH = "both"

DEFAULT_SWEEP_HEADINGS = [-20.882 + 15.0 * k for k in range(11)]


class ConfigError(ValueError):
    """Invalid scenario configuration; carries one message per problem."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def default_scenario() -> dict:
    """Stock benchmark scenario matching the reference comparison setup."""
    return {
        "path": {"kind": "sinusoid", "x_start": -15.0, "x_end": 150.0},
        "vehicle": {"speed": 5.0, "start": [-15.0, 0.0], "heading_deg": 39.118},
        "guidance": {"lookahead": 10.0, "initiation_radius": None, "k1": 1.0, "k2": 0.0},
        "sim": {"dt": 0.01, "a_max": None, "max_time": 1800.0},
        "controller": CONTROLLER_BOTH,
        "optimizer": {
            "enabled": True,
            "k_max": 10.0,
            "grid": 11,
            "refine_rounds": 2,
            "d_limit": None,
        },
        "tolerances": {"arrive_pos": 0.25, "arrive_heading_deg": 2.0, "end_s": 0.1},
        "sweep": {"headings_deg": list(DEFAULT_SWEEP_HEADINGS)},
    }


@dataclass
class ScenarioConfig:
    """Validated scenario ready to build paths, states and mission configs."""

    path_spec: dict
    speed: float
    start: tuple[float, float]
    heading_deg: float
    lookahead: float
    initiation_radius: float | None
    k1: float
    k2: float
    dt: float
    a_max: float | None
    max_time: float
    controller: str
    optimizer_enabled: bool
    optimizer: OptimizerSettings
    arrive_pos: float
    arrive_heading_deg: float
    end_s: float
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
                return pathmod.make_circle_path(
                    tuple(spec["center"]),
                    spec["radius"],
                    spec.get("sense", pathmod.SENSE_ANTICLOCKWISE),
                    math.radians(spec.get("start_angle_deg", 0.0)),
                    spec.get("turns", 2.0),
                )
            if kind == "line":
                return pathmod.make_line_path(
                    tuple(spec["start"]), tuple(spec["direction"]), spec.get("length", 1000.0)
                )
            if kind == "polyline":
                if "points" in spec:
                    pts = spec["points"]
                else:
                    fname = FsPath(spec["file"])
                    if not fname.is_absolute() and self.base_dir is not None:
                        fname = self.base_dir / fname
                    pts = np.loadtxt(fname, delimiter=",", ndmin=2)
                return pathmod.make_polyline_path(pts)
        except (OSError, ValueError) as exc:
            raise ConfigError([f"path: {exc}"]) from exc
        raise ConfigError([f"unknown path kind {kind!r}"])

    def build_state(self, heading_deg: float | None = None) -> VehicleState:
        h = self.heading_deg if heading_deg is None else heading_deg
        return VehicleState(
            x=self.start[0], y=self.start[1], heading=math.radians(h), speed=self.speed
        )

    def mission_config(self, controller: str) -> MissionConfig:
        return MissionConfig(
            lookahead=self.lookahead,
            initiation_radius=self.initiation_radius,
            dt=self.dt,
            controller=controller,
            k1=self.k1,
            k2=self.k2,
            optimizer=self.optimizer if (self.optimizer_enabled and controller == CONTROLLER_PROPOSED) else None,
            arrive_pos_tol=self.arrive_pos,
            arrive_heading_tol=math.radians(self.arrive_heading_deg),
            end_s_tol=self.end_s,
            a_max=self.a_max,
            max_time=self.max_time,
        )

    def controllers(self, override: str | None = None) -> list[str]:
        sel = override if override is not None else self.controller
        if sel == CONTROLLER_BOTH:
            return [CONTROLLER_BASELINE, CONTROLLER_PROPOSED]
        return [sel]


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------

_TOP_KEYS = {"path", "vehicle", "guidance", "sim", "controller", "optimizer", "tolerances", "sweep"}
_PATH_KINDS = {"sinusoid", "circle", "line", "polyline"}


def _num(problems, section, key, value, positive=False, allow_none=False):
    if value is None:
        if allow_none:
            return None
        problems.append(f"{section}.{key}: missing value")
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        problems.append(f"{section}.{key}: expected a finite number, got {value!r}")
        return None
    if positive and not value > 0:
        problems.append(f"{section}.{key}: must be positive, got {value!r}")
        return None
    return float(value)


def _pair(problems, section, key, value):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in value)
    ):
        problems.append(f"{section}.{key}: expected [x, y] numbers, got {value!r}")
        return None
    return (float(value[0]), float(value[1]))


def parse_scenario(data: dict, base_dir: FsPath | None = None) -> ScenarioConfig:
    """Validate a scenario dict against the schema; raises ConfigError."""
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected an object"])
    defaults = default_scenario()
    unknown = set(data) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown top-level keys: {sorted(unknown)}")

    merged = {}
    for key in _TOP_KEYS:
        base = defaults[key]
        if isinstance(base, dict):
            merged[key] = {**base, **(data.get(key) or {})}
        else:
            merged[key] = data.get(key, base)

    pspec = merged["path"]
    kind = pspec.get("kind")
    if kind not in _PATH_KINDS:
        problems.append(f"path.kind: expected one of {sorted(_PATH_KINDS)}, got {kind!r}")
    elif kind == "sinusoid":
        lo = _num(problems, "path", "x_start", pspec.get("x_start"))
        hi = _num(problems, "path", "x_end", pspec.get("x_end"))
        if lo is not None and hi is not None and not lo < hi:
            problems.append("path: empty domain, x_start must be below x_end")
    elif kind == "circle":
        _pair(problems, "path", "center", pspec.get("center"))
        _num(problems, "path", "radius", pspec.get("radius"), positive=True)
        if pspec.get("sense", pathmod.SENSE_ANTICLOCKWISE) not in (
            pathmod.SENSE_ANTICLOCKWISE,
            pathmod.SENSE_CLOCKWISE,
        ):
            problems.append(f"path.sense: invalid {pspec.get('sense')!r}")
    elif kind == "line":
        _pair(problems, "path", "start", pspec.get("start"))
        if _pair(problems, "path", "direction", pspec.get("direction")) == (0.0, 0.0):
            problems.append("path.direction: must be a non-zero vector")
    elif kind == "polyline":
        if "points" not in pspec and "file" not in pspec:
            problems.append("path: polyline needs 'points' or 'file'")

    veh = merged["vehicle"]
    speed = _num(problems, "vehicle", "speed", veh.get("speed"), positive=True)
    start = _pair(problems, "vehicle", "start", veh.get("start"))
    heading = _num(problems, "vehicle", "heading_deg", veh.get("heading_deg"))

    gd = merged["guidance"]
    lookahead = _num(problems, "guidance", "lookahead", gd.get("lookahead"), positive=True)
    radius = _num(problems, "guidance", "initiation_radius", gd.get("initiation_radius"), positive=True, allow_none=True)
    k1 = _num(problems, "guidance", "k1", gd.get("k1"))
    k2 = _num(problems, "guidance", "k2", gd.get("k2"))
    if k1 is not None and k1 < 0:
        problems.append("guidance.k1: must be non-negative")
    if k2 is not None and k2 < 0:
        problems.append("guidance.k2: must be non-negative")

    sim = merged["sim"]
    dt = _num(problems, "sim", "dt", sim.get("dt"), positive=True)
    a_max = _num(problems, "sim", "a_max", sim.get("a_max"), positive=True, allow_none=True)
    max_time = _num(problems, "sim", "max_time", sim.get("max_time"), positive=True)

    controller = merged["controller"]
    if controller not in (CONTROLLER_BASELINE, CONTROLLER_PROPOSED, CONTROLLER_BOTH):
        problems.append(f"controller: expected baseline/proposed/both, got {controller!r}")

    ob = merged["optimizer"]
    enabled = ob.get("enabled", True)
    if not isinstance(enabled, bool):
        problems.append(f"optimizer.enabled: expected true/false, got {enabled!r}")
        enabled = True
    k_max = _num(problems, "optimizer", "k_max", ob.get("k_max"), positive=True)
    grid = ob.get("grid")
    if not isinstance(grid, int) or isinstance(grid, bool) or grid < 3:
        problems.append(f"optimizer.grid: expected integer >= 3, got {grid!r}")
        grid = 11
    rounds = ob.get("refine_rounds")
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 0:
        problems.append(f"optimizer.refine_rounds: expected integer >= 0, got {rounds!r}")
        rounds = 2
    d_limit = _num(problems, "optimizer", "d_limit", ob.get("d_limit"), positive=True, allow_none=True)

    tol = merged["tolerances"]
    arrive_pos = _num(problems, "tolerances", "arrive_pos", tol.get("arrive_pos"), positive=True)
    arrive_heading = _num(problems, "tolerances", "arrive_heading_deg", tol.get("arrive_heading_deg"), positive=True)
    end_s = _num(problems, "tolerances", "end_s", tol.get("end_s"), positive=True)

    sweep = merged["sweep"]
    headings = sweep.get("headings_deg")
    if not isinstance(headings, list) or not headings:
        problems.append("sweep.headings_deg: expected a non-empty list")
        headings = list(DEFAULT_SWEEP_HEADINGS)
    else:
        bad = [h for h in headings if not isinstance(h, (int, float)) or isinstance(h, bool) or not math.isfinite(h)]
        if bad:
            problems.append(f"sweep.headings_deg: non-numeric entries {bad!r}")

    if problems:
        raise ConfigError(problems)

    if d_limit is None:
        d_limit = 2.0 * lookahead

    return ScenarioConfig(
        path_spec=pspec,
        speed=speed,
        start=start,
        heading_deg=heading,
        lookahead=lookahead,
        initiation_radius=radius,
        k1=k1,
        k2=k2,
        dt=dt,
        a_max=a_max,
        max_time=max_time,
        controller=controller,
        optimizer_enabled=enabled,
        optimizer=OptimizerSettings(k_max=k_max, grid=grid, refine_rounds=rounds, d_limit=d_limit),
        arrive_pos=arrive_pos,
        arrive_heading_deg=arrive_heading,
        end_s=end_s,
        sweep_headings_deg=[float(h) for h in headings],
        base_dir=base_dir,
    )


def load_scenario(path: str | FsPath | None) -> ScenarioConfig:
    """Load a scenario JSON file; None loads the stock defaults."""
    if path is None:
        return parse_scenario(default_scenario())
    fp = FsPath(path)
    try:
        data = json.loads(fp.read_text())
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {fp}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    return parse_scenario(data, base_dir=fp.parent)
