"""Drives the library from outside: scenario -> path -> Mission -> checked outcome.

Only public entry points are used: ``config.parse_scenario``, the path
constructors behind ``ScenarioConfig.build_path``, ``supervisor.Mission``
and ``metrics.summarize``.  Call sites go through module attributes, so the
traced run can swap them (see spans.py).
"""

from __future__ import annotations

import json
import math
from array import array
from time import perf_counter

import numpy as np

from pathfollow import config, metrics, supervisor

# Relative tolerance for reference outcomes, the same as for sweep.csv.
REFERENCE_RTOL = 1e-12

_TELEMETRY_FIELDS = ("t", "x", "y", "psi", "a_cmd", "cte")


class PathCache:
    """Builds each path once; keeps only the latest, since streams either
    reuse one path or build a new one per mission."""

    def __init__(self):
        self._key = None
        self._path = None

    def get(self, sc: config.ScenarioConfig):
        key = json.dumps(sc.path_spec, sort_keys=True)
        if key != self._key:
            self._key, self._path = key, sc.build_path()
        return self._path


def build(scenario: dict, paths: PathCache) -> supervisor.Mission:
    sc = config.parse_scenario(scenario)
    return supervisor.Mission(paths.get(sc), sc.build_state(), sc.mission_config(sc.controller))


def fly(mission: supervisor.Mission, deadline: float | None = None) -> tuple[array, bool]:
    """Step ``mission`` until it is done, passes its max_time or the clock
    passes ``deadline``.  Returns the clock before the first step and after
    each step, and whether the deadline stopped it."""
    max_time = mission.config.max_time
    step = mission.step
    stamps = array("d", [perf_counter()])
    stamp = stamps.append
    while not mission.done and mission.state.t <= max_time:
        step()
        stamp(perf_counter())
        if deadline is not None and stamps[-1] > deadline:
            return stamps, not mission.done
    return stamps, False


def block_rates(stamps, update_starts) -> np.ndarray:
    """Steps per second of each block of a flown mission.

    A block runs from the step that makes one gain update to the step before
    the next, so it holds one update and the steps that update governs.  The
    steps after the last update are left out: the path end cuts them short
    of the update's horizon.  A mission without gain updates is one block.
    ``stamps`` is what :func:`fly` returns and ``update_starts`` the clock at
    the start of each update.
    """
    t = np.asarray(stamps, dtype=float)
    if len(update_starts) == 0:
        return np.array([(t.size - 1) / (t[-1] - t[0])])
    # An update starting inside step j (t[j-1] < u <= t[j]) opens a block at step j.
    bounds = np.searchsorted(t, np.asarray(update_starts, dtype=float)) - 1
    return np.diff(bounds) / np.diff(t[bounds])


def outcome(mission: supervisor.Mission) -> dict:
    """What a finished mission is checked on: size, close-range metrics, end pose."""
    s = metrics.summarize(mission.record)
    st = mission.state
    return {
        "steps": len(mission.record),
        "a_rms": s.a_rms,
        "d_rms": s.d_rms,
        "a_max": s.a_max,
        "timed_out": not mission.done,
        "final_pose": [st.x, st.y, st.heading],
    }


def invariant_problems(mission: supervisor.Mission) -> list[str]:
    """Checks that hold for every seed: finished in time, finite telemetry."""
    problems = []
    if not mission.done:
        problems.append(f"timed out at t={mission.state.t:.2f} s")
    rec = mission.record
    for name in _TELEMETRY_FIELDS:
        if not all(map(math.isfinite, getattr(rec, name))):
            problems.append(f"non-finite telemetry in {name}")
    return problems


def reference_problems(got: dict, ref: dict, rtol: float = REFERENCE_RTOL) -> list[str]:
    """Differences between an outcome and its stored reference."""
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if isinstance(want, list):
            pairs = list(zip(have or [], want))
            if len(pairs) != len(want):
                problems.append(f"{key}: {have!r} != {want!r}")
            elif any(not _close(h, w, rtol) for h, w in pairs):
                problems.append(f"{key}: {have!r} != {want!r}")
        elif isinstance(want, float):
            if not isinstance(have, float) or not _close(have, want, rtol):
                problems.append(f"{key}: {have!r} != {want!r}")
        elif have != want:
            problems.append(f"{key}: {have!r} != {want!r}")
    return problems


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def check(mission: supervisor.Mission, ref: dict | None) -> list[str]:
    """All problems with a finished mission; ``ref`` is None off the default seed."""
    problems = invariant_problems(mission)
    got = outcome(mission)
    if ref is not None:
        problems += reference_problems(got, ref)
    return problems
