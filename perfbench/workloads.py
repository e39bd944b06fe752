"""Seeded scenario streams for the benchmark workloads.

A workload is an endless stream of scenario dicts in the library's JSON
schema (the input of ``pathfollow.config.parse_scenario``); the seed fixes
the stream.  The library only ever sees these generated scenarios.

Nothing here imports the library, so a fresh process can time the library
import as part of set-up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

DEFAULT_SEED = 0

# Heading range of the stock 11-heading sweep (config.DEFAULT_SWEEP_HEADINGS).
STOCK_HEADING_RANGE_DEG = (-20.882, 129.118)

GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0

# Start point of the sinusoid over x in [0, 150]: y(0) = 10 sin(0) + 20 cos(0).
SINUSOID_START = (0.0, 20.0)


def _tuned_stock(rng: random.Random) -> Iterator[dict]:
    # A run finishes only two or three of these missions, and their cost
    # depends on the heading.  Headings follow a golden-ratio sequence from
    # a seeded start, so consecutive missions spread over the whole range
    # instead of clustering by chance.
    lo, hi = STOCK_HEADING_RANGE_DEG
    u = rng.random()
    while True:
        yield {"controller": "proposed", "vehicle": {"heading_deg": lo + (hi - lo) * u}}
        u = (u + GOLDEN_FRACTION) % 1.0


def _baseline_two_phase(rng: random.Random) -> Iterator[dict]:
    # The start curvature radius of this path is ~15 m, so the mid-course
    # threshold is ~30 m; starts 40-80 m out always begin in mid-course.
    sx, sy = SINUSOID_START
    while True:
        r = rng.uniform(40.0, 80.0)
        bearing = rng.uniform(-math.pi, math.pi)
        x, y = sx + r * math.cos(bearing), sy + r * math.sin(bearing)
        los = math.atan2(sy - y, sx - x)
        heading = los + math.radians(rng.uniform(-60.0, 60.0))
        yield {
            "path": {"kind": "sinusoid", "x_start": 0.0, "x_end": 150.0},
            "controller": "baseline",
            "vehicle": {"start": [x, y], "heading_deg": math.degrees(heading)},
        }


def _tuned_polyline(rng: random.Random) -> Iterator[dict]:
    while True:
        points = [[10.0 * i, rng.uniform(-6.0, 6.0)] for i in range(6)]
        first = math.atan2(points[1][1] - points[0][1], points[1][0] - points[0][0])
        heading = first + rng.choice((-0.3, 0.3))
        yield {
            "path": {"kind": "polyline", "points": points},
            "controller": "proposed",
            "vehicle": {"start": list(points[0]), "heading_deg": math.degrees(heading)},
        }


@dataclass(frozen=True)
class Workload:
    """A scenario stream plus the fixed mission counts the benchmark uses.

    ``round_size`` missions are built for set-up timing and replayed by the
    traced run; ``reference_count`` missions at the default seed have stored
    reference outcomes.
    """

    name: str
    stream: Callable[[random.Random], Iterator[dict]]
    tuned: bool
    round_size: int
    reference_count: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tuned_stock", _tuned_stock, tuned=True, round_size=1, reference_count=6),
        Workload("baseline_two_phase", _baseline_two_phase, tuned=False, round_size=12, reference_count=240),
        Workload("tuned_polyline", _tuned_polyline, tuned=True, round_size=4, reference_count=40),
    )
}


def scenarios(name: str, seed: int) -> Iterator[dict]:
    """The workload's scenario stream for ``seed``; equal seeds give equal streams."""
    return WORKLOADS[name].stream(random.Random(f"{name}:{seed}"))


def first_round(name: str, seed: int) -> list[dict]:
    return list(islice(scenarios(name, seed), WORKLOADS[name].round_size))
