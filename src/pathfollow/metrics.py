"""Mission telemetry, RMS aggregates and baseline/proposed improvement measures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PHASE_MIDCOURSE = "midcourse"
PHASE_CIRCLE = "circle"
PHASE_CLOSE = "close"

CSV_HEADER = ("t", "x", "y", "psi", "a_cmd", "cte", "phase", "k1", "k2")


@dataclass
class RunRecord:
    """Per-step mission telemetry, one record per integration step."""

    t: list[float] = field(default_factory=list)
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)
    psi: list[float] = field(default_factory=list)
    a_cmd: list[float] = field(default_factory=list)
    cte: list[float] = field(default_factory=list)
    phase: list[str] = field(default_factory=list)
    k1: list[float] = field(default_factory=list)
    k2: list[float] = field(default_factory=list)
    controller: str = ""
    timed_out: bool = False

    def append(self, t, x, y, psi, a_cmd, cte, phase, k1, k2) -> None:
        self.t.append(t)
        self.x.append(x)
        self.y.append(y)
        self.psi.append(psi)
        self.a_cmd.append(a_cmd)
        self.cte.append(cte)
        self.phase.append(phase)
        self.k1.append(k1)
        self.k2.append(k2)

    def __len__(self) -> int:
        return len(self.t)

    def rows(self):
        return zip(self.t, self.x, self.y, self.psi, self.a_cmd, self.cte, self.phase, self.k1, self.k2)


@dataclass(frozen=True)
class RunSummary:
    a_rms: float
    d_rms: float
    a_max: float


def _rms(values: np.ndarray) -> float:
    """Root mean square; inf, without a warning, when the squares overflow."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(values * values)))


def summarize(run: RunRecord, close_only: bool = True) -> RunSummary:
    """RMS command, RMS cross-track error and peak command over a run.

    By default only close-range samples count, matching how the comparison
    tables are built; pass close_only=False for full-mission aggregates.
    """
    if len(run) == 0:
        raise ValueError("empty run")
    a = np.asarray(run.a_cmd)
    d = np.asarray(run.cte)
    if close_only:
        mask = np.asarray(run.phase) == PHASE_CLOSE
        if not mask.any():
            raise ValueError("run has no close-range samples")
        a = a[mask]
        d = d[mask]
    return RunSummary(a_rms=_rms(a), d_rms=_rms(d), a_max=float(np.max(np.abs(a))))


def improvement_pct(baseline: float, proposed: float) -> float:
    """Percent improvement of a proposed aggregate over the baseline one:
    (1 - proposed/baseline) * 100, or nan when the baseline is 0."""
    if baseline == 0.0:
        return math.nan
    return (1.0 - proposed / baseline) * 100.0


def improvements(baseline: RunRecord, proposed: RunRecord) -> tuple[float, float]:
    """Percent improvement of the proposed run over the baseline run in RMS
    cross-track error and RMS command (see :func:`improvement_pct`)."""
    sb = summarize(baseline)
    sp = summarize(proposed)
    return improvement_pct(sb.d_rms, sp.d_rms), improvement_pct(sb.a_rms, sp.a_rms)
