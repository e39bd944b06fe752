"""Where the benchmark's tick projections leave the gain tuner's window.

A hinted projection with the default window searches 25 m past its hint, while
the tuner's ``project_many`` searches ``_window_width(spacing)`` samples from
the 1 m guard's (0.5 m past the hint at least).  These fly perfbench's first
``baseline_two_phase`` mission, the first 200 ticks of its first
``tuned_stock`` mission (a gain update among them) and ``tuned_polyline``
mission 1 (perfbench counts from 0), and list the ticks whose 25 m search found its
nearest sample outside the tuner's window or at the window's last sample
(unless that is the path's last).  Where none does, the tick and the tuner
answer from the same samples, so one window for both (ROADMAP item 17) would
leave that tick's bits alone.  The benchmark is imported read-only, as
``tests/test_traced_layers.py`` imports it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from pathfollow.path import ReferencePath, _window_width

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH)]

import missions  # noqa: E402
import workloads  # noqa: E402


def outside_the_window(monkeypatch):
    """Patch ReferencePath._nearest to append, per hinted projection with the default window, whether the 25 m
    window's nearest sample (the numpy scan's) lies outside project_many's window or at its last sample."""
    nearest = ReferencePath._nearest
    calls = []

    def spy(self, p, s_hint, window):
        if s_hint is not None and window is None:
            x, y, *_ = (np.asarray(r) for r in self.sample_table())
            n, ds, total = x.size, self.spacing, self.total_length
            ilo = int(min(max(float(s_hint) - 1.0, 0.0), total) / ds)
            far = min(int(min(float(s_hint) + 25.0, total) / ds) + 2, n)
            i0 = ilo + int(np.argmin((x[ilo:far] - float(p[0])) ** 2 + (y[ilo:far] - float(p[1])) ** 2))
            j_lo = min(ilo, n - 2)
            ihi = min(j_lo + _window_width(ds), n)
            calls.append(not j_lo <= i0 < (n if ihi == n else ihi - 1))
        return nearest(self, p, s_hint, window)

    monkeypatch.setattr(ReferencePath, "_nearest", spy)
    return calls


@pytest.mark.parametrize(
    "name, index, ticks, left",
    [("baseline_two_phase", 0, None, []), ("tuned_stock", 0, 200, []), ("tuned_polyline", 1, None, [920])],
)
def test_benchmark_tick_projections_leave_the_tuners_window_only_where_listed(name, index, ticks, left, monkeypatch):
    calls = outside_the_window(monkeypatch)
    mission = missions.build(workloads.first_round(name, workloads.DEFAULT_SEED)[index], missions.PathCache())
    while not mission.done and (ticks is None or len(mission.record) < ticks):
        mission.step()
    assert len(calls) >= (ticks or 1000)
    assert [i for i, out in enumerate(calls) if out] == left
