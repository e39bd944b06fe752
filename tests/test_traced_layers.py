"""The benchmark's traced run needs calls on the layers it always reports.

``perfbench/run.py --trace 1`` divides each of ``spans._ALWAYS_CALLED``'s self
times by its call count, so a mission routed around ``path.project``,
``path.lookahead_point`` or ``vehicle.step`` would crash it.  This flies the
first mission of each benchmark workload under the benchmark's own spans; the
benchmark is imported read-only, as its own tests do.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH)]

import missions  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name, ticks", [("baseline_two_phase", None), ("tuned_stock", 5)])
def test_benchmark_missions_call_every_layer_the_trace_reports(name, ticks):
    # The baseline mission flies to its end: mid-course, circle-follow and close-range ticks.  The tuned one
    # starts at close range with a gain update and flies a few ticks at the gains it chose.
    tracer = spans.Tracer()
    with spans.patched(tracer):
        mission = missions.build(workloads.first_round(name, workloads.DEFAULT_SEED)[0], missions.PathCache())
        while not mission.done and (ticks is None or len(mission.record) < ticks):
            mission.step()
    stats = spans.layer_stats(tracer)
    assert all(stats[layer].calls for layer in spans._ALWAYS_CALLED), {k: stats[k].calls for k in spans._ALWAYS_CALLED}
    assert spans.coverage_problems(workloads.WORKLOADS[name].tuned, tracer) == []
