"""Host speed gauge: a fixed kernel timed alongside the workload.

The shared host the bounds were set on changes speed by up to 2x for minutes
at a time, with the program unchanged: other tenants share its cores.  The
end-to-end times are therefore reported in reference seconds, the measured
time scaled by HOST_REF_S / (the median time of this kernel in the same
process, over the same minute).  The kernel uses numpy and Python only,
never the library, so a change to the library cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median seconds of one kernel() call on the machine in meta.json; any
# constant works, it only fixes the unit.
HOST_REF_S = 0.01

_RNG = np.random.default_rng(0)
_A = _RNG.random((363, 32))
_B = _RNG.random(363)


def kernel() -> float:
    """Seconds for a fixed batch of small-array numpy operations, the kind
    the batched rollout is made of."""
    t0 = perf_counter()
    for _ in range(24):
        c = np.hypot(_A - _B[:, None], _A * 0.5)
        d = np.where(c > 0.5, c, -c)
        np.sqrt(np.abs(d)).sum(axis=1)
    return perf_counter() - t0


def factor(samples: list[float]) -> float:
    """How much slower than the reference the host ran: median kernel time
    over HOST_REF_S."""
    return statistics.median(samples) / HOST_REF_S
