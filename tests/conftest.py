"""Session setup shared by the test modules."""

from pathlib import Path

import numpy as np

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pathfollow"


def pytest_report_header(config):
    """numpy's version and the float64 dispatch target of arctan2 and power: the digest tests hold their bits only
    under X86_V4 (ROADMAP item 14), so the header says which one a run took, and that they will fail under any other.
    A second line gives the library's size, the line counts of src/pathfollow/*.py and of its C file (as ``wc -l``
    counts them), and a third the kernel that flies the gain tuner's rollouts, with the reason when it is numpy's."""
    from pathfollow.optimizer import rollout_kernel

    lines = [sum(p.read_bytes().count(b"\n") for p in SOURCE.glob(g)) for g in ("*.py", "*.c")]
    size = f"src/pathfollow/*.py: {lines[0]} lines, *.c: {lines[1]} lines"
    kernel = f"rollout kernel: {rollout_kernel()}"
    try:
        from numpy.lib.introspect import opt_func_info  # numpy 2.0 on
    except ImportError:
        return [f"numpy {np.__version__}: dispatch not reported before numpy 2", size, kernel]
    info = opt_func_info(func_name="arctan2|power", signature="float64")
    current = [(name, loop["current"]) for name, loops in info.items() for loop in loops.values()]
    header = f"numpy {np.__version__}: float64 " + ", ".join(f"{name} {target}" for name, target in current)
    if any(target != "X86_V4" for _, target in current):
        header += "; the 14 digest tests were recorded under X86_V4 and will fail on this run"
    return [header, size, kernel]
