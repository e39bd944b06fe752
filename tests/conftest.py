"""Session setup shared by the test modules."""

from pathlib import Path

import numpy as np

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pathfollow"


def pytest_report_header(config):
    """numpy's version and the float64 dispatch target of arctan2 and power: the digest tests hold their bits only
    under X86_V4 (ROADMAP item 14), so the header says which one a run took, and that they will fail under any other.
    A second line gives the library's size, the line count of src/pathfollow/*.py (as ``wc -l`` counts it)."""
    lines = sum(p.read_bytes().count(b"\n") for p in SOURCE.glob("*.py"))
    size = f"src/pathfollow/*.py: {lines} lines"
    try:
        from numpy.lib.introspect import opt_func_info  # numpy 2.0 on
    except ImportError:
        return [f"numpy {np.__version__}: dispatch not reported before numpy 2", size]
    info = opt_func_info(func_name="arctan2|power", signature="float64")
    current = [(name, loop["current"]) for name, loops in info.items() for loop in loops.values()]
    header = f"numpy {np.__version__}: float64 " + ", ".join(f"{name} {target}" for name, target in current)
    if any(target != "X86_V4" for _, target in current):
        header += "; the 11 digest tests were recorded under X86_V4 and will fail on this run"
    return [header, size]
