"""Session setup shared by the test modules."""

import numpy as np


def pytest_report_header(config):
    """numpy's version and the float64 dispatch target of arctan2 and power: the digest tests hold their bits only
    under X86_V4 (ROADMAP item 14), so the header says which one a run took."""
    try:
        from numpy.lib.introspect import opt_func_info  # numpy 2.0 on
    except ImportError:
        return f"numpy {np.__version__}: dispatch not reported before numpy 2"
    info = opt_func_info(func_name="arctan2|power", signature="float64")
    targets = ", ".join(f"{name} {loop['current']}" for name, loops in info.items() for loop in loops.values())
    return f"numpy {np.__version__}: float64 {targets}"
