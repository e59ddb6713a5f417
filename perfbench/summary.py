"""Sample summaries and the host fingerprint recorded with every result."""

from __future__ import annotations

import importlib.util
import os
import platform
import re
import statistics
from typing import Sequence

#: Every metric name the benchmark emits must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def summarize(values: Sequence[float]) -> dict[str, float]:
    """n, median and quartiles of one metric's samples."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def tail(values: Sequence[float], beyond: int = 10) -> tuple[float, float, int]:
    """Value at the highest percentile with ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  With fewer than ``beyond + 1``
    samples no such percentile exists and the maximum is returned with
    percentile 100, so the caller can print the sample count beside it.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("cannot take the tail of an empty sample")
    if n <= beyond:
        return ordered[-1], 100.0, n
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def host_fingerprint(kernel: str) -> dict[str, object]:
    """Machine, interpreter and library facts a number depends on.

    ``kernel`` is the batch-kernel tier the benchmark requests; the tier
    actually in effect is resolved the way the program resolves it, and
    a compiled->fused fallback is flagged so that no fused-vs-fused
    comparison can pass as a compiled-kernel speed-up.
    """
    import numpy
    import scipy

    from repro.core.kernels import resolve_kernel

    effective = resolve_kernel(kernel)
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_requested": kernel,
        "kernel_effective": effective,
        "kernel_fallback": effective != kernel,
    }

