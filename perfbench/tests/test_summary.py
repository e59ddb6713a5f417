"""Sample summaries and the host fingerprint."""

import statistics
import warnings

from summary import host_fingerprint, summarize, tail


def test_summarize_uses_statistics_quartiles():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == {"n": 5, "median": 3.0, "q1": q1, "q3": q3}


def test_tail_leaves_ten_samples_beyond():
    values = list(range(100))
    value, percentile, n = tail(values)
    assert value == 89 and n == 100
    assert sum(v > value for v in values) == 10
    assert percentile == 90.0


def test_tail_of_a_small_sample_is_its_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_fingerprint_flags_a_compiled_fallback():
    fused = host_fingerprint("fused")
    assert fused["kernel_effective"] == "fused"
    assert fused["kernel_fallback"] is False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the fallback notice
        compiled = host_fingerprint("compiled")
    assert compiled["kernel_fallback"] == (compiled["kernel_effective"] != "compiled")
    for key in ("cpu_count", "python", "numpy", "scipy", "numba"):
        assert key in fused
