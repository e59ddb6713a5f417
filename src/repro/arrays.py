"""Array helpers shared across layers."""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(keys) -> np.ndarray:
    """``np.unique(keys)`` for integer keys, by sort plus a run mask.

    Without ``return_*`` flags numpy 2.x's ``np.unique`` takes a
    hash-based path that is tens of times slower than sorting on large
    int64 key arrays; the output (flattened, sorted, same dtype) is
    identical.
    """
    keys = np.sort(keys, axis=None)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]
