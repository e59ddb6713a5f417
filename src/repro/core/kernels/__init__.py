"""Kernel tier selection for the batched FrogWild superstep.

Two tiers sit behind the ``kernel=`` seam of
:class:`~repro.core.BatchedFrogWildRunner` and every serving backend:

* ``"fused"``    — the numpy lane-major fused kernel (default, and the
  pinned reference the compiled tier is regression-tested against);
* ``"compiled"`` — Numba-jitted single-pass loops with cache-conscious
  layout (:mod:`.compiled`, :mod:`.layout`, :mod:`.arena`), installed
  via the ``[accel]`` extra.

Selection degrades gracefully: requesting ``"compiled"`` on a host
without Numba falls back to ``"fused"`` with a single
:class:`RuntimeWarning` (never an ImportError), and
:func:`available_kernels` reports what is actually runnable.  Setting
``REPRO_COMPILED_FORCE=python`` forces the compiled tier to run its
pure-Python pass implementations — far too slow for production but
exactly what the parity tests use to pin the compiled passes bitwise to
the fused kernel on Numba-less hosts.
"""

from __future__ import annotations

import os
import warnings

from ...errors import ConfigError
from .arena import BufferArena
from .compiled import HAVE_NUMBA, CompiledPasses
from .layout import (
    CompiledTables,
    lane_key_dtype,
    pack_lane_keys,
    plan_tiles,
    unpack_lane_keys,
)

__all__ = [
    "KERNEL_TIERS",
    "HAVE_NUMBA",
    "BufferArena",
    "CompiledPasses",
    "CompiledTables",
    "available_kernels",
    "compiled_available",
    "lane_key_dtype",
    "pack_lane_keys",
    "plan_tiles",
    "reset_fallback_warning",
    "resolve_kernel",
    "unpack_lane_keys",
]

KERNEL_TIERS = ("fused", "compiled")

_warned_fallback = False


def compiled_available() -> bool:
    """Whether ``kernel="compiled"`` can actually run on this host."""
    from . import compiled  # live attribute so tests can mask the import

    if compiled.HAVE_NUMBA:
        return True
    return os.environ.get("REPRO_COMPILED_FORCE", "") == "python"


def available_kernels() -> tuple[str, ...]:
    """The kernel tiers runnable on this host, in escalation order."""
    if compiled_available():
        return KERNEL_TIERS
    return tuple(k for k in KERNEL_TIERS if k != "compiled")


def resolve_kernel(kernel: str) -> str:
    """Validate a requested tier and apply the graceful fallback.

    Unknown names raise :class:`~repro.errors.ConfigError`;
    ``"compiled"`` without a way to run it degrades to ``"fused"`` with
    one warning per process (the two tiers are bitwise identical, so
    only speed is lost).
    """
    if kernel not in KERNEL_TIERS:
        raise ConfigError(
            f"kernel must be one of {KERNEL_TIERS}, got {kernel!r}"
        )
    if kernel == "compiled" and not compiled_available():
        global _warned_fallback
        if not _warned_fallback:
            _warned_fallback = True
            warnings.warn(
                "kernel='compiled' requested but numba is not importable; "
                "falling back to the numpy fused kernel (results are "
                "identical). Install the accelerator extra: "
                "pip install 'frogwild-repro[accel]'",
                RuntimeWarning,
                stacklevel=3,
            )
        return "fused"
    return kernel


def reset_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning (tests only)."""
    global _warned_fallback
    _warned_fallback = False
