"""Compatibility shim: the engine runs serially.

The morsel pool that used to live here was removed; every hot path runs
its serial code.  :func:`effective_workers` remains because the
repository benchmark's provenance record still reads it.
"""

from __future__ import annotations

__all__ = ["effective_workers"]


def effective_workers() -> int:
    """Always ``0``: there is no worker pool."""
    return 0
