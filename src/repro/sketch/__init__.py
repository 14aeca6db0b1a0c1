"""Approximate profiling sketches (PR 9).

Two estimator families, both deterministic (seeded hashing / seeded
reservoirs — never ``hash()``):

* :mod:`repro.sketch.hll` — HyperLogLog distinct counts (splitmix64
  hashing, vectorized on the numpy backend), stated bound
  ``3 × 1.04/√m``;
* :mod:`repro.sketch.sample` — seeded reservoir samples feeding
  Miller–Madow entropy and U-statistic violating-pair estimates, each
  returning a :class:`~repro.sketch.sample.SampleEstimate` with its
  stated bound.

The process-wide **approx mode** is ``"exact"`` or ``"sketch"``, set
only through ``EngineConfig(approx=...)`` (``$REPRO_APPROX``), whose
activation writes the private module global ``_approx``.  The chunked profiling layer
(:mod:`repro.storage.profile`) and the optimizer's statistics read it to
pick between exact kernels and these sketches.
"""

from __future__ import annotations

from typing import Any, Iterable

from .hll import HyperLogLog, hash_value, splitmix64
from .sample import (
    Reservoir,
    SampleEstimate,
    entropy_estimate,
    violating_pairs_estimate,
)

__all__ = [
    "DEFAULT_PRECISION",
    "HyperLogLog",
    "Reservoir",
    "SampleEstimate",
    "entropy_estimate",
    "estimate_distinct",
    "hash_value",
    "splitmix64",
    "violating_pairs_estimate",
]

#: Default HLL precision: 2^14 registers → 16 KiB per sketch, stated
#: bound ≈ 2.4% relative.
DEFAULT_PRECISION = 14

#: The approx mode, ``"exact"`` or ``"sketch"``; ``EngineConfig.activate``
#: writes it.
_approx: str


def estimate_distinct(
    values: Iterable[Any], precision: int = DEFAULT_PRECISION
) -> float:
    """HLL distinct-count estimate over ``values`` (NULLs ignored).

    One-shot convenience for consumers that want a number rather than a
    mergeable sketch — the query optimizer's cost model feeds on this in
    ``approx="sketch"`` mode.
    """
    sketch = HyperLogLog(precision)
    for value in values:
        if value is not None:
            sketch.add(value)
    return sketch.count()
