"""Configuration of the CB repair search.

The defaults follow the paper exactly; every knob corresponds to a
paragraph of Section 4:

* ``stop_at_first`` — §4.4: "the stop condition of the algorithm can be
  easily changed to end when the first repair is found"; with the queue
  order used, that first repair is also a *minimal* one.
* ``max_added_attributes`` — a bound on ``|U|``; ``None`` explores the
  whole search space as the paper's "find all repairs" mode does.
* ``goodness_threshold`` + ``goodness_mode`` — the §4.4 "future work"
  extension: a user-specified maximum goodness used to privilege (or
  outright exclude) repairs whose |goodness| stays under the threshold,
  discouraging UNIQUE-attribute repairs.
* ``exclude_unique`` — the blunt version of the same idea: never offer a
  UNIQUE attribute as a repair candidate (Section 3 explains why such
  repairs are undesirable).
* ``max_expansions`` — a safety budget on queue pops for benchmarking
  very wide relations; ``None`` means unbounded (paper behaviour).

:class:`EngineConfig` is the engine-level companion: it selects the
kernel backend (:mod:`repro.relational.kernels`) the relational hot
paths run on — ``python`` (stdlib reference loops) or ``numpy``
(vectorized, the ``[fast]`` extra).  The ``REPRO_BACKEND`` environment
variable overrides the default resolution; an activated
:class:`EngineConfig` overrides both.  ``approx`` selects the profiling
estimator family the same way — ``"exact"`` kernels or the
:mod:`repro.sketch` sketches (``$REPRO_APPROX``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.relational import kernels, statistics

__all__ = ["EngineConfig", "GoodnessMode", "RepairConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level settings: backend selection and cache bounds.

    ``backend`` is ``"auto"`` (numpy when installed, else python),
    ``"python"``, or ``"numpy"``.  ``partition_cache_size`` bounds the
    per-relation stripped-partition LRU (generous by default: a
    30-attribute discovery at LHS ≤ 3 caches ~4.5k sets and must not
    thrash); ``delta_track_limit`` bounds how many attribute sets the
    delta engine maintains incrementally per relation.  ``None`` means
    unbounded.  ``dc_tile`` is the edge length (representative rows) of
    the DC evidence engine's pair-space blocks — larger tiles amortize
    kernel dispatch, smaller ones bound peak memory.  Construction only
    validates; :meth:`activate` installs the choices process-wide
    (backend via :func:`repro.relational.kernels.set_backend`, taking
    precedence over the ``REPRO_BACKEND`` environment variable; cache
    bounds via :func:`repro.relational.statistics.configure_caches`;
    the tile via :func:`repro.dc.engine.set_tile`, taking precedence
    over ``REPRO_DC_TILE``).  ``approx`` picks the profiling estimator
    family for the out-of-core layer (:mod:`repro.storage.profile`):
    ``"exact"`` (spill-merge kernels, the default) or ``"sketch"``
    (:mod:`repro.sketch` HyperLogLog + seeded samples with stated error
    bounds), installed via
    :func:`repro.sketch.set_approx` and taking precedence over
    ``REPRO_APPROX``.  ``optimize`` switches the PR-10 query optimizer
    (plan rewrites in :mod:`repro.sql.optimize` plus zone-map chunk
    skipping in :mod:`repro.storage.sqlbridge`): ``"on"`` (the default)
    or ``"off"`` (the unoptimized oracle path the equivalence suite
    compares against), installed via
    :func:`repro.sql.optimize.set_optimize` and taking precedence over
    ``REPRO_OPTIMIZE``.
    """

    backend: str = "auto"
    partition_cache_size: int | None = 8192
    delta_track_limit: int | None = 64
    dc_tile: int = 4096
    approx: str = "exact"
    optimize: str = "on"

    def __post_init__(self) -> None:
        if self.backend not in ("auto", "python", "numpy"):
            raise ValueError(
                f"backend must be 'auto', 'python' or 'numpy', got {self.backend!r}"
            )
        statistics._validate_limit("partition_cache_size", self.partition_cache_size)
        statistics._validate_limit("delta_track_limit", self.delta_track_limit)
        if (
            isinstance(self.dc_tile, bool)
            or not isinstance(self.dc_tile, int)
            or self.dc_tile < 1
        ):
            raise ValueError(
                f"dc_tile must be a positive integer, got {self.dc_tile!r}"
            )
        if self.approx not in ("exact", "sketch"):
            raise ValueError(
                f"approx must be 'exact' or 'sketch', got {self.approx!r}"
            )
        if self.optimize not in ("on", "off"):
            raise ValueError(
                f"optimize must be 'on' or 'off', got {self.optimize!r}"
            )

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """Build a config from the ``REPRO_*`` environment knobs.

        Every knob is validated with the *same* message the constructor
        raises (plus the variable it came from), so a typo in a service
        unit file reads identically to a typo in code:

        * ``REPRO_BACKEND``  → :attr:`backend`
        * ``REPRO_DC_TILE``  → :attr:`dc_tile`
        * ``REPRO_APPROX``   → :attr:`approx`
        * ``REPRO_OPTIMIZE`` → :attr:`optimize`

        Unset variables keep the dataclass defaults.  Invalid values
        raise :class:`ValueError` (or
        :class:`~repro.relational.errors.KernelBackendError` for the
        backend, its established type) immediately — misconfiguration
        surfaces at startup, not at first use deep in a request.
        """
        import os

        from repro import sketch
        from repro.dc import engine as dc_engine
        from repro.sql import optimize as sql_optimize

        overrides: dict[str, object] = {}
        backend = os.environ.get(kernels.BACKEND_ENV_VAR)
        if backend:
            overrides["backend"] = kernels._normalize(
                backend, f"${kernels.BACKEND_ENV_VAR}"
            )
        tile = os.environ.get(dc_engine.TILE_ENV_VAR)
        if tile:
            try:
                value = int(tile)
            except ValueError:
                raise ValueError(
                    f"dc_tile must be a positive integer, got {tile!r} "
                    f"(from ${dc_engine.TILE_ENV_VAR})"
                ) from None
            overrides["dc_tile"] = dc_engine._validate_tile(
                value, f"${dc_engine.TILE_ENV_VAR}"
            )
        approx = os.environ.get(sketch.APPROX_ENV_VAR)
        if approx:
            overrides["approx"] = sketch._normalize(
                approx, f"${sketch.APPROX_ENV_VAR}"
            )
        optimize = os.environ.get(sql_optimize.OPTIMIZE_ENV_VAR)
        if optimize:
            overrides["optimize"] = sql_optimize._normalize(
                optimize, f"${sql_optimize.OPTIMIZE_ENV_VAR}"
            )
        return cls(**overrides)

    def resolve(self) -> str:
        """The concrete backend name this config would run on."""
        if self.backend == "auto":
            return "numpy" if kernels.numpy_available() else "python"
        return self.backend

    def activate(self) -> None:
        """Install this config's choices process-wide.

        Raises :class:`~repro.relational.errors.KernelBackendError` if
        ``numpy`` is requested but not installed.
        """
        from repro import sketch
        from repro.dc import engine as dc_engine
        from repro.sql import optimize as sql_optimize

        kernels.set_backend(self.backend)
        statistics.configure_caches(
            partition_cache_size=self.partition_cache_size,
            delta_track_limit=self.delta_track_limit,
        )
        dc_engine.set_tile(self.dc_tile)
        sketch.set_approx(self.approx)
        sql_optimize.set_optimize(self.optimize)


class GoodnessMode(enum.Enum):
    """How a configured goodness threshold is applied to exact repairs."""

    #: Repairs over the threshold are kept but ranked after every repair
    #: within it (the paper's "privilege" wording).
    PREFER = "prefer"
    #: Repairs over the threshold are dropped entirely.
    EXCLUDE = "exclude"


class CandidateOrder(enum.Enum):
    """How one-step candidates are ranked (ablation knob).

    The paper's ranking (§4.2) is confidence descending with |goodness|
    ascending as the secondary key.  The alternatives exist so the
    ordering ablation bench can quantify what each ingredient buys:

    * ``CONFIDENCE_ONLY`` drops the goodness tie-break — same repairs
      found, but ties resolve arbitrarily (by name), so the *first*
      repair may be a UNIQUE-ish attribute the paper's ranking avoids;
    * ``NAME`` drops ranking altogether (alphabetical) — the search is
      still correct but no longer guided, exploring more nodes before
      the first repair in stop-at-first mode.
    """

    RANK = "rank"
    CONFIDENCE_ONLY = "confidence-only"
    NAME = "name"


@dataclass(frozen=True)
class RepairConfig:
    """Immutable settings for one repair search."""

    stop_at_first: bool = False
    max_added_attributes: int | None = None
    goodness_threshold: int | None = None
    goodness_mode: GoodnessMode = GoodnessMode.PREFER
    exclude_unique: bool = False
    max_expansions: int | None = None
    #: Conflict-score convention for FD ordering (see DESIGN.md §3).
    include_self_in_conflict: bool = False
    #: Candidate ranking policy (ablation knob; paper = RANK).
    candidate_order: CandidateOrder = CandidateOrder.RANK

    def __post_init__(self) -> None:
        if self.max_added_attributes is not None and self.max_added_attributes < 1:
            raise ValueError("max_added_attributes must be >= 1 or None")
        if self.goodness_threshold is not None and self.goodness_threshold < 0:
            raise ValueError("goodness_threshold must be >= 0 or None")
        if self.max_expansions is not None and self.max_expansions < 1:
            raise ValueError("max_expansions must be >= 1 or None")

    # Convenience presets -------------------------------------------------
    @classmethod
    def find_first(cls, **overrides) -> "RepairConfig":
        """The paper's first-repair mode (minimal repair, early stop)."""
        overrides.setdefault("stop_at_first", True)
        return cls(**overrides)

    @classmethod
    def find_all(cls, **overrides) -> "RepairConfig":
        """The paper's find-all-repairs mode (full search-space walk)."""
        overrides.setdefault("stop_at_first", False)
        return cls(**overrides)

    def within_threshold(self, goodness: int) -> bool:
        """Whether a repair with this goodness passes the threshold."""
        if self.goodness_threshold is None:
            return True
        return abs(goodness) <= self.goodness_threshold
