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

:class:`EngineConfig` is the engine-level companion: it is the one place
that names, validates, defaults and installs an engine knob (kernel
backend, cache bounds, DC tile).  :data:`_KNOBS` holds one
row per field — its environment variable, check and installer — and
the constructor, :meth:`EngineConfig.from_env` and
:meth:`EngineConfig.activate` are loops over it.  The ``REPRO_*``
variables are read once per process: ``import repro`` activates
``EngineConfig.from_env()``.  :func:`use_engine` scopes an override.
"""

from __future__ import annotations

import enum
import importlib
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from types import ModuleType

from repro.dc import engine as dc_engine
from repro.relational import kernels, statistics
from repro.relational.errors import KernelBackendError, _positive_int

__all__ = ["EngineConfig", "GoodnessMode", "RepairConfig", "use_engine"]


def _one_of(*choices: str) -> Callable[[str, object], None]:
    spelled = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"

    def check(field: str, value: object) -> None:
        if value not in choices:
            raise ValueError(f"{field} must be {spelled}, got {value!r}")

    return check


def _validate_limit(field: str, value: object) -> None:
    """Reject a cache bound that is not a positive ``int`` or ``None``."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{field} must be a positive integer or None, got {value!r}")


def _int_or_text(text: str) -> object:
    """An integer variable's value; unparsable text goes on to the check."""
    try:
        return int(text)
    except ValueError:
        return text


def _backend_name(name: str) -> str:
    """The concrete backend ``name`` selects; ``"auto"`` probes for NumPy."""
    if name == "auto":
        return "numpy" if kernels.numpy_available() else "python"
    return name


def _backend_module(name: str) -> ModuleType:
    name = _backend_name(name)
    if name == "numpy" and not kernels.numpy_available():
        raise KernelBackendError(
            "numpy",
            "NumPy is not installed; install the [fast] extra or select "
            "the python backend",
        )
    return importlib.import_module(f"{kernels.__name__}.{name}_backend")


def _into(
    module: ModuleType, name: str, convert: Callable[[object], object] | None = None
) -> Callable[[object], None]:
    """An installer writing a knob's value into ``module.name``."""

    def install(value: object) -> None:
        setattr(module, name, value if convert is None else convert(value))

    return install


@dataclass(frozen=True)
class _Knob:
    field: str
    env: str | None
    check: Callable[[str, object], None]
    install: Callable[[object], None]
    parse: Callable[[str], object] = str


#: One row per :class:`EngineConfig` field.  ``backend`` comes first:
#: its installer is the only one that can fail (NumPy missing), so a
#: failed :meth:`EngineConfig.activate` leaves every knob as it was.
_KNOBS = (
    _Knob(
        "backend",
        "REPRO_BACKEND",
        _one_of("auto", "python", "numpy"),
        _into(kernels, "_backend", _backend_module),
    ),
    _Knob(
        "partition_cache_size",
        None,
        _validate_limit,
        _into(statistics, "_partition_cache_limit"),
    ),
    _Knob(
        "delta_track_limit",
        None,
        _validate_limit,
        _into(statistics, "_tracker_limit"),
    ),
    _Knob(
        "dc_tile",
        "REPRO_DC_TILE",
        _positive_int,
        _into(dc_engine, "_tile"),
        parse=_int_or_text,
    ),
)

#: The config last activated (``import repro`` activates the first).
_active: EngineConfig | None = None


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level settings: kernel backend, cache bounds, DC tile.

    ``backend`` is ``"auto"`` (numpy when installed, else python),
    ``"python"``, or ``"numpy"`` ($REPRO_BACKEND).
    ``partition_cache_size`` bounds the per-relation stripped-partition
    LRU — generous by default: a 30-attribute discovery at LHS ≤ 3
    caches C(30,1) + C(30,2) + C(30,3) = 4525 sets and must not thrash.
    ``delta_track_limit`` bounds how many attribute sets the delta
    engine maintains incrementally per relation; the monitoring path
    tracks a handful per watched FD, so 64 covers ~20 FDs.  ``None``
    means unbounded for both.  ``dc_tile`` is the edge length
    (representative rows) of the DC evidence engine's pair-space blocks
    ($REPRO_DC_TILE): larger tiles amortize kernel dispatch, smaller
    ones bound peak memory.  Construction only validates;
    :meth:`activate` installs the choices process-wide.
    """

    backend: str = "auto"
    partition_cache_size: int | None = 8192
    delta_track_limit: int | None = 64
    dc_tile: int = 4096

    def __post_init__(self) -> None:
        for knob in _KNOBS:
            knob.check(knob.field, getattr(self, knob.field))

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """Build a config from the ``REPRO_*`` environment variables.

        Unset (or empty) variables keep the defaults.  A bad value
        raises the constructor's :class:`ValueError` with
        ``(from $VAR)`` appended, so a typo in a service unit file reads
        like a typo in code.
        """
        values: dict[str, object] = {}
        for knob in _KNOBS:
            text = os.environ.get(knob.env) if knob.env else None
            if not text:
                continue
            value = knob.parse(text)
            try:
                knob.check(knob.field, value)
            except ValueError as error:
                raise ValueError(f"{error} (from ${knob.env})") from None
            values[knob.field] = value
        return cls(**values)

    def resolve(self) -> str:
        """The concrete backend name this config would run on.

        Loads nothing and never raises: ``"numpy"`` resolves to itself
        even where NumPy is missing (:meth:`activate` reports that).
        """
        return _backend_name(self.backend)

    def activate(self) -> None:
        """Install this config's choices process-wide.

        Raises :class:`~repro.relational.errors.KernelBackendError` if
        ``numpy`` is requested but not installed.
        """
        global _active
        for knob in _KNOBS:
            knob.install(getattr(self, knob.field))
        _active = self


@contextmanager
def use_engine(**changes: object) -> Iterator[EngineConfig]:
    """Activate the active config with ``changes`` for a ``with`` block.

    The previous config is activated again on exit, also on error.
    """
    previous = _active
    config = replace(previous, **changes)
    config.activate()
    try:
        yield config
    finally:
        previous.activate()


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
        for name in ("max_added_attributes", "goodness_threshold", "max_expansions"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ValueError(f"{name} must be an int or None, got {value!r}")
        for name, kind in (
            ("goodness_mode", GoodnessMode),
            ("candidate_order", CandidateOrder),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
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
