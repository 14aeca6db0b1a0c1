"""Backend-selectable kernel layer for the relational engine.

Every hot primitive of the engine — dictionary encoding, stripped
partition construction/refinement, distinct counting, the entropy sums
of the EB baseline, and violating-pair counting — is implemented twice:

* :mod:`repro.relational.kernels.python_backend` — the reference
  implementation, pure stdlib loops over ``list[int]`` code columns
  (the exact code the engine ran before the kernel layer existed);
* :mod:`repro.relational.kernels.numpy_backend` — vectorized kernels
  over ``int64`` arrays (argsort + run-length grouping instead of dict
  building), available when NumPy is installed (the ``[fast]`` extra).

Both backends expose the same module-level functions (see
``python_backend`` for the canonical signatures) and produce
*semantically identical* results: the same partitions, the same counts,
the same entropies.  The property-test suite pins that equivalence,
including NULL rows and the all-singleton/all-duplicate edge cases.

Selection rules, in priority order:

1. an explicit :func:`set_backend` / :func:`use_backend` call
   (``repro.core.config.EngineConfig.activate`` goes through this);
2. the ``REPRO_BACKEND`` environment variable (``python`` | ``numpy``
   | ``auto``);
3. ``auto`` — the numpy backend when NumPy imports, else python.

Explicitly requesting ``numpy`` without NumPy installed raises
:class:`~repro.relational.errors.KernelBackendError`; ``auto`` falls
back silently, so a stdlib-pure install keeps working unchanged.

Backends are resolved per *operation*, not per relation: a relation's
partition cache stores whichever representation the backend active at
build time produced.  The two partition representations interoperate
(either side of ``refine``/``product`` accepts the other), so switching
backends mid-session degrades gracefully instead of invalidating
caches.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from types import ModuleType
from typing import Iterator

from ..errors import KernelBackendError

__all__ = [
    "BACKEND_ENV_VAR",
    "available_backends",
    "get_backend",
    "active_backend_name",
    "numpy_available",
    "set_backend",
    "use_backend",
]

#: Environment variable consulted when no backend is forced in-process.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_KNOWN = ("auto", "python", "numpy")

#: In-process override installed by :func:`set_backend`; ``None`` defers
#: to the environment variable / auto detection.
_forced: str | None = None

#: Cached result of the NumPy import probe (``None`` = not probed yet).
_numpy_probe: bool | None = None


def numpy_available() -> bool:
    """Whether the numpy backend can be used (NumPy imports)."""
    global _numpy_probe
    if _numpy_probe is None:
        try:
            import numpy  # noqa: F401

            _numpy_probe = True
        except ImportError:
            _numpy_probe = False
    return _numpy_probe


def available_backends() -> tuple[str, ...]:
    """Names of the backends usable in this environment."""
    if numpy_available():
        return ("python", "numpy")
    return ("python",)


def _normalize(name: str, source: str) -> str:
    normalized = name.strip().lower()
    if normalized not in _KNOWN:
        # Same message as EngineConfig's constructor validation, plus
        # the source, so env-var typos read identically to code typos.
        raise KernelBackendError(
            name,
            f"backend must be 'auto', 'python' or 'numpy', got {name!r} "
            f"(from {source})",
        )
    return normalized


def _resolve() -> str:
    """The backend name the current rules select (``python``/``numpy``)."""
    if _forced is not None:
        requested, source = _forced, "set_backend()"
    else:
        env = os.environ.get(BACKEND_ENV_VAR)
        if env:
            source = f"${BACKEND_ENV_VAR}"
            requested = _normalize(env, source)
        else:
            requested, source = "auto", "auto"
    if requested == "auto":
        return "numpy" if numpy_available() else "python"
    if requested == "numpy" and not numpy_available():
        raise KernelBackendError(
            "numpy",
            f"NumPy is not installed (requested via {source}); "
            "install the [fast] extra or select the python backend",
        )
    return requested


def active_backend_name() -> str:
    """The name of the backend :func:`get_backend` would return now."""
    return _resolve()


def get_backend() -> ModuleType:
    """The active kernel backend module (resolved per call)."""
    if _resolve() == "numpy":
        from . import numpy_backend

        return numpy_backend
    from . import python_backend

    return python_backend


def set_backend(name: str | None) -> None:
    """Force a backend in-process (overrides ``REPRO_BACKEND``).

    ``None`` removes the override; ``"auto"`` forces auto-detection
    (ignoring the environment variable).  Requesting ``"numpy"``
    without NumPy installed raises immediately rather than at first
    use, so misconfiguration surfaces at startup.
    """
    global _forced
    if name is None:
        _forced = None
        return
    normalized = _normalize(name, "set_backend()")
    if normalized == "numpy" and not numpy_available():
        raise KernelBackendError("numpy", "NumPy is not installed")
    _forced = normalized


@contextmanager
def use_backend(name: str | None) -> Iterator[None]:
    """Scoped :func:`set_backend` (benchmarks and tests use this)."""
    global _forced
    previous = _forced
    set_backend(name)
    try:
        yield
    finally:
        _forced = previous
