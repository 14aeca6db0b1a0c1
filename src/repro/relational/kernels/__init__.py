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

The backend is an engine knob: ``EngineConfig(backend=...)`` (``auto``
| ``python`` | ``numpy``; ``$REPRO_BACKEND``) installs the module that
:func:`get_backend` returns, and ``import repro`` installs
``EngineConfig.from_env()``.  ``auto`` picks numpy when NumPy imports,
else python, so a stdlib-pure install keeps working; explicitly
requesting ``numpy`` without NumPy installed raises
:class:`~repro.relational.errors.KernelBackendError`.

A relation's partition cache stores whichever representation the
backend active at build time produced.  The two partition
representations interoperate (either side of ``refine``/``product``
accepts the other), so switching backends mid-session degrades
gracefully instead of invalidating caches.
"""

from __future__ import annotations

from types import ModuleType

__all__ = [
    "available_backends",
    "get_backend",
    "active_backend_name",
    "numpy_available",
]

#: The installed backend module; ``EngineConfig.activate`` writes it.
_backend: ModuleType

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


def active_backend_name() -> str:
    """The name of the backend :func:`get_backend` returns."""
    return _backend.NAME


def get_backend() -> ModuleType:
    """The installed kernel backend module."""
    return _backend
