"""Exception hierarchy for the relational substrate.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch a single base class.  The relational layer refines it
into schema errors (static, structural problems) and data errors
(problems with a specific instance).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "UnknownAttributeError",
    "DuplicateAttributeError",
    "TypeMismatchError",
    "NullValueError",
    "UnknownRelationError",
    "DuplicateRelationError",
    "ArityError",
    "KernelBackendError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A structural problem with a relation schema or catalog."""


class UnknownAttributeError(SchemaError, KeyError):
    """An attribute name was referenced that the schema does not define."""

    def __init__(self, attribute: str, relation: str | None = None) -> None:
        where = f" in relation {relation!r}" if relation else ""
        super().__init__(f"unknown attribute {attribute!r}{where}")
        self.attribute = attribute
        self.relation = relation


class DuplicateAttributeError(SchemaError):
    """A schema was declared with two attributes of the same name."""

    def __init__(self, attribute: str) -> None:
        super().__init__(f"duplicate attribute name {attribute!r}")
        self.attribute = attribute


class TypeMismatchError(ReproError):
    """A value does not conform to the declared attribute type."""

    def __init__(self, attribute: str, value: object, expected: str) -> None:
        super().__init__(
            f"value {value!r} for attribute {attribute!r} is not of type {expected}"
        )
        self.attribute = attribute
        self.value = value
        self.expected = expected


class NullValueError(ReproError):
    """A NULL appeared where the operation forbids it.

    Functional dependencies may not involve NULL-containing attributes
    (paper, Section 3, footnote 1), so the FD layer raises this error
    when asked to measure or repair over such attributes.
    """

    def __init__(self, attribute: str, context: str = "") -> None:
        suffix = f" ({context})" if context else ""
        super().__init__(f"attribute {attribute!r} contains NULL values{suffix}")
        self.attribute = attribute


class UnknownRelationError(ReproError, KeyError):
    """A relation name was referenced that the catalog does not contain."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation {name!r}")
        self.name = name


class DuplicateRelationError(ReproError):
    """A relation was registered twice under the same name."""

    def __init__(self, name: str) -> None:
        super().__init__(f"relation {name!r} already exists in the catalog")
        self.name = name


class ArityError(ReproError):
    """A tuple's length does not match the schema arity."""

    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"expected a tuple of arity {expected}, got {got}")
        self.expected = expected
        self.got = got


class KernelBackendError(ReproError):
    """A kernel backend was requested that cannot be used.

    Raised when the ``numpy`` backend is selected explicitly
    (``REPRO_BACKEND=numpy`` or ``EngineConfig(backend="numpy")``) but
    NumPy is not installed.  The ``auto`` selection never raises — it silently falls
    back to the pure-Python kernels.
    """

    def __init__(self, backend: str, reason: str) -> None:
        super().__init__(f"kernel backend {backend!r} unavailable: {reason}")
        self.backend = backend
        self.reason = reason


def _positive_int(field: str, value: object) -> int:
    """Return ``value`` if it is a positive ``int``, else raise ``ValueError``.

    The one check of the engine's integer knobs: ``EngineConfig.dc_tile``
    and the per-call ``tile=`` arguments of :mod:`repro.dc.engine`.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{field} must be a positive integer, got {value!r}")
    return value
