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
    "validate_engine",
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

    Raised when an unknown backend name is configured, or when the
    ``numpy`` backend is selected explicitly (``REPRO_BACKEND=numpy`` or
    :func:`repro.relational.kernels.set_backend`) but NumPy is not
    installed.  The ``auto`` selection never raises — it silently falls
    back to the pure-Python kernels.
    """

    def __init__(self, backend: str, reason: str) -> None:
        super().__init__(f"kernel backend {backend!r} unavailable: {reason}")
        self.backend = backend
        self.reason = reason


def validate_engine(
    value: str,
    allowed: tuple[str, ...],
    error_type: type[Exception] = ValueError,
) -> str:
    """Validate an ``engine=`` keyword against its allowed values.

    Every subsystem that exposes engine selection — SQL execution, DC
    discovery, FD monitoring — funnels through this helper so the error
    message is uniform (see the engine matrix in docs/ARCHITECTURE.md).
    ``error_type`` lets each call site keep its established exception
    class.
    """
    if value not in allowed:
        raise error_type(
            f"unknown engine {value!r}; expected one of {tuple(allowed)}"
        )
    return value
