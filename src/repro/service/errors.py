"""Typed failures of the monitoring service.

The service distinguishes three failure families, because callers react
to each differently:

* **flow control** — :class:`Overloaded` carries an explicit
  ``retry_after`` hint; the caller backs off and resubmits.  Rejection
  is a *feature*: the bounded queues refuse work instead of buffering
  unboundedly.
* **transient faults** — :class:`TransientFault` is retried in-service
  with exponential backoff; only when the retry budget is exhausted does
  :class:`BatchFailed` escape.
* **corruption / protocol** — :class:`WalCorruptError` and friends are
  never retried; they indicate a bug or a damaged store and must
  surface loudly.

:class:`ServiceKilled` is the crash simulator's exception: the
fault-injection harness raises it at seeded points to model a hard
process death, and the service treats it as exactly that — no cleanup,
no flushing, state recovered from the WAL on the next start.
"""

from __future__ import annotations

from repro.relational.errors import ReproError

__all__ = [
    "BatchFailed",
    "Overloaded",
    "ServiceClosedError",
    "ServiceError",
    "ServiceKilled",
    "TransientFault",
    "UnknownTenantError",
    "WalCorruptError",
]


class ServiceError(ReproError):
    """Base class for monitoring-service failures."""


class UnknownTenantError(ServiceError, KeyError):
    """A tenant id was referenced that the service does not host."""

    def __init__(self, tenant_id: str) -> None:
        super().__init__(f"unknown tenant {tenant_id!r}")
        self.tenant_id = tenant_id


class ServiceClosedError(ServiceError):
    """The service is not accepting work (stopped, or crashed)."""


class Overloaded(ServiceError):
    """Typed backpressure rejection: resubmit after ``retry_after``.

    Raised on non-waiting submission when the tenant's bounded queue is
    full, when its reorder buffer is exhausted, or while the tenant is
    load-shed into degraded mode.  Nothing was journaled — the batch
    must be resubmitted.
    """

    def __init__(self, tenant_id: str, reason: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant_id!r} overloaded ({reason}); "
            f"retry after {retry_after:g}s"
        )
        self.tenant_id = tenant_id
        self.reason = reason
        self.retry_after = retry_after


class TransientFault(ServiceError):
    """A retryable failure injected or detected before state mutation."""


class BatchFailed(ServiceError):
    """A batch exhausted its retry budget without being applied."""

    def __init__(
        self, tenant_id: str, first_seq: int, last_seq: int, attempts: int
    ) -> None:
        span = (
            f"batch {first_seq}"
            if first_seq == last_seq
            else f"batches {first_seq}..{last_seq}"
        )
        super().__init__(
            f"tenant {tenant_id!r} {span} failed after {attempts} attempt(s)"
        )
        self.tenant_id = tenant_id
        self.first_seq = first_seq
        self.last_seq = last_seq
        self.attempts = attempts


class ServiceKilled(ServiceError):
    """Simulated hard crash (fault injection): die without cleanup."""


class WalCorruptError(ServiceError):
    """The write-ahead log or a checkpoint is structurally damaged."""
