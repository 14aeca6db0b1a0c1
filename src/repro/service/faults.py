"""Deterministic fault injection for the monitoring service.

Everything here is driven by :func:`repro.datagen.rng.child_rng` over a
label path, never by wall clock or global randomness: the same
:class:`FaultPlan` seed produces the same drops, duplicates, transient
faults and kill points on every run — which is what lets the
crash-recovery oracle demand *byte-identical* event streams.

Two halves:

* :class:`FaultInjector` plugs into :class:`MonitorService` (its
  ``faults=`` hook).  ``gate`` fires per apply group and decides —
  keyed by ``(tenant, first_seq, attempt)`` so retries re-roll — to
  raise a :class:`~repro.service.errors.TransientFault` or stall past
  the batch timeout.  ``point`` fires at durability points
  (``accept.journaled``, ``apply.committed``, …) and raises
  :class:`~repro.service.errors.ServiceKilled` when the point matches
  an entry of ``kill_points``; each kill point fires once, so a
  restarted service makes progress.
* :class:`FaultyClient` sits on the *channel* side: per batch it may
  drop (not deliver), duplicate, or hold back batches to deliver out
  of order.  It remembers which batches were never acknowledged and
  resubmits them (oldest first) on :meth:`flush` — the client half of
  the exactly-once story.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.datagen.rng import child_rng

from .errors import Overloaded, ServiceKilled, TransientFault

__all__ = ["FaultInjector", "FaultPlan", "FaultyClient"]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of misbehaviour.

    Rates are probabilities in ``[0, 1]`` evaluated independently per
    decision; ``kill_points`` are exact ``(tenant, seq, point)``
    triples (see :meth:`MonitorService._point` call sites for point
    names).  ``stall_seconds`` must exceed the service's
    ``batch_timeout`` for ``stall_rate`` to actually trip it.
    """

    seed: int = 0
    transient_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 30.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    hold_rate: float = 0.0
    hold_span: int = 3
    kill_points: tuple[tuple[str, int, str], ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "transient_rate",
            "stall_rate",
            "drop_rate",
            "duplicate_rate",
            "hold_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.hold_span < 1:
            raise ValueError(
                f"hold_span must be a positive integer, got {self.hold_span!r}"
            )
        object.__setattr__(
            self,
            "kill_points",
            tuple((t, int(s), p) for t, s, p in self.kill_points),
        )


class FaultInjector:
    """Service-side hook; one instance outlives service restarts."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._attempts: dict[tuple[str, int], int] = {}
        self._fired: set[tuple[str, int, str]] = set()
        self._kill_points = set(plan.kill_points)

    async def gate(self, tenant: str, first: int, last: int) -> None:
        attempt = self._attempts.get((tenant, first), 0)
        self._attempts[(tenant, first)] = attempt + 1
        rng = child_rng(self.plan.seed, "gate", tenant, first, attempt)
        roll = rng.random()
        if roll < self.plan.transient_rate:
            raise TransientFault(
                f"injected transient fault (tenant {tenant!r}, "
                f"batches {first}..{last}, attempt {attempt})"
            )
        roll = rng.random()
        if roll < self.plan.stall_rate:
            await asyncio.sleep(self.plan.stall_seconds)

    def point(self, name: str, tenant: str, seq: int) -> None:
        key = (tenant, seq, name)
        if key in self._kill_points and key not in self._fired:
            self._fired.add(key)
            raise ServiceKilled(
                f"kill point {name!r} (tenant {tenant!r}, seq {seq})"
            )


@dataclass
class _Channel:
    """Per-tenant client channel state."""

    next_batch: int = 1
    unacked: dict[int, list] = field(default_factory=dict)
    held: dict[int, int] = field(default_factory=dict)  # batch -> release at


class FaultyClient:
    """A client that misdelivers on a seeded schedule, then makes good.

    :meth:`send` assigns the next batch id and may drop, duplicate or
    hold the delivery; :meth:`flush` (re)submits every batch the
    service never acknowledged, in order, until all are accepted.
    Because the service deduplicates by batch id, making good never
    double-applies.
    """

    def __init__(self, service: Any, plan: FaultPlan) -> None:
        self.service = service
        self.plan = plan
        self._channels: dict[str, _Channel] = {}

    def rebind(self, service: Any) -> None:
        """Point the client at a restarted service incarnation."""
        self.service = service

    def _channel(self, tenant: str) -> _Channel:
        return self._channels.setdefault(tenant, _Channel())

    async def send(self, tenant: str, rows: list) -> int:
        """Offer one batch through the faulty channel; returns its id."""
        channel = self._channel(tenant)
        batch_id = channel.next_batch
        channel.next_batch += 1
        channel.unacked[batch_id] = rows
        rng = child_rng(self.plan.seed, "channel", tenant, batch_id)
        if rng.random() < self.plan.drop_rate:
            return batch_id  # never delivered; flush() makes good
        if rng.random() < self.plan.hold_rate:
            channel.held[batch_id] = batch_id + self.plan.hold_span
            return batch_id  # delivered late, out of order
        deliveries = 2 if rng.random() < self.plan.duplicate_rate else 1
        for _ in range(deliveries):
            await self._deliver(tenant, channel, batch_id, rows)
        await self._release_held(tenant, channel)
        return batch_id

    async def _deliver(
        self, tenant: str, channel: _Channel, batch_id: int, rows: list
    ) -> None:
        try:
            status = await self.service.submit(tenant, batch_id, rows)
        except Overloaded:
            return  # stays unacked; flush() retries
        if status in ("accepted", "duplicate"):
            channel.unacked.pop(batch_id, None)

    async def _release_held(self, tenant: str, channel: _Channel) -> None:
        due = [
            batch_id
            for batch_id, release_at in channel.held.items()
            if channel.next_batch > release_at
        ]
        for batch_id in sorted(due):
            del channel.held[batch_id]
            rows = channel.unacked.get(batch_id)
            if rows is not None:
                await self._deliver(tenant, channel, batch_id, rows)

    async def flush(self) -> None:
        """Deliver every unacknowledged batch, oldest first, until done."""
        for tenant, channel in self._channels.items():
            channel.held.clear()
            while channel.unacked:
                batch_id = min(channel.unacked)
                rows = channel.unacked[batch_id]
                try:
                    status = await self.service.submit(tenant, batch_id, rows)
                except Overloaded as overload:
                    await asyncio.sleep(overload.retry_after)
                    continue
                if status in ("accepted", "duplicate"):
                    channel.unacked.pop(batch_id, None)
                elif status == "buffered":
                    # A gap precedes this batch but nothing earlier is
                    # unacked — the sequence can never heal this flush.
                    break

    @property
    def pending(self) -> int:
        """Batches sent but never acknowledged (drops, crashes, holds)."""
        return sum(len(c.unacked) for c in self._channels.values())
