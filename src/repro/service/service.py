"""The always-on multi-tenant FD monitoring service.

One :class:`MonitorService` hosts many *tenants*.  Each tenant owns a
schema, a scoped FD watch list, and a priority; all tenants multiplex
over the shared engine machinery (one
:class:`~repro.relational.delta.DeltaStream`-backed
:class:`~repro.core.monitor.FDMonitor` per tenant, one process-wide
kernel backend configured by :class:`~repro.core.config.EngineConfig`).

The batch lifecycle — and where each guarantee comes from:

1. **submit** (``await service.submit(tenant, batch_id, rows)``) —
   client batch ids are strictly increasing from 1.  A stale id is
   acknowledged ``"duplicate"`` (idempotent resubmission after a crash
   or a duplicated channel); an early id parks in a bounded reorder
   buffer (``"buffered"``); the next expected id is journaled to the
   tenant's WAL and **committed before the call acknowledges**
   (``"accepted"``) — an acknowledged batch survives any crash.
   Backpressure is explicit: with ``wait=True`` the call awaits queue
   capacity, with ``wait=False`` a full queue raises
   :class:`~repro.service.errors.Overloaded` carrying ``retry_after``.
2. **apply** — the tenant's worker drains its queue, coalescing up to
   ``coalesce_max_batches`` under one gate when it has fallen behind.
   The *gate* (fault hook + per-batch timeout) is the only awaitable,
   retryable phase; transient faults and timeouts retry with
   exponential backoff.  The fold itself is synchronous and
   per-client-batch, so retries never double-count and coalescing never
   changes the event stream.
3. **events** — alerts (and periodic drift verdicts) derived from a
   batch are journaled in an ``applied`` record and committed *before*
   live emission.  Recovery re-derives events for accepted batches,
   verifies them against stored ``applied`` records (corruption check)
   and re-emits only batches that never reached their ``applied``
   record — the durable event stream is exactly-once.
4. **degrade** — above ``shed_high_water`` total queued batches the
   service sheds the lowest-priority tenants' queues (durable ``shed``
   records + :class:`ShedEvent`) and parks them in degraded mode until
   the backlog falls under ``shed_low_water``.  ``max_resident``
   bounds resident monitor state: idle tenants are checkpointed and
   evicted LRU, then restored on their next submission.
5. **stop / kill** — :meth:`MonitorService.stop` drains, checkpoints
   and closes; :meth:`MonitorService.kill` models a hard crash (drops
   uncommitted WAL buffers on the floor).  A new service started on
   the same state directory replays to exactly the pre-crash state.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.config import EngineConfig
from repro.core.monitor import FDMonitor
from repro.fd.fd import FunctionalDependency
from repro.relational.schema import RelationSchema
from repro.temporal.bridge import classify_monitor_state

from . import wal as walmod
from .errors import (
    BatchFailed,
    Overloaded,
    ServiceClosedError,
    ServiceError,
    ServiceKilled,
    TransientFault,
    UnknownTenantError,
    WalCorruptError,
)
from .events import (
    AlertEvent,
    DegradedEvent,
    DriftEvent,
    RecoveryEvent,
    ServiceEvent,
    ShedEvent,
    to_json,
)

__all__ = ["MonitorService", "ServiceConfig", "TenantSpec"]


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantSpec:
    """One tenant's declaration, persisted as ``spec.json``.

    ``watches`` pairs an FD (in :meth:`FunctionalDependency.parse`
    syntax) with an alert threshold (``None`` = monitor default of 1.0).
    Higher ``priority`` tenants are shed last under load.
    """

    tenant_id: str
    relation: str
    attributes: tuple[str, ...]
    watches: tuple[tuple[str, float | None], ...]
    priority: int = 0
    history_every: int = 100

    def __post_init__(self) -> None:
        if not self.tenant_id or "/" in self.tenant_id or "\0" in self.tenant_id:
            raise ValueError(
                f"tenant_id must be a non-empty name without '/', "
                f"got {self.tenant_id!r}"
            )
        if not isinstance(self.attributes, (list, tuple)) or not all(
            isinstance(name, str) for name in self.attributes
        ):
            raise ValueError(
                f"attributes must be a list of names, got {self.attributes!r}"
            )
        if isinstance(self.priority, bool) or not isinstance(self.priority, int):
            raise ValueError(f"priority must be an integer, got {self.priority!r}")
        if (
            isinstance(self.history_every, bool)
            or not isinstance(self.history_every, int)
            or self.history_every < 1
        ):
            raise ValueError(
                f"history_every must be a positive integer, "
                f"got {self.history_every!r}"
            )
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(
            self,
            "watches",
            tuple((fd, threshold) for fd, threshold in self.watches),
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "tenant_id": self.tenant_id,
            "relation": self.relation,
            "attributes": list(self.attributes),
            "watches": [
                {"fd": fd, "threshold": threshold}
                for fd, threshold in self.watches
            ],
            "priority": self.priority,
            "history_every": self.history_every,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "TenantSpec":
        try:
            spec = cls(
                tenant_id=payload["tenant_id"],
                relation=payload["relation"],
                attributes=payload["attributes"],
                watches=tuple(
                    (watch["fd"], watch["threshold"])
                    for watch in payload["watches"]
                ),
                priority=payload.get("priority", 0),
                history_every=payload.get("history_every", 100),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise WalCorruptError(f"malformed tenant spec: {error}") from error
        # Specs written before the monitor had a single engine carry an
        # ``engine`` field; only the surviving one can be restored.
        engine = payload.get("engine", "delta")
        if engine != "delta":
            raise WalCorruptError(
                f"tenant spec names engine {engine!r}; only 'delta' is supported"
            )
        return spec

    def build_monitor(self) -> FDMonitor:
        """A fresh monitor implementing this spec (empty stream)."""
        schema = RelationSchema(self.relation, list(self.attributes))
        monitor = FDMonitor(schema, history_every=self.history_every)
        for fd_text, threshold in self.watches:
            monitor.watch(FunctionalDependency.parse(fd_text), threshold)
        return monitor


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs; engine-level ones ride in ``engine``.

    All limits are validated at construction with the same message
    style :class:`~repro.core.config.EngineConfig` uses, so a bad unit
    file fails loudly at startup.
    """

    state_dir: str | Path
    queue_capacity: int = 64
    reorder_capacity: int = 16
    coalesce_max_batches: int = 8
    max_retries: int = 3
    retry_base_delay: float = 0.01
    batch_timeout: float = 5.0
    checkpoint_every: int = 50
    drift_check_every: int = 10
    shed_high_water: int | None = None
    shed_low_water: int | None = None
    max_resident: int | None = None
    retry_after_hint: float = 0.05
    sync: str = "batch"
    retain_segments: bool = False
    keep_checkpoints: int = 2
    engine: EngineConfig | None = None

    def __post_init__(self) -> None:
        for name in (
            "queue_capacity",
            "reorder_capacity",
            "coalesce_max_batches",
            "checkpoint_every",
            "drift_check_every",
            "keep_checkpoints",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if (
            isinstance(self.max_retries, bool)
            or not isinstance(self.max_retries, int)
            or self.max_retries < 0
        ):
            raise ValueError(
                f"max_retries must be a non-negative integer, "
                f"got {self.max_retries!r}"
            )
        for name in ("retry_base_delay", "batch_timeout", "retry_after_hint"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
                or value <= 0
            ):
                raise ValueError(
                    f"{name} must be a positive number, got {value!r}"
                )
        for name in ("shed_high_water", "shed_low_water", "max_resident"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise ValueError(
                    f"{name} must be a positive integer or None, got {value!r}"
                )
        if (self.shed_high_water is None) != (self.shed_low_water is None):
            raise ValueError(
                "shed_high_water and shed_low_water must be set together"
            )
        if (
            self.shed_high_water is not None
            and self.shed_low_water is not None
            and self.shed_low_water > self.shed_high_water
        ):
            raise ValueError(
                f"shed_low_water ({self.shed_low_water}) must not exceed "
                f"shed_high_water ({self.shed_high_water})"
            )
        if self.sync not in ("batch", "none"):
            raise ValueError(f"sync must be 'batch' or 'none', got {self.sync!r}")


# ----------------------------------------------------------------------
# Runtime state
# ----------------------------------------------------------------------
@dataclass
class _Tenant:
    """Per-tenant runtime state (the durable part lives in the WAL)."""

    spec: TenantSpec
    wal: walmod.TenantWal
    monitor: FDMonitor | None
    queue: asyncio.Queue
    lock: asyncio.Lock
    undegraded: asyncio.Event
    accepted_seq: int = 0
    applied_seq: int = 0
    applied_count: int = 0
    drift_kinds: dict[str, str] = field(default_factory=dict)
    pending: dict[int, list] = field(default_factory=dict)
    degraded: bool = False
    resident: bool = True
    busy: bool = False
    last_used: int = 0
    task: asyncio.Task | None = None

    @property
    def tenant_id(self) -> str:
        return self.spec.tenant_id


class MonitorService:
    """See the module docstring for the full lifecycle contract.

    ``faults`` is an optional fault hook (duck-typed; see
    :class:`repro.service.faults.FaultInjector`): ``point(name, tenant,
    seq)`` is called synchronously at every durability-relevant point
    and may raise :class:`ServiceKilled`; ``await gate(tenant, first,
    last)`` runs once per apply group inside the retry/timeout
    envelope and may raise transient faults or stall.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        faults: Any | None = None,
        on_event: Callable[[ServiceEvent], None] | None = None,
    ) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self._faults = faults
        self._on_event = on_event
        self._tenants: dict[str, _Tenant] = {}
        self._state = "new"
        self._crash_reason: str | None = None
        self.crashed = asyncio.Event()
        self.events: list[ServiceEvent] = []
        self._tick = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Activate engine knobs and recover every tenant on disk."""
        if self._state != "new":
            raise ServiceError(f"cannot start a {self._state} service")
        if self.config.engine is not None:
            self.config.engine.activate()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._state = "running"
        for path in sorted(self.state_dir.iterdir()):
            if (path / "spec.json").is_file():
                self._recover_tenant(path.name)

    async def stop(self) -> None:
        """Graceful shutdown: drain, checkpoint everything, close."""
        self._require_running()
        await self.drain()
        self._state = "stopped"
        for tenant in self._tenants.values():
            if tenant.task is not None:
                tenant.task.cancel()
            if tenant.resident and tenant.monitor is not None:
                self._checkpoint(tenant)
                tenant.wal.close()

    def kill(self) -> None:
        """Hard crash: no draining, no flushing, buffers dropped."""
        self._crash("killed")

    def _crash(self, reason: str) -> None:
        if self._state == "crashed":
            return
        self._state = "crashed"
        self._crash_reason = reason
        for tenant in self._tenants.values():
            if tenant.task is not None:
                tenant.task.cancel()
            tenant.wal.abandon()
        self.crashed.set()

    def _require_running(self) -> None:
        if self._state != "running":
            detail = (
                f" ({self._crash_reason})"
                if self._state == "crashed" and self._crash_reason
                else ""
            )
            raise ServiceClosedError(f"service is {self._state}{detail}")

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def add_tenant(self, spec: TenantSpec) -> None:
        """Register a tenant: persist its spec, open its WAL."""
        self._require_running()
        if spec.tenant_id in self._tenants:
            raise ServiceError(f"tenant {spec.tenant_id!r} already exists")
        directory = self.state_dir / spec.tenant_id
        directory.mkdir(parents=True, exist_ok=True)
        monitor = spec.build_monitor()  # validate before persisting
        spec_path = directory / "spec.json"
        scratch = directory / f".spec.json.tmp{os.getpid()}"
        scratch.write_text(
            json.dumps(spec.to_json(), indent=2) + "\n", encoding="utf-8"
        )
        os.replace(scratch, spec_path)
        wal = walmod.TenantWal(directory, sync=self.config.sync)
        wal.open_segment(1)
        tenant = self._make_tenant(spec, wal, monitor)
        self._tenants[spec.tenant_id] = tenant
        self._start_worker(tenant)
        self._touch(tenant)
        self._maybe_evict()

    def _make_tenant(
        self, spec: TenantSpec, wal: walmod.TenantWal, monitor: FDMonitor
    ) -> _Tenant:
        return _Tenant(
            spec=spec,
            wal=wal,
            monitor=monitor,
            queue=asyncio.Queue(maxsize=self.config.queue_capacity),
            lock=asyncio.Lock(),
            undegraded=self._set_event(),
        )

    @staticmethod
    def _set_event() -> asyncio.Event:
        event = asyncio.Event()
        event.set()
        return event

    def _tenant(self, tenant_id: str) -> _Tenant:
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise UnknownTenantError(tenant_id)
        return tenant

    @property
    def tenant_ids(self) -> list[str]:
        return sorted(self._tenants)

    def _touch(self, tenant: _Tenant) -> None:
        self._tick += 1
        tenant.last_used = self._tick

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    async def submit(
        self,
        tenant_id: str,
        batch_id: int,
        rows: list,
        *,
        wait: bool = True,
    ) -> str:
        """Offer one client batch; see the module docstring protocol.

        Returns ``"accepted"`` (durably journaled), ``"duplicate"``
        (already accepted — idempotent resubmission) or ``"buffered"``
        (parked until the preceding batch arrives).  Raises
        :class:`Overloaded` when flow control refuses the batch.
        """
        if not isinstance(batch_id, int) or batch_id < 1:
            raise ValueError(
                f"batch_id must be a positive integer, got {batch_id!r}"
            )
        self._require_running()
        tenant = self._tenant(tenant_id)
        self._ensure_resident(tenant)
        self._touch(tenant)
        self._maybe_unshed()
        hint = self.config.retry_after_hint
        if tenant.degraded:
            if not wait:
                raise Overloaded(tenant_id, "degraded (load shed)", hint)
            while tenant.degraded:
                await tenant.undegraded.wait()
                self._require_running()
        if batch_id <= tenant.accepted_seq:
            return "duplicate"
        if batch_id in tenant.pending:
            # Parked in the (volatile) reorder buffer: refresh the rows
            # but keep reporting "buffered" — only a journaled batch may
            # be acknowledged as accepted/duplicate.
            tenant.pending[batch_id] = rows
            return "buffered"
        if batch_id > tenant.accepted_seq + 1:
            if len(tenant.pending) >= self.config.reorder_capacity:
                # Waiting cannot fill the sequence gap, so the reorder
                # buffer rejects regardless of ``wait``.
                raise Overloaded(tenant_id, "reorder buffer full", hint)
            tenant.pending[batch_id] = rows
            return "buffered"
        async with tenant.lock:
            self._require_running()
            if batch_id <= tenant.accepted_seq:
                return "duplicate"  # raced with a duplicate submitter
            if not wait and tenant.queue.full():
                raise Overloaded(tenant_id, "queue full", hint)
            try:
                self._accept(tenant, batch_id, rows)
                await tenant.queue.put((batch_id, rows))
                # Ready follow-ons from the reorder buffer ride along,
                # in order, under the same lock.
                while tenant.accepted_seq + 1 in tenant.pending:
                    next_seq = tenant.accepted_seq + 1
                    next_rows = tenant.pending.pop(next_seq)
                    self._accept(tenant, next_seq, next_rows)
                    await tenant.queue.put((next_seq, next_rows))
            except ServiceKilled:
                self._crash("killed at a fault point during accept")
                raise
        self._maybe_shed()
        return "accepted"

    def _accept(self, tenant: _Tenant, seq: int, rows: list) -> None:
        """Journal + commit one batch (the durable-accept step)."""
        self._point("accept.start", tenant, seq)
        tenant.wal.append_batch(seq, rows)
        self._point("accept.journaled", tenant, seq)
        tenant.wal.commit()
        tenant.accepted_seq = seq
        self._point("accept.committed", tenant, seq)

    async def drain(self) -> None:
        """Await until every queued batch has been applied."""
        while True:
            self._require_running()
            self._maybe_unshed()
            if all(
                tenant.queue.qsize() == 0 and not tenant.busy
                for tenant in self._tenants.values()
            ):
                return
            await asyncio.sleep(0.002)

    # ------------------------------------------------------------------
    # Apply loop
    # ------------------------------------------------------------------
    def _start_worker(self, tenant: _Tenant) -> None:
        tenant.task = asyncio.get_running_loop().create_task(
            self._run_tenant(tenant), name=f"repro-tenant-{tenant.tenant_id}"
        )

    async def _run_tenant(self, tenant: _Tenant) -> None:
        try:
            while True:
                group = [await tenant.queue.get()]
                while len(group) < self.config.coalesce_max_batches:
                    try:
                        group.append(tenant.queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                tenant.busy = True
                try:
                    await self._process_group(tenant, group)
                finally:
                    tenant.busy = False
                self._maybe_unshed()
        except asyncio.CancelledError:
            raise
        except ServiceKilled:
            self._crash(
                f"killed at a fault point while applying for "
                f"{tenant.tenant_id!r}"
            )
        except Exception as error:  # noqa: BLE001 — a worker must not die silently
            self._crash(f"tenant {tenant.tenant_id!r} worker died: {error!r}")

    async def _process_group(
        self, tenant: _Tenant, group: list[tuple[int, list]]
    ) -> None:
        first, last = group[0][0], group[-1][0]
        try:
            await self._gate_with_retries(tenant, first, last)
        except BatchFailed as failure:
            # The retry budget is gone: shed the group durably rather
            # than stall the tenant's queue forever.
            tenant.wal.append_shed(first, last)
            tenant.wal.commit()
            self._emit(
                ShedEvent(
                    tenant=tenant.tenant_id,
                    first_seq=first,
                    last_seq=last,
                    dropped=len(group),
                )
            )
            self._emit(
                DegradedEvent(
                    tenant=tenant.tenant_id,
                    reason="retry-exhausted",
                    detail=str(failure),
                )
            )
            return
        for seq, rows in group:
            self._point("apply.start", tenant, seq)
            events = self._apply_batch(tenant, seq, rows)
            tenant.wal.append_applied(seq, [to_json(e) for e in events])
            self._point("apply.journaled", tenant, seq)
            tenant.wal.commit()
            self._point("apply.committed", tenant, seq)
            for event in events:
                self._emit(event)
            if tenant.applied_count % self.config.checkpoint_every == 0:
                self._point("checkpoint.pre", tenant, seq)
                self._checkpoint(tenant)
                self._point("checkpoint.post", tenant, seq)

    async def _gate_with_retries(
        self, tenant: _Tenant, first: int, last: int
    ) -> None:
        """The awaitable, retryable phase preceding a group's folds."""
        attempts = 0
        while True:
            attempts += 1
            try:
                await asyncio.wait_for(
                    self._gate(tenant, first, last),
                    timeout=self.config.batch_timeout,
                )
                return
            except (TransientFault, asyncio.TimeoutError, TimeoutError):
                if attempts > self.config.max_retries:
                    raise BatchFailed(
                        tenant.tenant_id, first, last, attempts
                    ) from None
                delay = self.config.retry_base_delay * (2 ** (attempts - 1))
                await asyncio.sleep(delay)

    async def _gate(self, tenant: _Tenant, first: int, last: int) -> None:
        if self._faults is not None:
            await self._faults.gate(tenant.tenant_id, first, last)

    def _apply_batch(
        self, tenant: _Tenant, seq: int, rows: list
    ) -> list[ServiceEvent]:
        """Fold one client batch; derive its events (pure, sync).

        This is the *only* place monitor state advances, it has no
        await points, and recovery replays it verbatim — which is why
        the derived events are deterministic for a given WAL.
        """
        monitor = tenant.monitor
        assert monitor is not None
        tenant.applied_seq = seq
        events: list[ServiceEvent] = []
        for alert in monitor.extend(rows):
            events.append(
                AlertEvent(
                    tenant=tenant.tenant_id,
                    seq=seq,
                    fd=str(alert.fd),
                    confidence=alert.confidence,
                    threshold=alert.threshold,
                    num_rows=alert.num_rows,
                )
            )
        tenant.applied_count += 1
        if tenant.applied_count % self.config.drift_check_every == 0:
            for state in monitor.watched:
                verdict = classify_monitor_state(state)
                kind = verdict.kind.value
                key = str(state.fd)
                if tenant.drift_kinds.get(key, "stable") != kind:
                    tenant.drift_kinds[key] = kind
                    events.append(
                        DriftEvent(
                            tenant=tenant.tenant_id,
                            seq=seq,
                            fd=key,
                            verdict=kind,
                            statistic=verdict.statistic,
                            detail=verdict.detail,
                        )
                    )
        return events

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _checkpoint(self, tenant: _Tenant) -> None:
        payload = walmod.encode_snapshot(
            {
                "monitor": tenant.monitor,
                "applied_count": tenant.applied_count,
                "drift_kinds": dict(tenant.drift_kinds),
            }
        )
        tenant.wal.checkpoint(
            tenant.applied_seq,
            payload,
            keep_checkpoints=self.config.keep_checkpoints,
            retain_segments=self.config.retain_segments,
        )

    def _recover_tenant(
        self, tenant_id: str, *, announce: bool = True
    ) -> _Tenant:
        """Rebuild one tenant from its directory (start or un-evict)."""
        directory = self.state_dir / tenant_id
        spec_payload = json.loads(
            (directory / "spec.json").read_text(encoding="utf-8")
        )
        spec = TenantSpec.from_json(spec_payload)
        wal = walmod.TenantWal(directory, sync=self.config.sync)
        recovery = wal.recover()
        if recovery.checkpoint_payload is not None:
            state = walmod.decode_snapshot(recovery.checkpoint_payload)
            monitor = state["monitor"]
            applied_count = state["applied_count"]
            drift_kinds = dict(state.get("drift_kinds", {}))
        else:
            monitor = spec.build_monitor()
            applied_count = 0
            drift_kinds = {}
        wal.open_segment(recovery.max_seq + 1)
        existing = self._tenants.get(tenant_id)
        if existing is not None:
            tenant = existing
            tenant.wal = wal
            tenant.monitor = monitor
            tenant.resident = True
        else:
            tenant = self._make_tenant(spec, wal, monitor)
            self._tenants[tenant_id] = tenant
        tenant.accepted_seq = recovery.max_seq
        tenant.applied_seq = recovery.checkpoint_seq
        tenant.applied_count = applied_count
        tenant.drift_kinds = drift_kinds
        replayed = reemitted = 0
        deferred: list[ServiceEvent] = []
        for seq in sorted(recovery.batches):
            if seq in recovery.shed:
                continue
            events = self._apply_batch(tenant, seq, recovery.batches[seq])
            payload = [to_json(e) for e in events]
            replayed += 1
            stored = recovery.applied.get(seq)
            if stored is not None:
                # Already durably emitted: verify determinism, emit
                # nothing (neither durably nor live).
                if stored != payload:
                    raise WalCorruptError(
                        f"replay of tenant {tenant_id!r} batch {seq} derived "
                        f"different events than its applied record — "
                        f"non-deterministic state or damaged WAL"
                    )
            else:
                tenant.wal.append_applied(seq, payload)
                reemitted += 1
                deferred.extend(events)
        tenant.wal.commit()
        self._start_worker(tenant)
        for event in deferred:
            self._emit(event)
        if announce:
            self._emit(
                RecoveryEvent(
                    tenant=tenant_id,
                    checkpoint_seq=recovery.checkpoint_seq,
                    replayed=replayed,
                    reemitted=reemitted,
                    resumed_seq=recovery.max_seq + 1,
                )
            )
        self._touch(tenant)
        return tenant

    # ------------------------------------------------------------------
    # Degradation
    # ------------------------------------------------------------------
    def _total_queued(self) -> int:
        return sum(t.queue.qsize() for t in self._tenants.values())

    def _maybe_shed(self) -> None:
        high = self.config.shed_high_water
        if high is None or self._total_queued() <= high:
            return
        victims = sorted(
            (t for t in self._tenants.values() if t.queue.qsize()),
            key=lambda t: (t.spec.priority, t.tenant_id),
        )
        # Hysteresis: shed (lowest priority first) until the backlog is
        # back under the high-water mark; degraded mode then clears only
        # once the backlog falls to the low-water mark, so a tenant is
        # never shed and un-shed by the same burst.
        for tenant in victims:
            if self._total_queued() <= high:
                break
            self._shed(tenant)
        # Shedding may itself clear the backlog; re-evaluate so a shed
        # tenant with nothing left queued anywhere cannot wedge in
        # degraded mode waiting for a worker that has no work.
        self._maybe_unshed()

    def _shed(self, tenant: _Tenant) -> None:
        dropped: list[tuple[int, list]] = []
        while True:
            try:
                dropped.append(tenant.queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        if not dropped:
            return
        first, last = dropped[0][0], dropped[-1][0]
        tenant.wal.append_shed(first, last)
        tenant.wal.commit()
        self._emit(
            ShedEvent(
                tenant=tenant.tenant_id,
                first_seq=first,
                last_seq=last,
                dropped=len(dropped),
            )
        )
        if not tenant.degraded:
            tenant.degraded = True
            tenant.undegraded.clear()
            self._emit(
                DegradedEvent(
                    tenant=tenant.tenant_id,
                    reason="entered",
                    detail=f"load shed batches {first}..{last}",
                )
            )

    def _maybe_unshed(self) -> None:
        low = self.config.shed_low_water
        if low is None or self._total_queued() > low:
            return
        for tenant in self._tenants.values():
            if tenant.degraded:
                tenant.degraded = False
                tenant.undegraded.set()
                self._emit(
                    DegradedEvent(tenant=tenant.tenant_id, reason="recovered")
                )

    # ------------------------------------------------------------------
    # Resident-state bounding (LRU eviction)
    # ------------------------------------------------------------------
    def _maybe_evict(self) -> None:
        limit = self.config.max_resident
        if limit is None:
            return
        resident = [t for t in self._tenants.values() if t.resident]
        if len(resident) <= limit:
            return
        idle = sorted(
            (
                t
                for t in resident
                if not t.busy and t.queue.qsize() == 0 and not t.pending
            ),
            key=lambda t: t.last_used,
        )
        for tenant in idle[: len(resident) - limit]:
            self._evict(tenant)

    def _evict(self, tenant: _Tenant) -> None:
        self._checkpoint(tenant)
        tenant.wal.close()
        if tenant.task is not None:
            tenant.task.cancel()
            tenant.task = None
        tenant.monitor = None
        tenant.resident = False
        self._emit(
            DegradedEvent(
                tenant=tenant.tenant_id,
                reason="evicted",
                detail="resident-state limit reached; snapshot on disk",
            )
        )

    def _ensure_resident(self, tenant: _Tenant) -> None:
        if tenant.resident:
            return
        self._recover_tenant(tenant.tenant_id, announce=False)
        self._maybe_evict()

    # ------------------------------------------------------------------
    # Events & fault points
    # ------------------------------------------------------------------
    def _emit(self, event: ServiceEvent) -> None:
        self.events.append(event)
        if self._on_event is not None:
            self._on_event(event)

    def _point(self, name: str, tenant: _Tenant, seq: int) -> None:
        if self._faults is not None:
            self._faults.point(name, tenant.tenant_id, seq)
