"""Service semantics: accept protocol, backpressure, degradation,
eviction, retry, and graceful restart."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    DegradedEvent,
    MonitorService,
    Overloaded,
    RecoveryEvent,
    ServiceClosedError,
    ServiceConfig,
    ShedEvent,
    TenantSpec,
    TransientFault,
    UnknownTenantError,
)

SPEC = TenantSpec(
    tenant_id="acme",
    relation="orders",
    attributes=("Region", "District", "Manager"),
    watches=(("[District] -> [Region]", 0.9),),
)

CLEAN = [["R1", "D1", "M1"], ["R2", "D2", "M2"]]
DIRTY = [["R1", "D9", "M1"], ["R2", "D9", "M2"], ["R3", "D9", "M3"]]


def run(coro):
    return asyncio.run(coro)


def config(tmp_path, **overrides):
    overrides.setdefault("sync", "none")
    return ServiceConfig(state_dir=tmp_path / "state", **overrides)


async def started(cfg, **kwargs):
    service = MonitorService(cfg, **kwargs)
    await service.start()
    return service


class TestSubmitProtocol:
    def test_accept_duplicate_buffered(self, tmp_path):
        async def scenario():
            service = await started(config(tmp_path))
            service.add_tenant(SPEC)
            assert await service.submit("acme", 1, CLEAN) == "accepted"
            assert await service.submit("acme", 1, CLEAN) == "duplicate"
            assert await service.submit("acme", 4, CLEAN) == "buffered"
            assert await service.submit("acme", 4, CLEAN) == "buffered"
            assert await service.submit("acme", 3, CLEAN) == "buffered"
            # 2 fills the gap; 3 and 4 drain from the reorder buffer.
            assert await service.submit("acme", 2, CLEAN) == "accepted"
            await service.drain()
            await service.stop()
            return service

        service = run(scenario())
        tenant = service._tenants["acme"]
        assert tenant.accepted_seq == 4
        assert not tenant.pending

    def test_unknown_tenant_and_bad_batch_id(self, tmp_path):
        async def scenario():
            service = await started(config(tmp_path))
            service.add_tenant(SPEC)
            with pytest.raises(UnknownTenantError):
                await service.submit("ghost", 1, CLEAN)
            with pytest.raises(ValueError, match="batch_id must be a positive"):
                await service.submit("acme", 0, CLEAN)
            await service.stop()

        run(scenario())

    def test_duplicate_tenant_rejected(self, tmp_path):
        async def scenario():
            service = await started(config(tmp_path))
            service.add_tenant(SPEC)
            with pytest.raises(Exception, match="already exists"):
                service.add_tenant(SPEC)
            await service.stop()

        run(scenario())

    def test_alerts_fire_through_the_service(self, tmp_path):
        async def scenario():
            seen = []
            service = await started(config(tmp_path), on_event=seen.append)
            service.add_tenant(SPEC)
            await service.submit("acme", 1, CLEAN)
            await service.submit("acme", 2, DIRTY)
            await service.drain()
            await service.stop()
            return seen

        seen = run(scenario())
        alerts = [e for e in seen if type(e).__name__ == "AlertEvent"]
        assert len(alerts) == 1
        assert alerts[0].seq == 2
        assert alerts[0].fd == "[District] -> [Region]"
        assert alerts[0].confidence < 0.9


class TestBackpressure:
    def test_nowait_rejection_carries_retry_after(self, tmp_path):
        async def scenario():
            service = await started(
                config(tmp_path, queue_capacity=1, retry_after_hint=0.25)
            )
            service.add_tenant(SPEC)
            # Stall the worker by flooding: pause its task so the queue
            # cannot drain while we overfill it.
            tenant = service._tenants["acme"]
            tenant.task.cancel()
            await service.submit("acme", 1, CLEAN)
            with pytest.raises(Overloaded) as excinfo:
                await service.submit("acme", 2, CLEAN, wait=False)
            assert excinfo.value.retry_after == 0.25
            assert "queue full" in str(excinfo.value)
            service.kill()

        run(scenario())

    def test_wait_true_blocks_until_capacity(self, tmp_path):
        async def scenario():
            service = await started(config(tmp_path, queue_capacity=1))
            service.add_tenant(SPEC)
            for batch in range(1, 8):
                status = await service.submit("acme", batch, CLEAN)
                assert status == "accepted"
            await service.drain()
            await service.stop()

        run(scenario())

    def test_reorder_buffer_full_rejects(self, tmp_path):
        async def scenario():
            service = await started(config(tmp_path, reorder_capacity=2))
            service.add_tenant(SPEC)
            assert await service.submit("acme", 3, CLEAN) == "buffered"
            assert await service.submit("acme", 4, CLEAN) == "buffered"
            with pytest.raises(Overloaded, match="reorder buffer full"):
                await service.submit("acme", 5, CLEAN)
            await service.stop()

        run(scenario())

    def test_submit_after_close_raises(self, tmp_path):
        async def scenario():
            service = await started(config(tmp_path))
            service.add_tenant(SPEC)
            await service.stop()
            with pytest.raises(ServiceClosedError):
                await service.submit("acme", 1, CLEAN)

        run(scenario())


class TestLoadShedding:
    def test_low_priority_tenant_is_shed_with_events(self, tmp_path):
        high = TenantSpec(
            tenant_id="vip",
            relation=SPEC.relation,
            attributes=SPEC.attributes,
            watches=SPEC.watches,
            priority=10,
        )
        low = TenantSpec(
            tenant_id="steerage",
            relation=SPEC.relation,
            attributes=SPEC.attributes,
            watches=SPEC.watches,
            priority=0,
        )

        async def scenario():
            service = await started(
                config(
                    tmp_path,
                    queue_capacity=16,
                    shed_high_water=4,
                    shed_low_water=2,
                )
            )
            service.add_tenant(high)
            service.add_tenant(low)
            # Stall both workers so queues only grow.
            for tenant in service._tenants.values():
                tenant.task.cancel()
            for batch in range(1, 4):
                await service.submit("vip", batch, CLEAN)
            for batch in range(1, 3):
                await service.submit("steerage", batch, CLEAN)
            shed = [e for e in service.events if isinstance(e, ShedEvent)]
            degraded = [e for e in service.events if isinstance(e, DegradedEvent)]
            assert [e.tenant for e in shed] == ["steerage"]
            assert shed[0].first_seq == 1 and shed[0].last_seq == 2
            assert [e.reason for e in degraded] == ["entered"]
            # The degraded tenant refuses immediate work...
            with pytest.raises(Overloaded, match="degraded"):
                await service.submit("steerage", 4, CLEAN, wait=False)
            # ...while the high-priority tenant keeps flowing.
            assert await service.submit("vip", 4, CLEAN) == "accepted"
            service.kill()
            return service

        service = run(scenario())
        assert service._tenants["steerage"].degraded

    def test_degraded_tenant_recovers_when_backlog_drains(self, tmp_path):
        vip = TenantSpec(
            tenant_id="vip",
            relation=SPEC.relation,
            attributes=SPEC.attributes,
            watches=SPEC.watches,
            priority=10,
        )

        async def scenario():
            service = await started(
                config(
                    tmp_path,
                    queue_capacity=16,
                    shed_high_water=3,
                    shed_low_water=1,
                )
            )
            service.add_tenant(vip)
            service.add_tenant(SPEC)
            acme = service._tenants["acme"]
            # Stall both workers so backlog builds; vip's backlog keeps
            # the total above the low-water mark after acme is shed.
            for tenant in service._tenants.values():
                tenant.task.cancel()
            for batch in range(1, 4):
                await service.submit("vip", batch, CLEAN)
            await service.submit("acme", 1, CLEAN)  # total 4 > high 3
            assert acme.degraded
            # Un-stall vip: its worker drains the backlog, and the
            # drained total lets acme recover.
            service._start_worker(service._tenants["vip"])
            await service.drain()
            assert not acme.degraded
            reasons = [
                e.reason for e in service.events if isinstance(e, DegradedEvent)
            ]
            assert reasons == ["entered", "recovered"]
            # Subsequent batches flow again (shed ones stay shed).
            service._start_worker(acme)
            assert await service.submit("acme", 2, CLEAN) == "accepted"
            await service.drain()
            service.kill()  # acme's first worker task was cancelled

        run(scenario())


class TestRetries:
    class FlakyGate:
        """Fails the first ``failures`` gate calls, then passes."""

        def __init__(self, failures):
            self.failures = failures
            self.calls = 0

        async def gate(self, tenant, first, last):
            self.calls += 1
            if self.calls <= self.failures:
                raise TransientFault(f"injected #{self.calls}")

        def point(self, name, tenant, seq):
            pass

    def test_transient_faults_are_retried_with_backoff(self, tmp_path):
        async def scenario():
            gate = self.FlakyGate(failures=2)
            service = await started(
                config(tmp_path, max_retries=3, retry_base_delay=0.001),
                faults=gate,
            )
            service.add_tenant(SPEC)
            await service.submit("acme", 1, DIRTY)
            await service.drain()
            await service.stop()
            return gate, service

        gate, service = run(scenario())
        assert gate.calls == 3  # two failures + the success
        alerts = [e for e in service.events if type(e).__name__ == "AlertEvent"]
        assert len(alerts) == 1  # retried, applied exactly once

    def test_exhausted_retries_shed_the_group(self, tmp_path):
        async def scenario():
            gate = self.FlakyGate(failures=99)
            service = await started(
                config(tmp_path, max_retries=1, retry_base_delay=0.001),
                faults=gate,
            )
            service.add_tenant(SPEC)
            await service.submit("acme", 1, DIRTY)
            await service.drain()
            await service.stop()
            return service

        service = run(scenario())
        shed = [e for e in service.events if isinstance(e, ShedEvent)]
        degraded = [e for e in service.events if isinstance(e, DegradedEvent)]
        assert len(shed) == 1 and shed[0].first_seq == 1
        assert degraded[0].reason == "retry-exhausted"
        alerts = [e for e in service.events if type(e).__name__ == "AlertEvent"]
        assert not alerts  # the batch was never applied

    def test_gate_timeout_is_retryable(self, tmp_path):
        class StallingGate:
            def __init__(self):
                self.calls = 0

            async def gate(self, tenant, first, last):
                self.calls += 1
                if self.calls == 1:
                    await asyncio.sleep(30)

            def point(self, name, tenant, seq):
                pass

        async def scenario():
            gate = StallingGate()
            service = await started(
                config(
                    tmp_path,
                    batch_timeout=0.05,
                    max_retries=2,
                    retry_base_delay=0.001,
                ),
                faults=gate,
            )
            service.add_tenant(SPEC)
            await service.submit("acme", 1, DIRTY)
            await service.drain()
            await service.stop()
            return gate, service

        gate, service = run(scenario())
        assert gate.calls == 2
        alerts = [e for e in service.events if type(e).__name__ == "AlertEvent"]
        assert len(alerts) == 1


class TestEviction:
    def make_spec(self, index):
        return TenantSpec(
            tenant_id=f"t{index}",
            relation=SPEC.relation,
            attributes=SPEC.attributes,
            watches=SPEC.watches,
        )

    def test_lru_eviction_and_transparent_restore(self, tmp_path):
        async def scenario():
            service = await started(config(tmp_path, max_resident=2))
            for index in range(3):
                service.add_tenant(self.make_spec(index))
            await service.drain()
            # Touch t1 and t2 so t0 is the LRU victim... it already is:
            # adding t2 evicted t0 (added first, idle).
            resident = sorted(
                t.tenant_id
                for t in service._tenants.values()
                if t.resident
            )
            assert resident == ["t1", "t2"]
            evicted = [
                e
                for e in service.events
                if isinstance(e, DegradedEvent) and e.reason == "evicted"
            ]
            assert [e.tenant for e in evicted] == ["t0"]
            # State survives eviction: feed t0 dirty rows after restore.
            await service.submit("t0", 1, CLEAN)
            await service.submit("t0", 2, DIRTY)
            await service.drain()
            alerts = [
                e for e in service.events if type(e).__name__ == "AlertEvent"
            ]
            assert [e.tenant for e in alerts] == ["t0"]
            # Restoring t0 pushed residents over the limit again.
            assert (
                sum(t.resident for t in service._tenants.values()) <= 2
            )
            await service.stop()

        run(scenario())


class TestRestart:
    def test_graceful_restart_replays_nothing(self, tmp_path):
        cfg = config(tmp_path)

        async def first():
            service = await started(cfg)
            service.add_tenant(SPEC)
            await service.submit("acme", 1, CLEAN)
            await service.submit("acme", 2, DIRTY)
            await service.drain()
            await service.stop()
            return service

        async def second():
            service = await started(cfg)
            state = service._tenants["acme"]
            assert state.accepted_seq == 2
            # A stale resubmission after restart still deduplicates.
            assert await service.submit("acme", 2, DIRTY) == "duplicate"
            assert await service.submit("acme", 3, CLEAN) == "accepted"
            await service.drain()
            await service.stop()
            return service

        run(first())
        service = run(second())
        recovery = [e for e in service.events if isinstance(e, RecoveryEvent)]
        assert len(recovery) == 1
        assert recovery[0].replayed == 0  # checkpointed at stop
        assert recovery[0].reemitted == 0
        assert recovery[0].resumed_seq == 3
        alerts = [e for e in service.events if type(e).__name__ == "AlertEvent"]
        assert not alerts  # batch 2's alert was emitted in life #1 only


class TestConfigValidation:
    def test_limit_knobs_validate_like_engine_config(self, tmp_path):
        with pytest.raises(
            ValueError, match="queue_capacity must be a positive integer"
        ):
            ServiceConfig(state_dir=tmp_path, queue_capacity=0)
        with pytest.raises(ValueError, match="got 'many'"):
            ServiceConfig(state_dir=tmp_path, checkpoint_every="many")
        with pytest.raises(ValueError, match="batch_timeout must be a positive"):
            ServiceConfig(state_dir=tmp_path, batch_timeout=0)
        with pytest.raises(ValueError, match="must be set together"):
            ServiceConfig(state_dir=tmp_path, shed_high_water=10)
        with pytest.raises(ValueError, match="must not exceed"):
            ServiceConfig(
                state_dir=tmp_path, shed_high_water=2, shed_low_water=5
            )
        with pytest.raises(ValueError, match="sync must be 'batch' or 'none'"):
            ServiceConfig(state_dir=tmp_path, sync="maybe")
        for name in ("batch_timeout", "retry_base_delay", "retry_after_hint"):
            for bad in (float("nan"), float("inf"), True):
                with pytest.raises(
                    ValueError, match=f"{name} must be a positive number, got"
                ):
                    ServiceConfig(state_dir=tmp_path, **{name: bad})
        for bad in (True, -1, 1.5):
            with pytest.raises(
                ValueError, match="max_retries must be a non-negative integer"
            ):
                ServiceConfig(state_dir=tmp_path, max_retries=bad)

    def test_tenant_spec_validates_id(self):
        with pytest.raises(ValueError, match="tenant_id"):
            TenantSpec(
                tenant_id="a/b",
                relation="r",
                attributes=("A",),
                watches=(),
            )
