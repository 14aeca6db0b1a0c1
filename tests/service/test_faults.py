"""The fault injector and faulty client: deterministic, seeded chaos."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    FaultInjector,
    FaultPlan,
    FaultyClient,
    MonitorService,
    ServiceConfig,
    ServiceKilled,
    TenantSpec,
    TransientFault,
    canonical_json,
    read_event_stream,
)

SPEC = TenantSpec(
    tenant_id="acme",
    relation="orders",
    attributes=("Region", "District", "Manager"),
    watches=(("[District] -> [Region]", 0.9),),
)


def run(coro):
    return asyncio.run(coro)


def batch(i):
    # District D{i%4} pairs with rotating regions: eventually violating.
    return [[f"R{i % 3}", f"D{i % 4}", "M1"] for _ in range(3)]


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="drop_rate must be in"):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError, match="hold_span"):
            FaultPlan(hold_span=0)


class TestFaultInjector:
    def gates(self, plan, rounds=30):
        injector = FaultInjector(plan)
        outcomes = []
        for seq in range(rounds):
            try:
                run(injector.gate("t", seq, seq))
                outcomes.append("ok")
            except TransientFault:
                outcomes.append("transient")
        return outcomes

    def test_gate_decisions_are_seed_deterministic(self):
        plan = FaultPlan(seed=5, transient_rate=0.3)
        first = self.gates(plan)
        second = self.gates(plan)
        assert first == second
        assert "transient" in first and "ok" in first
        assert self.gates(FaultPlan(seed=6, transient_rate=0.3)) != first

    def test_retries_reroll_the_dice(self):
        plan = FaultPlan(seed=5, transient_rate=0.5)
        injector = FaultInjector(plan)
        outcomes = []
        for _ in range(20):  # same (tenant, first) — attempt advances
            try:
                run(injector.gate("t", 1, 1))
                outcomes.append("ok")
            except TransientFault:
                outcomes.append("transient")
        assert "ok" in outcomes  # a retry loop is never doomed forever

    def test_kill_point_fires_exactly_once(self):
        plan = FaultPlan(kill_points=(("t", 3, "apply.start"),))
        injector = FaultInjector(plan)
        injector.point("apply.start", "t", 2)  # wrong seq: no fire
        injector.point("accept.start", "t", 3)  # wrong point: no fire
        with pytest.raises(ServiceKilled):
            injector.point("apply.start", "t", 3)
        injector.point("apply.start", "t", 3)  # second hit: progress


class TestFaultyClient:
    def test_channel_faults_then_flush_converge(self, tmp_path):
        plan = FaultPlan(
            seed=21, drop_rate=0.3, duplicate_rate=0.3, hold_rate=0.2
        )

        async def faulty():
            service = MonitorService(
                ServiceConfig(
                    state_dir=tmp_path / "faulty",
                    sync="none",
                    retain_segments=True,
                )
            )
            await service.start()
            service.add_tenant(SPEC)
            client = FaultyClient(service, plan)
            for i in range(1, 25):
                await client.send("acme", batch(i))
            await client.flush()
            assert client.pending == 0
            await service.drain()
            await service.stop()
            return service

        async def clean():
            service = MonitorService(
                ServiceConfig(
                    state_dir=tmp_path / "clean",
                    sync="none",
                    retain_segments=True,
                )
            )
            await service.start()
            service.add_tenant(SPEC)
            for i in range(1, 25):
                await service.submit("acme", i, batch(i))
            await service.drain()
            await service.stop()

        faulted = run(faulty())
        run(clean())
        assert faulted._tenants["acme"].accepted_seq == 24
        lossy = read_event_stream(tmp_path / "faulty" / "acme", "acme")
        oracle = read_event_stream(tmp_path / "clean" / "acme", "acme")
        assert canonical_json(lossy) == canonical_json(oracle)
