"""The crash-recovery oracle: a service killed and restarted mid-stream
produces a durable event stream *byte-identical* to an uninterrupted
run's — alerts neither lost nor duplicated — on both kernel backends.

The faulted run suffers, on a fixed seed: dropped/duplicated/held
client batches, injected transient faults in the gate (retried with
backoff), and hard kills at accept-, apply- and checkpoint-side
durability points.  After every kill the test loop starts
a fresh service incarnation on the same state directory, the client
resubmits everything unacknowledged, and the stream converges.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.relational import kernels
from repro.service import (
    FaultInjector,
    FaultPlan,
    FaultyClient,
    MonitorService,
    ServiceConfig,
    ServiceKilled,
    canonical_json,
    read_event_stream,
)
from repro.service.harness import LoadSpec, make_batch, tenant_spec

LOAD = LoadSpec(
    tenants=3, batches_per_tenant=15, rows_per_batch=30, violation_rate=0.08
)

PLAN = FaultPlan(
    seed=13,
    transient_rate=0.15,
    drop_rate=0.1,
    duplicate_rate=0.15,
    hold_rate=0.1,
    kill_points=(
        ("tenant-0000", 4, "accept.journaled"),
        ("tenant-0001", 6, "accept.committed"),
        ("tenant-0002", 7, "apply.start"),
        ("tenant-0000", 9, "apply.journaled"),
        ("tenant-0001", 11, "apply.committed"),
        ("tenant-0002", 12, "checkpoint.pre"),
        ("tenant-0000", 14, "checkpoint.post"),
    ),
)

BACKENDS = ["python"] + (["numpy"] if kernels.numpy_available() else [])


def config(state_dir):
    return ServiceConfig(
        state_dir=state_dir,
        retain_segments=True,
        sync="none",
        checkpoint_every=5,
        drift_check_every=5,
        retry_base_delay=0.001,
        batch_timeout=0.5,
        queue_capacity=4,
    )


async def run_oracle(state_dir):
    """The uninterrupted reference run."""
    service = MonitorService(config(state_dir))
    await service.start()
    for index in range(LOAD.tenants):
        service.add_tenant(tenant_spec(index))
    for batch in range(1, LOAD.batches_per_tenant + 1):
        for index in range(LOAD.tenants):
            await service.submit(
                tenant_spec(index).tenant_id,
                batch,
                make_batch(LOAD, index, batch),
            )
    await service.drain()
    await service.stop()
    return service


async def run_faulted(state_dir):
    """Kill/restart loop driving the same workload through the chaos."""
    injector = FaultInjector(PLAN)
    client = None
    sent = dict.fromkeys(range(LOAD.tenants), 0)
    incarnations = 0
    while True:
        incarnations += 1
        assert incarnations < 50, "fault schedule failed to converge"
        service = MonitorService(config(state_dir), faults=injector)
        await service.start()
        if client is None:
            for index in range(LOAD.tenants):
                service.add_tenant(tenant_spec(index))
            client = FaultyClient(service, PLAN)
        else:
            client.rebind(service)
        try:
            await client.flush()
            for batch in range(1, LOAD.batches_per_tenant + 1):
                for index in range(LOAD.tenants):
                    if sent[index] < batch:
                        await client.send(
                            tenant_spec(index).tenant_id,
                            make_batch(LOAD, index, batch),
                        )
                        sent[index] = batch
            await client.flush()
            if client.pending:
                continue  # converging: a held/dropped batch remains
            await service.drain()
            await service.stop()
            return incarnations
        except (ServiceKilled, Exception) as error:
            if not service.crashed.is_set():
                raise
            # Crashed incarnation: loop restarts on the same state dir.
            del error


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_recovery_stream_is_byte_identical(tmp_path, backend):
    with kernels.use_backend(backend):
        asyncio.run(run_oracle(tmp_path / "oracle"))
        incarnations = asyncio.run(run_faulted(tmp_path / "faulted"))
    assert incarnations > len(PLAN.kill_points) // 2  # kills actually fired
    for index in range(LOAD.tenants):
        tenant_id = tenant_spec(index).tenant_id
        oracle = read_event_stream(tmp_path / "oracle" / tenant_id, tenant_id)
        faulted = read_event_stream(
            tmp_path / "faulted" / tenant_id, tenant_id
        )
        assert oracle, f"oracle stream for {tenant_id} is empty"
        assert canonical_json(faulted) == canonical_json(oracle)


@pytest.mark.parametrize("backend", BACKENDS)
def test_oracle_itself_is_deterministic(tmp_path, backend):
    with kernels.use_backend(backend):
        asyncio.run(run_oracle(tmp_path / "a"))
        asyncio.run(run_oracle(tmp_path / "b"))
    for index in range(LOAD.tenants):
        tenant_id = tenant_spec(index).tenant_id
        first = read_event_stream(tmp_path / "a" / tenant_id, tenant_id)
        second = read_event_stream(tmp_path / "b" / tenant_id, tenant_id)
        assert canonical_json(first) == canonical_json(second)


def test_fsync_mode_round_trips(tmp_path):
    """The sync="batch" (fsync) path recovers identically."""

    async def scenario(sync):
        state_dir = tmp_path / sync
        service = MonitorService(
            ServiceConfig(
                state_dir=state_dir, sync=sync, retain_segments=True
            )
        )
        await service.start()
        service.add_tenant(tenant_spec(0))
        for batch in range(1, 6):
            await service.submit(
                tenant_spec(0).tenant_id, batch, make_batch(LOAD, 0, batch)
            )
        await service.drain()
        service.kill()  # crash without checkpoint
        replayer = MonitorService(
            ServiceConfig(
                state_dir=state_dir, sync=sync, retain_segments=True
            )
        )
        await replayer.start()
        await replayer.stop()
        tenant_id = tenant_spec(0).tenant_id
        return read_event_stream(state_dir / tenant_id, tenant_id)

    batch_stream = asyncio.run(scenario("batch"))
    none_stream = asyncio.run(scenario("none"))
    assert canonical_json(batch_stream) == canonical_json(none_stream)
