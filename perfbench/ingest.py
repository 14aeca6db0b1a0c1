"""``ingest``: the multi-tenant monitoring service under one closed-loop client.

Set-up pre-generates each tenant's batches, starts a
:class:`MonitorService` at ``ServiceConfig`` defaults (only
``state_dir`` set) and registers the tenants.  The client submits one
batch per tenant per pass, round-robin, until the run time is used,
then calls ``drain``.  Afterwards the service is stopped and restarted
over the same state directory, and every tenant's recovered state is
checked against what was acknowledged.
"""

from __future__ import annotations

import asyncio
import os
import shutil
from pathlib import Path
from time import perf_counter

from common import (
    NullTracer,
    Outcome,
    Speedometer,
    Tracer,
    consecutive_pairs,
    dir_bytes,
    end_to_end,
    overhead_pct,
    tracer_for,
)
from repro.service.errors import Overloaded
from repro.service.events import AlertEvent, RecoveryEvent
from repro.service.harness import LoadSpec, make_batch, tenant_spec
from repro.service.service import MonitorService, ServiceConfig
from repro.service.wal import TenantWal, decode_snapshot
from repro.temporal.bridge import classify_monitor_state

TENANTS = 100
ROWS_PER_BATCH = 200
VIOLATION_RATE = 0.02
#: Distinct batches generated per tenant; batch ``b`` of a tenant
#: carries its pool entry ``(b - 1) % POOL``, so set-up cost does not
#: grow with the rate the service sustains.
POOL = 10
#: About 150 passes of 100 submits in 15 s.  Above p95 a submit's time
#: is the tail of fsync on a shared VM disk: over five runs the spread
#: of p99 was 75% of its median, against 30% for p95 and p50, too wide
#: for any bound.  So the tail is p95 (~750 submits beyond it).
TAIL_PCT = 95.0
#: Set-up builds per run (under 1 s each).
SETUPS = 5


class _Setup:
    def __init__(self, seed: int, state_dir: Path) -> None:
        spec = LoadSpec(
            tenants=TENANTS,
            batches_per_tenant=POOL,
            rows_per_batch=ROWS_PER_BATCH,
            seed=seed,
            violation_rate=VIOLATION_RATE,
        )
        self.pool = [
            [make_batch(spec, tenant, batch) for batch in range(1, POOL + 1)]
            for tenant in range(TENANTS)
        ]
        self.tenant_ids = [tenant_spec(index).tenant_id for index in range(TENANTS)]
        self.config = ServiceConfig(state_dir=state_dir)
        self.service = MonitorService(self.config)

    async def start(self) -> None:
        await self.service.start()
        for index in range(TENANTS):
            self.service.add_tenant(tenant_spec(index))

    def rows(self, tenant: int, batch: int) -> list:
        return self.pool[tenant][(batch - 1) % POOL]


async def _set_up(
    seed: int, workdir: Path, speed: Speedometer
) -> tuple[_Setup, list[float]]:
    durations: list[float] = []
    setup = None
    for index in range(SETUPS):
        if setup is not None:
            await setup.service.stop()
            shutil.rmtree(setup.config.state_dir)
        speed.probe()
        start = perf_counter()
        setup = _Setup(seed, workdir / f"ingest-{index}")
        await setup.start()
        elapsed = perf_counter() - start
        durations.append(elapsed * speed.probe(window=2))
    return setup, durations


async def _drive(
    setup: _Setup, seconds: float, trace: bool, tracer: Tracer, speed: Speedometer
):
    """The timed loop; returns everything the metrics need.  Each pass is
    scaled by the probe taken before it, the drain by the probes around
    it."""
    service, null = setup.service, NullTracer()
    latencies: list[float] = []
    flagged: list[tuple[float, bool]] = []
    refused = rejected = 0
    passes = 0
    wall = elapsed = 0.0
    while wall < seconds:
        passes += 1
        active = tracer_for(trace, passes, tracer, null)
        active.scale = factor = speed.probe()
        pass_start = perf_counter()
        pass_s = 0.0
        for tenant, tenant_id in enumerate(setup.tenant_ids):
            rows = setup.rows(tenant, passes)
            start = perf_counter()
            try:
                status = await service.submit(tenant_id, passes, rows)
            except Overloaded:
                status = "refused"
                refused += 1
            latency = (perf_counter() - start) * factor
            latencies.append(latency)
            pass_s += latency
            if status != "accepted":
                rejected += 1
        pass_wall = perf_counter() - pass_start
        wall += pass_wall
        elapsed += pass_wall * factor
        flagged.append((pass_s, active.enabled))
    speed.probe()
    drain_start = perf_counter()
    await service.drain()
    drain_s = (perf_counter() - drain_start) * speed.probe(window=2)
    return {
        "passes": passes,
        "latencies": latencies,
        "flagged": flagged,
        "refused": refused,
        "rejected": rejected,
        "elapsed": elapsed + drain_s,
        "accept_s": sum(latencies),
        "drain_s": drain_s,
    }


async def _restart(
    config: ServiceConfig, speed: Speedometer
) -> tuple[MonitorService, float]:
    service = MonitorService(config)
    speed.probe()
    start = perf_counter()
    await service.start()
    return service, (perf_counter() - start) * speed.probe(window=2)


def _recovery_failures(service: MonitorService, passes: int) -> int:
    """Every tenant must come back at ``applied_seq`` = batches, ready to
    resume at the next batch id."""
    recovered = {
        event.tenant: event
        for event in service.events
        if isinstance(event, RecoveryEvent)
    }
    failures = TENANTS - len(recovered)
    for event in recovered.values():
        applied = event.checkpoint_seq + event.replayed
        if applied != passes or event.resumed_seq != passes + 1:
            failures += 1
    return failures


def _read_back(
    setup: _Setup, passes: int, speed: Speedometer
) -> tuple[dict[str, list[float]], int]:
    """Per-tenant reads of the restarted service's checkpointed state.

    ``lookup`` locates a tenant's newest checkpoint and journal tail,
    ``scan`` materializes the whole monitor state from it, ``analytic``
    runs the drift verdict over every watched FD.  Every tenant must
    hold ``num_rows`` = tuples at ``checkpoint_seq`` = batches.
    """
    reads: dict[str, list[float]] = {"lookup": [], "scan": [], "analytic": []}
    failures = 0
    state_dir = Path(setup.config.state_dir)
    for tenant_id in setup.tenant_ids:
        factor = speed.probe()
        start = perf_counter()
        recovery = TenantWal(state_dir / tenant_id, sync=setup.config.sync).recover()
        located = perf_counter()
        monitor = decode_snapshot(recovery.checkpoint_payload)["monitor"]
        decoded = perf_counter()
        for state in monitor.watched:
            classify_monitor_state(state)
        judged = perf_counter()
        reads["lookup"].append((located - start) * factor)
        reads["scan"].append((decoded - located) * factor)
        reads["analytic"].append((judged - decoded) * factor)
        if (
            recovery.checkpoint_seq != passes
            or recovery.batches
            or monitor.num_rows != passes * ROWS_PER_BATCH
        ):
            failures += 1
    return reads, failures


def _standalone(
    setup: _Setup, passes: int, workdir: Path, tracer: Tracer, speed: Speedometer
) -> None:
    """Replay tenant 0's batches through a bare monitor and a bare WAL
    with the service's sync policy, outside the service."""
    monitor = tenant_spec(0).build_monitor()
    wal = TenantWal(workdir / "wal-probe", sync=setup.config.sync)
    wal.open_segment(1)
    try:
        for batch in range(1, passes + 1):
            rows = setup.rows(0, batch)
            tracer.scale = speed.probe()
            tracer.call("monitor.apply_ms", monitor.extend, rows)
            start = perf_counter()
            wal.append_batch(batch, rows)
            wal.commit()
            tracer.record("wal.append_ms", perf_counter() - start)
    finally:
        wal.close()


async def _run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    speed = Speedometer()
    setup, setup_times = await _set_up(seed, workdir, speed)
    tracer = Tracer()
    drive = await _drive(setup, seconds, trace, tracer, speed)
    passes = drive["passes"]
    tuples = passes * TENANTS * ROWS_PER_BATCH
    alerts = sum(isinstance(event, AlertEvent) for event in setup.service.events)
    await setup.service.stop()
    state_bytes = dir_bytes(Path(setup.config.state_dir))
    restarted, recover_s = await _restart(setup.config, speed)
    recovery_failures = _recovery_failures(restarted, passes)
    await restarted.stop()
    # Flush the checkpoints the stop just wrote, so the timed reads do
    # not race the kernel's writeback of them.
    os.sync()
    reads, read_failures = _read_back(setup, passes, speed)

    submits = len(drive["latencies"])
    attempted = submits + 1 + 2 * TENANTS  # + alert check + two per-tenant checks
    failed = drive["rejected"] + (alerts != TENANTS)
    failed += recovery_failures + read_failures
    metrics, details = end_to_end(
        speed,
        TAIL_PCT,
        setup_times,
        tuples,
        drive["elapsed"],
        drive["latencies"],
        lookup=reads["lookup"],
        analytic=reads["analytic"],
        scan=reads["scan"],
    )
    details.update(
        passes=passes,
        tuples=tuples,
        alerts=alerts,
        refused=drive["refused"],
        sync=setup.config.sync,
        drift_check_every=setup.config.drift_check_every,
        checkpoint_every=setup.config.checkpoint_every,
    )
    if trace:
        _standalone(setup, passes, workdir, tracer, speed)
        metrics.update(
            {
                "service.accept_s": drive["accept_s"],
                "service.drain_s": drive["drain_s"],
                "monitor.apply_ms": tracer.mean_ms("monitor.apply_ms"),
                "wal.append_ms": tracer.mean_ms("wal.append_ms"),
                "wal.bytes_per_tuple": state_bytes / tuples,
                "service.recover_s": recover_s,
                "trace.overhead_pct": overhead_pct(consecutive_pairs(drive["flagged"])),
            }
        )
        details["trace"] = tracer.summary()
    return Outcome(metrics, attempted, failed, details)


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    return asyncio.run(_run(seed, seconds, trace, workdir))
