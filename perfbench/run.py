"""The repository benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable table and
the run's provenance come before it, and the full record is written to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("evolve", "ingest", "query")

#: Each of these silently switches an engine (kernel backend, morsel
#: workers, optimizer, sketches, DC tiling, bench smoke sizes); the
#: benchmark measures the package defaults, so they are removed.
ENGINE_ENV_VARS = (
    "REPRO_BACKEND",
    "REPRO_WORKERS",
    "REPRO_OPTIMIZE",
    "REPRO_APPROX",
    "REPRO_DC_TILE",
    "REPRO_BENCH_SMOKE",
)


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    return arguments


def _provenance(seed: int, removed: list[str]) -> dict:
    import numpy

    from repro.relational import kernels, parallel

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.active_backend_name(),
        "workers": parallel.effective_workers(),
        "removed_env": removed,
    }


def main() -> int:
    arguments = _arguments()
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SOURCE}", file=sys.stderr)
        return 2
    removed = [name for name in ENGINE_ENV_VARS if os.environ.pop(name, None)]
    sys.path.insert(0, str(SOURCE))
    provenance = _provenance(arguments.seed, removed)
    workload = importlib.import_module(arguments.workload)
    common = importlib.import_module("common")
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = workload.run(
            arguments.seed, arguments.seconds, bool(arguments.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    table = common.PER_LAYER if arguments.trace else common.END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in table
    }
    error_rate = outcome.failed / outcome.attempted
    record = {
        "workload": arguments.workload,
        "trace": arguments.trace,
        "seconds": arguments.seconds,
        "provenance": provenance,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": error_rate,
        "metrics": metrics,
        "details": outcome.details,
    }
    path = RESULTS / (
        f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}.json"
    )
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {arguments.workload}  {json.dumps(provenance)}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    print(f"  {'error_rate':<36} {error_rate:>14.4f} ratio")
    print(f"  record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
