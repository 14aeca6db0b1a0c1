"""The CB (confidence-based) FD evolution method — the paper's contribution.

System S4 in DESIGN.md.  Public API:

* :func:`extend_by_one` — Algorithm 2 (candidate generation + ranking);
* :func:`find_repairs` / :func:`find_first_repair` — Algorithm 3 (queue
  search; find-all and first-minimal-repair modes);
* :func:`find_fd_repairs` — Algorithm 1 (order 𝔽, repair each FD);
* :func:`validate_relation` / :func:`validate_catalog` — violation
  detection;
* :class:`RepairSession` — the semi-automatic designer loop;
* :class:`RepairConfig` — all the knobs of Section 4.4, including the
  goodness-threshold extension;
* :class:`EngineConfig` / :func:`use_engine` — the engine knobs (kernel
  backend, cache bounds, DC tile) and a scoped override.
"""

from .candidates import Candidate, candidate_rank_key, extend_by_one, order_key
from .config import (
    CandidateOrder,
    EngineConfig,
    GoodnessMode,
    RepairConfig,
    use_engine,
)
from .monitor import FDAlert, FDMonitor, MonitoredFD
from .objective import RepairObjective, accept_by_objective, rank_by_objective
from .repair import (
    RelationRepairReport,
    RepairSearchResult,
    find_fd_repairs,
    find_first_repair,
    find_repairs,
)
from .session import (
    Decision,
    RepairSession,
    SessionEvent,
    accept_best,
    accept_none,
)
from .validate import (
    ValidationEntry,
    ValidationReport,
    validate_catalog,
    validate_relation,
)

__all__ = [
    "Candidate",
    "CandidateOrder",
    "EngineConfig",
    "FDAlert",
    "FDMonitor",
    "MonitoredFD",
    "RepairObjective",
    "accept_by_objective",
    "order_key",
    "rank_by_objective",
    "Decision",
    "GoodnessMode",
    "RelationRepairReport",
    "RepairConfig",
    "RepairSearchResult",
    "RepairSession",
    "SessionEvent",
    "ValidationEntry",
    "ValidationReport",
    "accept_best",
    "accept_none",
    "candidate_rank_key",
    "extend_by_one",
    "find_fd_repairs",
    "find_first_repair",
    "find_repairs",
    "use_engine",
    "validate_catalog",
    "validate_relation",
]
