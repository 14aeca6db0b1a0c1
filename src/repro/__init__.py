"""repro — reproduction of *Semi-automatic support for evolving functional
dependencies* (Mazuran, Quintarelli, Tanca, Ugolini; EDBT 2016).

The library implements the paper's CB (confidence-based) method for
detecting and evolving violated functional dependencies, every substrate
it needs (a from-scratch in-memory relational engine, a mini SQL layer,
data generators for the paper's synthetic and real workloads), the EB
(entropy-based) baseline of Section 5, a TANE-style discovery
alternative, and a benchmark harness that regenerates every table and
figure of the paper's evaluation.

Quickstart::

    from repro import places_catalog, RepairSession

    session = RepairSession(places_catalog())
    for event in session.run("Places"):
        print(event)

Package map (see DESIGN.md for the full inventory):

==================  ====================================================
``repro.relational``  columnar relation engine, catalog, CSV I/O
``repro.sql``         SELECT COUNT(DISTINCT …) parser/executor
``repro.fd``          FD model: confidence, goodness, clusterings
``repro.core``        the CB repair method (Algorithms 1–3) + sessions
``repro.eb``          the entropy-based baseline + ε measures
``repro.discovery``   levelwise AFD discovery (the rejected alternative)
``repro.dc``          denial constraints + discover-then-relax ([16])
``repro.datarepair``  extensional repair: deletion, update, CQA
``repro.advisor``     §6.3: FD-derived indexes + query rewrites
``repro.temporal``    temporal FDs, drift detection, evolution loop
``repro.design``      closure, keys, BCNF/3NF from evolved FDs
``repro.datagen``     TPC-H DBGEN substitute, Places, dataset simulators
``repro.bench``       experiment runners for Tables 1–8 and Figure 3
==================  ====================================================
"""

from .core import (
    Candidate,
    EngineConfig,
    GoodnessMode,
    RepairConfig,
    RepairSession,
    extend_by_one,
    find_fd_repairs,
    find_first_repair,
    find_repairs,
    use_engine,
    validate_catalog,
    validate_relation,
)
from .datagen import places_catalog, places_relation
from .fd import FunctionalDependency, assess, confidence, fd, goodness, order_fds
from .relational import (
    Attribute,
    AttributeType,
    Catalog,
    Relation,
    RelationSchema,
    load_csv,
    save_csv,
)

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "AttributeType",
    "Candidate",
    "Catalog",
    "EngineConfig",
    "FunctionalDependency",
    "GoodnessMode",
    "Relation",
    "RelationSchema",
    "RepairConfig",
    "RepairSession",
    "__version__",
    "assess",
    "confidence",
    "extend_by_one",
    "fd",
    "find_fd_repairs",
    "find_first_repair",
    "find_repairs",
    "goodness",
    "load_csv",
    "order_fds",
    "places_catalog",
    "places_relation",
    "save_csv",
    "use_engine",
    "validate_catalog",
    "validate_relation",
]

# The REPRO_* engine variables are read once per process: importing the
# package installs them (a bad value fails the import).
EngineConfig.from_env().activate()
