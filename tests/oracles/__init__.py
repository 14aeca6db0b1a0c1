"""Test oracles: independent or retired implementations the suites
compare the product's single engine per job against.

* :mod:`.rowdict` — the row-at-a-time SQL interpreter (vs the columnar
  executor);
* :mod:`.tane` — distinct-count FD discovery (vs stripped-partition
  TANE);
* :mod:`.monitor` — batch re-assessment of a stream prefix (vs the
  incremental FD monitor).

The DC side needs no module of its own: the one-shot composition
``mine_denial_constraints(build_evidence_set(...))`` is the oracle for
the sample-then-verify discovery loop.
"""
