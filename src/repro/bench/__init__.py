"""repro.bench — the registered, machine-readable benchmark subsystem.

The pieces:

- :mod:`repro.bench.schema` — the versioned ``bench.json`` document format.
- :mod:`repro.bench.registry` — named suites with ``quick``/``full`` tiers.
- :mod:`repro.bench.suites` — the figure/table/ablation measurement loops
  (imported lazily; they self-register).
- :mod:`repro.bench.runner` — execute suites into a document.
- :mod:`repro.bench.compare` — the regression gate between two documents.
- :mod:`repro.bench.report` — text renderings (artifacts, summaries, CI logs).

Typical use::

    from repro.bench import run_suites, compare_documents, BenchDocument

    doc = run_suites(["shootout"], tier="quick")
    doc.save("bench.json")
    baseline = BenchDocument.load("benchmarks/results/bench.json")
    report = compare_documents(baseline, doc)
    assert report.ok, report.summary()

The CLI front-end is ``python -m repro bench`` (see :mod:`repro.cli`).
"""

from repro.bench.compare import (
    DEFAULT_TOLERANCES,
    CompareReport,
    MetricDelta,
    compare_documents,
)
from repro.bench.registry import SUITES, Benchmark, register, suite_names
from repro.bench.runner import (
    ParallelRunner,
    resolve_suites,
    run_suite,
    run_suites,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchDocument,
    CaseResult,
    SchemaError,
    SuiteRun,
    strip_volatile,
    validate_document,
)

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "BenchDocument",
    "Benchmark",
    "CaseResult",
    "CompareReport",
    "DEFAULT_TOLERANCES",
    "MetricDelta",
    "ParallelRunner",
    "SchemaError",
    "SuiteRun",
    "compare_documents",
    "register",
    "resolve_suites",
    "run_suite",
    "run_suites",
    "strip_volatile",
    "suite_names",
    "validate_document",
]
