"""Machine-readable benchmark documents (the ``bench.json`` format).

A :class:`BenchDocument` is the canonical record of one ``repro bench``
invocation: which suites ran, at which tier, with which parameters, and
every measured case.  The text tables under ``benchmarks/results/*.txt``
are *renderings* of this document (see :mod:`repro.bench.report`); the
regression gate (:mod:`repro.bench.compare`) diffs two documents.

Determinism contract
--------------------
Everything in the document except the ``wall_*`` fields, the ``provenance``
block, and the per-suite ``worker`` block is a pure function of (code,
suite parameters, seed): metrics come from the simulated BSP machine and
the rank-space splitter engine, not from host timing.  Two runs with the
same tier on different hosts therefore produce comparable documents, which
is what lets CI gate a laptop-generated baseline.  ``wall_s`` records host
wall-clock purely as provenance and is never compared; ``worker`` records
which process executed the suite (the parallel runner's provenance).  The
per-suite ``machine`` block (resolved simulated-machine name + topology)
is provenance too, but *deterministic* — it is a pure function of the
suite parameters, so it stays in the gated projection.

:func:`strip_volatile` projects a document dict down to exactly the
deterministic subset, so "two runs agree" is a dict (or JSON) equality
check — the parallel runner's serial-equivalence gate in CI is built on it.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro._version import __version__
from repro.utils import document

__all__ = [
    "SCHEMA_VERSION",
    "CaseResult",
    "SuiteRun",
    "BenchDocument",
    "SchemaError",
    "machine_provenance",
    "strip_volatile",
    "validate_document",
]

#: Bumped on any backwards-incompatible change to the JSON layout.
SCHEMA_VERSION = 1

#: Metric value types allowed in a case (JSON scalars; bools model flags
#: like ``all_finalized``).
_METRIC_TYPES = (int, float, bool)


#: Host-dependent keys, by nesting level.  Everything else is a pure
#: function of (code, tier parameters, seed).
_VOLATILE = document.Volatile(
    ("created_unix", "provenance", "wall_s"),
    {
        "suites": document.Volatile(
            ("wall_s", "worker"), {"cases": document.Volatile(("wall_s",))}
        )
    },
)


class SchemaError(ValueError):
    """A document (or dict) does not conform to the bench JSON schema."""


def _scalar(value: Any) -> Any:
    """Coerce numpy scalars to plain JSON types; pass everything else through."""
    item = getattr(value, "item", None)  # numpy scalar / 0-d array protocol
    return item() if callable(item) else value


def _scalar_map(mapping: Mapping[str, Any]) -> dict[str, Any]:
    return {key: _scalar(value) for key, value in mapping.items()}


def machine_provenance() -> dict[str, Any]:
    """Describe the host that produced a document (informational only)."""
    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "node": platform.node(),
    }


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


@dataclass
class CaseResult:
    """One measured configuration inside a suite.

    ``name`` is unique within its suite and stable across runs — the
    comparison key.  ``params`` records the sweep coordinates (workload,
    algorithm, ``p``, …); ``metrics`` the measured values.
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "params": _scalar_map(self.params),
            "metrics": _scalar_map(self.metrics),
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CaseResult":
        return cls(
            name=data["name"],
            params=dict(data.get("params", {})),
            metrics=dict(data["metrics"]),
            wall_s=float(data.get("wall_s", 0.0)),
        )


@dataclass
class SuiteRun:
    """All cases of one suite at one tier.

    ``worker`` is execution provenance: which process ran the suite and
    under which job count (see :class:`repro.bench.runner.ParallelRunner`).
    Like ``wall_s`` it is informational — never part of the deterministic
    payload and never gated.

    ``machine`` records the *resolved* simulated machine the suite priced
    against (``{name, topology, cores_per_node}``), for suites that
    declare one via their ``machine`` tier parameter.  Unlike ``worker``
    it is a pure function of the suite parameters, so it lives in the
    deterministic payload — baselines are self-describing about the
    hardware model they encode.
    """

    suite: str
    tier: str
    params: dict[str, Any] = field(default_factory=dict)
    cases: list[CaseResult] = field(default_factory=list)
    wall_s: float = 0.0
    worker: dict[str, Any] = field(default_factory=dict)
    machine: dict[str, Any] = field(default_factory=dict)

    def case(self, name: str) -> CaseResult:
        for case in self.cases:
            if case.name == name:
                return case
        raise KeyError(f"suite {self.suite!r} has no case {name!r}")

    def metric(self, case_name: str, metric: str) -> Any:
        return self.case(case_name).metrics[metric]

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "tier": self.tier,
            "params": _scalar_map(self.params),
            "cases": [c.to_dict() for c in self.cases],
            "wall_s": self.wall_s,
            "worker": dict(self.worker),
            "machine": dict(self.machine),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuiteRun":
        return cls(
            suite=data["suite"],
            tier=data["tier"],
            params=dict(data.get("params", {})),
            cases=[CaseResult.from_dict(c) for c in data["cases"]],
            wall_s=float(data.get("wall_s", 0.0)),
            worker=dict(data.get("worker", {})),
            machine=dict(data.get("machine", {})),
        )


@dataclass
class BenchDocument(document.JsonDocument):
    """A full ``repro bench`` run: provenance plus one entry per suite."""

    error_cls = SchemaError
    volatile = _VOLATILE

    tier: str
    suites: list[SuiteRun] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION
    created_unix: float = field(default_factory=time.time)
    provenance: dict[str, Any] = field(default_factory=machine_provenance)
    wall_s: float = 0.0

    def suite(self, name: str) -> SuiteRun:
        for run in self.suites:
            if run.suite == name:
                return run
        raise KeyError(f"document has no suite {name!r}")

    def suite_names(self) -> list[str]:
        return [run.suite for run in self.suites]

    def iter_cases(self) -> Iterator[tuple[SuiteRun, CaseResult]]:
        for run in self.suites:
            for case in run.cases:
                yield run, case

    def algorithms(self) -> set[str]:
        """Distinct algorithm names measured anywhere in the document."""
        return {
            str(case.params["algorithm"])
            for _, case in self.iter_cases()
            if "algorithm" in case.params
        }

    # ------------------------------------------------------------------ #
    # (De)serialization.
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "created_unix": self.created_unix,
            "provenance": dict(self.provenance),
            "tier": self.tier,
            "wall_s": self.wall_s,
            "suites": [run.to_dict() for run in self.suites],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchDocument":
        errors = validate_document(data)
        if errors:
            raise SchemaError("; ".join(errors))
        return cls(
            tier=data["tier"],
            suites=[SuiteRun.from_dict(s) for s in data["suites"]],
            schema_version=int(data["schema_version"]),
            created_unix=float(data.get("created_unix", 0.0)),
            provenance=dict(data.get("provenance", {})),
            wall_s=float(data.get("wall_s", 0.0)),
        )


def strip_volatile(data: Mapping[str, Any]) -> dict[str, Any]:
    """Drop the fields allowed to differ between identical runs."""
    return document.strip_volatile(data, _VOLATILE)


def validate_document(data: Any) -> list[str]:
    """Return a list of human-readable schema violations (empty = valid)."""
    errors, complete = document.check_header(
        data, "document", ("schema_version", "tier", "suites"), SCHEMA_VERSION
    )
    if not complete:
        return errors
    if not isinstance(data["tier"], str):
        errors.append("tier must be a string")
    if not isinstance(data["suites"], list):
        return errors + ["suites must be a list"]
    seen_suites: set[str] = set()
    for i, run in enumerate(data["suites"]):
        where = f"suites[{i}]"
        if not isinstance(run, Mapping):
            errors.append(f"{where} must be an object")
            continue
        errors += document.missing_keys(run, where, ("suite", "tier", "cases"))
        if "suite" in run:
            if run["suite"] in seen_suites:
                errors.append(f"{where}: duplicate suite {run['suite']!r}")
            seen_suites.add(run["suite"])
        if not isinstance(run.get("worker", {}), Mapping):
            errors.append(f"{where}.worker must be an object")
        if not isinstance(run.get("machine", {}), Mapping):
            errors.append(f"{where}.machine must be an object")
        if not isinstance(run.get("cases", []), list):
            errors.append(f"{where}.cases must be a list")
            continue
        seen_cases: set[str] = set()
        for j, case in enumerate(run.get("cases", [])):
            cwhere = f"{where}.cases[{j}]"
            if not isinstance(case, Mapping):
                errors.append(f"{cwhere} must be an object")
                continue
            errors += document.missing_keys(case, cwhere, ("name", "metrics"))
            name = case.get("name")
            if name in seen_cases:
                errors.append(f"{cwhere}: duplicate case name {name!r}")
            seen_cases.add(name)
            metrics = case.get("metrics", {})
            if not isinstance(metrics, Mapping):
                errors.append(f"{cwhere}.metrics must be an object")
                continue
            for mname, value in metrics.items():
                if not isinstance(value, _METRIC_TYPES):
                    errors.append(
                        f"{cwhere}.metrics[{mname!r}] must be a number or "
                        f"bool, got {type(value).__name__}"
                    )
    return errors
