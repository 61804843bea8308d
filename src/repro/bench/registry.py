"""Registry of parameterized benchmark suites.

Every figure/table reproduction and ablation in ``benchmarks/`` is a
:class:`Benchmark`: a measurement function plus per-tier parameter sets and
a text renderer.  The pytest files under ``benchmarks/`` and the ``repro
bench`` CLI both execute suites *through this registry*, so the JSON
document and the human-readable artifact are two views of one measurement.

Tiers
-----
``full``
    The paper-faithful operating points — what ``pytest benchmarks/``
    asserts against (minutes of runtime).
``quick``
    Scaled-down sweeps with the same structure, cheap enough for CI's
    ``bench-smoke`` gate (seconds).
``stress``
    Optional scaled-*up* sweeps (4–16x the quick tier's problem sizes) for
    suites whose engines can take it — the nightly workflow's trend view.
    Every suite must define ``quick`` and ``full``; ``stress`` is opt-in,
    and tier-filtered selection (``suite_names(tier="stress")``) returns
    only the suites that registered it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.bench.schema import CaseResult
from repro.errors import ConfigError
from repro.utils.registry import Registry

__all__ = [
    "Benchmark",
    "SUITES",
    "TIERS",
    "KNOWN_TIERS",
    "register",
    "suite_names",
]

#: Tiers every suite must define.
TIERS = ("quick", "full")
#: All tiers a suite may define (anything else is a registration typo).
KNOWN_TIERS = ("quick", "full", "stress")

#: Measurement function: params -> list of cases.
RunFn = Callable[[Mapping[str, Any]], list[CaseResult]]
#: Renderer: (cases, params) -> text artifact body.
RenderFn = Callable[[Sequence[CaseResult], Mapping[str, Any]], str]


@dataclass(frozen=True)
class Benchmark:
    """One registered suite."""

    name: str
    description: str
    kind: str  # "shootout" | "figure" | "table" | "ablation"
    tiers: Mapping[str, Mapping[str, Any]]
    fn: RunFn
    render: RenderFn
    #: Stem of the text artifact under ``benchmarks/results/`` (no suffix).
    artifact: str = ""
    #: Override-only knobs with their defaults (e.g. ``backend`` for
    #: suites that execute through ``Sorter``).  Unlike tier parameters
    #: they are *not* merged into the run's params unless explicitly
    #: overridden — the measurement and the document are byte-identical
    #: to a run that never heard of them, so adding one cannot disturb
    #: committed baselines.
    runtime_params: Mapping[str, Any] = field(default_factory=dict)

    def has_tier(self, tier: str) -> bool:
        return tier in self.tiers

    def summary_lines(self) -> list[str]:
        """This suite's row in the ``repro bench --list`` listing."""
        tiers = ",".join(t for t in KNOWN_TIERS if t in self.tiers)
        return [f"{self.name:22s} [{self.kind}] ({tiers}) {self.description}"]

    def params_for(
        self, tier: str, overrides: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        if tier not in self.tiers:
            raise ConfigError(
                f"suite {self.name!r} has no tier {tier!r}; "
                f"choose from {sorted(self.tiers)}"
            )
        params = dict(self.tiers[tier])
        if overrides:
            unknown = set(overrides) - set(params) - set(self.runtime_params)
            if unknown:
                raise ConfigError(
                    f"unknown parameter overrides for suite {self.name!r}: "
                    f"{sorted(unknown)}"
                )
            params.update(overrides)
        return params


def _load_suites() -> None:
    # Suites self-register on import; importing them only when the catalog
    # is read keeps ``import repro`` free of the measurement code.
    from repro.bench import suites  # noqa: F401


SUITES: Registry[Benchmark] = Registry("benchmark suite", loader=_load_suites)


def register(
    name: str,
    *,
    description: str,
    kind: str,
    tiers: Mapping[str, Mapping[str, Any]],
    render: RenderFn,
    artifact: str = "",
    runtime_params: Mapping[str, Any] | None = None,
) -> Callable[[RunFn], RunFn]:
    """Decorator registering a measurement function as a suite."""
    missing = [t for t in TIERS if t not in tiers]
    if missing:
        raise ConfigError(f"suite {name!r} missing tiers {missing}")
    unknown_tiers = [t for t in tiers if t not in KNOWN_TIERS]
    if unknown_tiers:
        raise ConfigError(
            f"suite {name!r} declares unknown tiers {unknown_tiers}; "
            f"choose from {list(KNOWN_TIERS)}"
        )

    def decorate(fn: RunFn) -> RunFn:
        SUITES.register(name, Benchmark(
            name=name,
            description=description,
            kind=kind,
            tiers={t: dict(p) for t, p in tiers.items()},
            fn=fn,
            render=render,
            artifact=artifact or name,
            runtime_params=dict(runtime_params or {}),
        ))
        return fn

    return decorate


def suite_names(tier: str | None = None) -> list[str]:
    """Registered suite names, optionally only those defining ``tier``."""
    return [n for n, b in SUITES.items() if tier is None or b.has_tier(tier)]
