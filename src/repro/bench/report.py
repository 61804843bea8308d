"""Human-readable renderings of bench documents and comparisons.

``benchmarks/results/*.txt`` artifacts are produced by each suite's
registered renderer from the *same* :class:`CaseResult` data that lands in
``bench.json`` — :func:`render_suite` is the bridge.  :func:`render_document`
summarizes a whole run and :func:`render_comparison` formats the regression
gate's verdict for CI logs.
"""

from __future__ import annotations

from repro.bench.compare import CompareReport
from repro.bench.registry import SUITES
from repro.bench.schema import BenchDocument, SuiteRun
from repro.perf.report import format_series_table

__all__ = ["render_suite", "render_document", "render_comparison"]


def render_suite(run: SuiteRun) -> str:
    """Render one suite's cases as its text-table artifact body."""
    bench = SUITES.get(run.suite)
    return bench.render(run.cases, run.params)


def render_document(doc: BenchDocument) -> str:
    """One summary table for a whole run (suite, cases, headline walls)."""
    names = doc.suite_names()
    rows = {
        "tier": [doc.suite(n).tier for n in names],
        "cases": [len(doc.suite(n).cases) for n in names],
        "wall (s)": [round(doc.suite(n).wall_s, 2) for n in names],
    }
    header = (
        f"repro bench — tier={doc.tier}, {len(doc.suites)} suites, "
        f"{sum(len(s.cases) for s in doc.suites)} cases, "
        f"{len(doc.algorithms())} algorithms, wall {doc.wall_s:.1f}s"
    )
    prov = doc.provenance
    if prov:
        header += (
            f"\n(python {prov.get('python', '?')}, numpy "
            f"{prov.get('numpy', '?')}, {prov.get('platform', '?')})"
        )
    return header + "\n\n" + format_series_table("suite", names, rows)


def render_comparison(report: CompareReport, *, verbose: bool = False) -> str:
    """Format the regression gate's outcome for terminal/CI output."""
    lines = [report.summary()]
    for suite in report.missing_suites:
        lines.append(f"  missing suite: {suite}")
    for case in report.missing_cases:
        lines.append(f"  missing case: {case}")
    for metric in report.missing_metrics:
        lines.append(f"  missing gated metric: {metric}")
    for delta in report.regressions:
        lines.append(f"  REGRESSED {delta.describe()}")
    if report.improvements:
        lines.append("improvements:")
        for delta in report.improvements:
            lines.append(f"  {delta.describe()}")
    if report.new_suites:
        lines.append(
            "new suites (not in baseline, not gated — refresh the baseline): "
            + ", ".join(report.new_suites)
        )
    if report.new_cases:
        lines.append(f"new cases (not gated): {len(report.new_cases)}")
        if verbose:
            for case in report.new_cases:
                lines.append(f"  + {case}")
    if verbose and report.deltas:
        lines.append("all gated deltas:")
        for delta in report.deltas:
            if delta.gated:
                lines.append(f"  {delta.describe()}")
    return "\n".join(lines)
