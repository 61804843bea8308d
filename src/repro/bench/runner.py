"""Execute registered suites and assemble a :class:`BenchDocument`.

The runner is the single choke point between the registry and the schema:
``pytest benchmarks/`` and ``repro bench`` both call :func:`run_suite` /
:func:`run_suites`, so every measurement — interactive or CI — lands in the
same JSON shape with the same provenance.

Parallel execution
------------------
Suites are pure functions of (parameters, seed): every random stream is
seeded from suite parameters and no suite touches global state.  They can
therefore run in separate *processes* with no effect on the measured
numbers, and :class:`ParallelRunner` does exactly that over a
``ProcessPoolExecutor``.  The contract — enforced by test and by CI's
``bench-parallel`` job — is that the document's deterministic projection
(:func:`repro.bench.schema.strip_volatile`) is byte-identical between
``jobs=1`` and ``jobs=N``.  Which process ran a suite is recorded in the
suite's ``worker`` block, next to (not inside) the gated payload.
"""

from __future__ import annotations

import fnmatch
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Mapping, Sequence

from repro.bench.registry import SUITES, suite_names
from repro.bench.schema import BenchDocument, SuiteRun
from repro.errors import ConfigError

__all__ = ["ParallelRunner", "run_suite", "run_suites", "resolve_suites"]


def _is_glob(pattern: str) -> bool:
    return any(ch in pattern for ch in "*?[")


def resolve_suites(
    names: Sequence[str] | None, tier: str | None = None
) -> list[str]:
    """Validate requested suite names/globs (``None``/empty = all).

    Entries may be exact registered names or ``fnmatch`` glob patterns
    (``'fig_*'``, ``'ablation_?ounds'``); a pattern that matches nothing
    is an error, never a silent no-op.  With a ``tier``, an empty
    selection expands to the suites *defining* that tier (the ``stress``
    tier is opt-in); an explicit name that lacks the tier is an error
    rather than a silent skip, while a glob merely narrows to the
    pattern's tier-defining matches (erroring only when none remain).
    """
    known = suite_names()
    if not names:
        return known if tier is None else suite_names(tier)
    eligible = known if tier is None else suite_names(tier)
    selected: set[str] = set()
    for pattern in names:
        if _is_glob(pattern):
            matches = fnmatch.filter(known, pattern)
            if not matches:
                raise ConfigError(
                    f"suite pattern {pattern!r} matches no registered "
                    f"suite; choose from {known}"
                )
            tiered = [m for m in matches if m in eligible]
            if not tiered:
                raise ConfigError(
                    f"suite pattern {pattern!r} matches {matches} but "
                    f"none define tier {tier!r}; "
                    f"tier {tier!r} suites: {suite_names(tier)}"
                )
            selected.update(tiered)
        else:
            selected.add(SUITES.get(pattern).name)
    lacking = [n for n in names if not _is_glob(n) and n not in eligible]
    if lacking:
        raise ConfigError(
            f"suite(s) {lacking} do not define tier {tier!r}; "
            f"tier {tier!r} suites: {suite_names(tier)}"
        )
    # Preserve registry order, drop duplicates.
    return [n for n in known if n in selected]


def run_suite(
    name: str,
    tier: str = "quick",
    *,
    overrides: Mapping[str, Any] | None = None,
) -> SuiteRun:
    """Run one registered suite and wrap its cases in a :class:`SuiteRun`."""
    bench = SUITES.get(name)
    params = bench.params_for(tier, overrides)
    start = time.perf_counter()
    cases = bench.fn(params)
    wall = time.perf_counter() - start
    for case in cases:
        if case.wall_s == 0.0:
            case.wall_s = wall / len(cases)
    return SuiteRun(
        suite=name,
        tier=tier,
        params=dict(params),
        cases=cases,
        wall_s=wall,
        machine=_machine_block(params),
    )


def _machine_block(params: Mapping[str, Any]) -> dict[str, Any]:
    """Resolved-machine provenance for suites declaring a ``machine`` param.

    A pure function of the suite parameters (the registry resolution is
    deterministic), so the block lives in the document's gated projection.
    """
    if "machine" not in params:
        return {}
    from repro.machines import resolve_machine

    return resolve_machine(
        params["machine"], params.get("machine_overrides")
    ).describe()


def _run_suite_task(
    name: str, tier: str, overrides: Mapping[str, Any] | None
) -> SuiteRun:
    """Worker entry point: one suite, stamped with its process of origin.

    Module-level so it pickles under every multiprocessing start method.
    """
    run = run_suite(name, tier, overrides=overrides)
    run.worker = {"pid": os.getpid()}
    return run


class ParallelRunner:
    """Execute independent tasks across a process pool.

    ``jobs=1`` runs everything inline (no pool, no pickling) and is the
    default; any higher value fans tasks out over up to ``jobs`` worker
    processes.  Results always land in submission order, so the
    deterministic projection of any document built on :meth:`map_tasks`
    is independent of ``jobs``, scheduling, and completion order.

    :meth:`run` is the benchmark-suite front end; the experiment sweep
    runner (:mod:`repro.experiments.runner`) drives :meth:`map_tasks`
    directly with its own task function.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def map_tasks(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[tuple[str, tuple]],
        *,
        on_start: Callable[[str], None] | None = None,
        on_done: Callable[[str, Any], None] | None = None,
    ) -> list[Any]:
        """Run ``fn(*args)`` for every ``(label, args)`` task, in order.

        ``fn`` must be a module-level function (it is pickled under every
        multiprocessing start method).  ``on_start`` fires before each task
        in inline mode only (in pool mode tasks start concurrently);
        ``on_done`` fires in submission order as results are collected.
        """
        jobs = min(self.jobs, len(tasks)) if tasks else 1
        results: list[Any] = []
        if jobs <= 1:
            for label, args in tasks:
                if on_start is not None:
                    on_start(label)
                result = fn(*args)
                if on_done is not None:
                    on_done(label, result)
                results.append(result)
            return results
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [(label, pool.submit(fn, *args)) for label, args in tasks]
            # Collect in submission order: document layout must not depend
            # on completion order.
            for label, future in futures:
                result = future.result()
                if on_done is not None:
                    on_done(label, result)
                results.append(result)
        return results

    def run(
        self,
        names: Sequence[str] | None = None,
        tier: str = "quick",
        *,
        overrides: Mapping[str, Mapping[str, Any]] | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> BenchDocument:
        selected = resolve_suites(names, tier)
        doc = BenchDocument(tier=tier)
        total_start = time.perf_counter()
        jobs = min(self.jobs, len(selected)) if selected else 1
        if progress is not None and jobs > 1:
            progress(
                f"running {len(selected)} suites (tier={tier}) "
                f"across {jobs} worker processes ..."
            )

        def on_start(name: str) -> None:
            if progress is not None:
                progress(f"running suite {name!r} (tier={tier}) ...")

        def on_done(name: str, run: SuiteRun) -> None:
            run.worker["jobs"] = jobs
            if progress is not None:
                pid = f" (pid {run.worker['pid']})" if jobs > 1 else ""
                progress(
                    f"  {name}: {len(run.cases)} cases in "
                    f"{run.wall_s:.2f}s{pid}"
                )
            doc.suites.append(run)

        self.map_tasks(
            _run_suite_task,
            [
                (name, (name, tier, (overrides or {}).get(name)))
                for name in selected
            ],
            on_start=on_start,
            on_done=on_done,
        )
        doc.wall_s = time.perf_counter() - total_start
        return doc


def run_suites(
    names: Sequence[str] | None = None,
    tier: str = "quick",
    *,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
) -> BenchDocument:
    """Run several suites into one document.

    Parameters
    ----------
    names:
        Suite names (default: every registered suite, registry order;
        for ``tier="stress"`` the default narrows to suites defining it).
    tier:
        ``"quick"``, ``"full"``, or ``"stress"``.
    overrides:
        Optional per-suite parameter overrides, keyed by suite name.
    progress:
        Callback invoked with a one-line status per suite (the CLI passes a
        stderr printer; tests pass nothing).
    jobs:
        Worker processes.  ``1`` (default) runs inline; higher values use a
        process pool with identical modeled output.
    """
    return ParallelRunner(jobs).run(
        names, tier, overrides=overrides, progress=progress
    )


def stderr_progress(message: str) -> None:
    """Default progress sink for interactive runs."""
    print(message, file=sys.stderr, flush=True)
