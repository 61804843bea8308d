"""Command-line interface: ``python -m repro <command>``.

Thirteen subcommands:

``sort``
    Generate a workload, sort it with any registered algorithm on any
    registered machine — on any registered execution backend
    (``--backend process`` runs ranks on real cores) — and report
    rounds/samples/imbalance/phase breakdown (a
    :class:`~repro.algorithms.SortRun` summary).

``algorithms``
    List every algorithm in the plugin registry with its typed-config
    keys, capability flags and paper section.

``machines``
    List every machine in the plugin registry with its topology,
    alpha/beta/gamma constants and provenance note.

``backends``
    List every execution backend in the plugin registry
    (:mod:`repro.runtime`).

``workloads``
    List every workload in the plugin registry
    (:mod:`repro.workloads`) with its paper section and, for
    record-carrying workloads, its declared record schema.

``chaos``
    List every registered fault plan (:mod:`repro.chaos`) with its
    straggler/drop/kill knobs.  Plans apply through ``--chaos PLAN`` on
    ``sort``/``sweep``, on whichever ``--backend`` the run uses.

``sweep``
    Expand an algorithm x workload x machine x layout grid, run every
    cell through the standard Sorter plumbing (``--jobs N`` fans cells
    over a process pool), and emit a versioned ``experiment.json`` plus a
    text report (see :mod:`repro.experiments`).

``table``
    Print an analytic table (``5.1`` or the intro sample-size example).

``simulate``
    Run the rank-space splitter-phase simulator at large ``p`` and report
    per-round statistics (the Table 6.1 / Fig 3.1 views).

``bench``
    Run the registered benchmark suites (see :mod:`repro.bench`) at the
    ``quick`` or ``full`` tier, write the machine-readable JSON document,
    and optionally gate against a baseline document (non-zero exit on
    regression) — the CI entry point.

``serve``
    Run the resident sort service (see :mod:`repro.service`): JSONL sort
    jobs on stdin, one JSONL reply per job on stdout, with a splitter
    cache that warm-starts repeat workloads.  ``--http PORT`` serves the
    same jobs over localhost HTTP instead.

``calibrate``
    Run the deterministic calibration design of experiments on a real
    backend (``thread`` by default), fit the cost model's
    alpha/beta/gamma constants by non-negative least squares, and emit
    the ``local-calibrated`` machine spec with a provenance block (see
    :mod:`repro.calibrate`).  ``--dry-run`` prints the DoE table;
    ``--out spec.json`` writes the spec for ``REPRO_MACHINE_PATH``.

``trace``
    Render a Chrome trace-event JSON file captured with ``--trace``
    (see :mod:`repro.telemetry`) as the ASCII timeline report —
    validation failures are usage errors, so the subcommand doubles as
    a trace linter.

The execution options shared by
``sort``/``sweep``/``bench``/``serve``/``calibrate``
(``--machine``, ``--backend``, ``--workers``, ``--payloads``, the
``sort``/``sweep``-only ``--chaos``, and the
``sort``/``sweep``/``serve`` ``--trace``) are defined once in
:data:`_EXECUTION_OPTIONS` and attached through one argparse parent
parser (:func:`execution_options`), so their spelling and help text
cannot drift between subcommands.

Examples
--------
::

    python -m repro sort --algorithm hss -p 16 -n 50000 \
        --workload lognormal --eps 0.05 --machine cloud-ethernet
    python -m repro sort --algorithm histogram --workload staircase \
        --payloads index
    python -m repro sort -p 8 -n 500000 --backend process --workers 4
    python -m repro sort --workload drifting-mixture --chaos stragglers
    python -m repro chaos
    python -m repro algorithms
    python -m repro machines
    python -m repro backends
    python -m repro workloads
    python -m repro sweep --algorithms hss,sample-regular \
        --workloads uniform,staircase --machines laptop,mira-like-bgq \
        --jobs 2 --json experiment.json
    python -m repro sweep --algorithms hss --workloads changa-dwarf \
        --payloads none --payloads workload
    python -m repro table 5.1
    python -m repro simulate --procs 32768 --keys-per-proc 100000 --eps 0.02
    python -m repro bench --tier quick --json bench.json \
        --baseline benchmarks/results/bench.json
    python -m repro bench --baseline old.json --candidate new.json
    printf '%s\n' '{"id": "j1", "scenario": {"algorithm": "hss", \
        "workload": "uniform", "procs": 8, "keys_per_rank": 20000}}' \
        | python -m repro serve
    python -m repro serve --http 8642 --machine cloud-ethernet
    python -m repro calibrate --dry-run
    python -m repro calibrate --backend thread --repeats 5 --trim 1 \
        --out local.json
    python -m repro sort --backend process --trace sort-trace.json
    python -m repro trace sort-trace.json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

__all__ = ["main", "build_parser", "execution_options"]

#: The catalog listings ``repro <command>``: (command, registry as
#: ``module:attribute``, help).  Each entry renders its own
#: ``summary_lines()``.
_LISTINGS = (
    ("algorithms", "repro.algorithms:REGISTRY",
     "list registered algorithms, capabilities and config keys"),
    ("machines", "repro.machines:MACHINES",
     "list registered machines, topologies and constants"),
    ("backends", "repro.runtime:BACKENDS",
     "list registered execution backends"),
    ("workloads", "repro.workloads:WORKLOAD_SPECS",
     "list registered workloads, paper sections and record schemas"),
    ("chaos", "repro.chaos:FAULT_PLANS",
     "list registered fault plans (--chaos)"),
)

#: Sentinel: "this subcommand does not take the option at all" (``None``
#: is a meaningful default — e.g. ``repro serve`` injecting no machine).
_OMIT = object()

#: The canonical definitions of the execution options shared by
#: ``repro sort``/``sweep``/``bench``/``serve``/``calibrate``.  Exactly
#: one spelling,
#: metavar and help string per flag — subcommands pick a subset (and a
#: per-command *default*) through :func:`execution_options`, never their
#: own ``add_argument`` call.  Pinned by the CLI agreement test.
_EXECUTION_OPTIONS: dict[str, dict] = {
    "machine": {
        "flags": ("--machine",),
        "metavar": "NAME",
        "help": "registered machine name (see 'repro machines')",
    },
    "backend": {
        "flags": ("--backend",),
        "metavar": "NAME",
        "help": "execution backend (see 'repro backends'); 'process' "
                "runs ranks on real cores, and modeled metrics are "
                "identical on any backend",
    },
    "workers": {
        "flags": ("--workers",),
        "type": int,
        "metavar": "N",
        "help": "workers for the thread backend (threads) or the "
                "process backend (processes); default: min(p, cpu count)",
    },
    "payloads": {
        "flags": ("--payloads",),
        "metavar": "SCHEMA",
        "help": "record payload columns: 'none' (key-only), 'workload' "
                "(the workload's declared record schema), a compact "
                "schema like 'mass:f8,id:u4', or 'index' (tracer input "
                "positions; 'repro sort' only); repeatable in "
                "'repro sweep' to add grid-axis values",
    },
    "chaos": {
        "flags": ("--chaos",),
        "metavar": "PLAN",
        "help": "registered fault plan injected into the run on the "
                "chosen backend (see 'repro chaos'); fault metrics join "
                "the modeled metrics, and faults the plan injects are "
                "reported, not fatal",
    },
    "trace": {
        "flags": ("--trace",),
        "metavar": "OUT.json",
        "help": "write a Chrome trace-event JSON file of the run "
                "(modeled supersteps, per-rank measured spans, "
                "service job lifecycle); open "
                "in Perfetto / chrome://tracing, or render with "
                "'repro trace OUT.json'",
    },
}


def execution_options(
    *,
    machine: object = _OMIT,
    backend: object = _OMIT,
    workers: object = _OMIT,
    payloads: object = _OMIT,
    chaos: object = _OMIT,
    trace: object = _OMIT,
    payloads_repeatable: bool = False,
) -> argparse.ArgumentParser:
    """An argparse *parent parser* carrying the shared execution options.

    Each keyword both selects its option and supplies the subcommand's
    default value; spelling, metavar, value type and help text always
    come from :data:`_EXECUTION_OPTIONS`, so the five subcommands that
    share these flags cannot drift apart.  ``payloads_repeatable`` turns
    ``--payloads`` into an appending grid axis (``repro sweep``).
    """
    parent = argparse.ArgumentParser(add_help=False)

    def add(name: str, default: object, **extra: object) -> None:
        spec = _EXECUTION_OPTIONS[name]
        kwargs = {k: v for k, v in spec.items() if k != "flags"}
        kwargs.update(extra)
        parent.add_argument(*spec["flags"], default=default, **kwargs)

    if machine is not _OMIT:
        add("machine", machine)
    if backend is not _OMIT:
        add("backend", backend)
    if workers is not _OMIT:
        add("workers", workers)
    if payloads is not _OMIT:
        if payloads_repeatable:
            add("payloads", payloads, action="append", dest="payloads")
        else:
            add("payloads", payloads)
    if chaos is not _OMIT:
        add("chaos", chaos)
    if trace is not _OMIT:
        add("trace", trace)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Histogram Sort with Sampling (SPAA 2019) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sort = sub.add_parser(
        "sort",
        help="sort a generated workload",
        parents=[execution_options(
            machine="laptop", backend="simulated",
            workers=None, payloads="none", chaos="", trace=None,
        )],
    )
    sort.add_argument(
        "--algorithm",
        default="hss",
        help="algorithm name (see 'repro algorithms')",
    )
    sort.add_argument(
        "-p", "--procs", type=int, default=16, help="simulated ranks"
    )
    sort.add_argument(
        "-n", "--keys", type=int, default=20_000, help="keys per rank"
    )
    sort.add_argument(
        "--distribution",
        "--workload",
        default="uniform",
        help="workload name (see 'repro workloads')",
    )
    sort.add_argument("--eps", type=float, default=0.05)
    sort.add_argument("--seed", type=int, default=0)
    sort.add_argument(
        "--tag-duplicates",
        action="store_true",
        help="apply §4.3 implicit tagging (HSS variants only)",
    )

    for command, _, help_text in _LISTINGS:
        sub.add_parser(command, help=help_text)

    sweep = sub.add_parser(
        "sweep",
        help="run an algorithm x workload x machine x layout grid",
        parents=[execution_options(
            backend="simulated", payloads=None, payloads_repeatable=True,
            chaos="", trace=None,
        )],
    )
    sweep.add_argument(
        "--algorithms",
        required=True,
        help="comma-separated algorithm names (see 'repro algorithms')",
    )
    sweep.add_argument(
        "--workloads",
        required=True,
        help="comma-separated workload names (see 'repro workloads')",
    )
    sweep.add_argument(
        "--machines",
        default="laptop",
        help="comma-separated machine names (see 'repro machines')",
    )
    sweep.add_argument(
        "--layouts",
        default="flat",
        help="comma-separated rank layouts: flat (1 rank/endpoint) and/or "
        "node (keep the machine's multicore structure)",
    )
    sweep.add_argument(
        "-p", "--procs", default="8",
        help="comma-separated simulated rank counts",
    )
    sweep.add_argument(
        "-n", "--keys", default="1000",
        help="comma-separated keys-per-rank values",
    )
    sweep.add_argument("--eps", type=float, default=0.05)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run cells across N worker processes (default 1 = inline; "
        "modeled metrics are identical at any job count)",
    )
    sweep.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        help="write the run's ExperimentDocument JSON here",
    )
    sweep.add_argument(
        "--report",
        dest="report_path",
        metavar="PATH",
        help="also write the text report to this file",
    )

    table = sub.add_parser("table", help="print an analytic table")
    table.add_argument("which", choices=["5.1", "intro"])
    table.add_argument("--procs", type=int, default=100_000)
    table.add_argument("--eps", type=float, default=0.05)

    sim = sub.add_parser("simulate", help="rank-space splitter simulation")
    sim.add_argument("--procs", type=int, default=32_768)
    sim.add_argument("--keys-per-proc", type=int, default=100_000)
    sim.add_argument("--eps", type=float, default=0.02)
    sim.add_argument("--oversample", type=float, default=5.0)
    sim.add_argument("--rounds", type=int, default=0,
                     help="fixed geometric rounds (0 = constant oversampling)")
    sim.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help="run registered benchmark suites / gate regressions",
        parents=[execution_options(backend=None)],
    )
    bench.add_argument(
        "--tier",
        choices=["quick", "full", "stress"],
        default=None,
        help="parameter tier: quick (CI seconds, the default), full "
        "(paper-faithful), or stress (scaled beyond full; only suites "
        "registering the tier run)",
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run suites across N worker processes (default 1 = inline; "
        "modeled metrics are identical at any job count)",
    )
    bench.add_argument(
        "--suite",
        action="append",
        dest="suites",
        metavar="NAME",
        help="suite to run — an exact name or a glob pattern like "
        "'fig_*' or 'ablation_*' (repeatable; default: all registered "
        "suites; a pattern matching nothing is an error)",
    )
    bench.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        help="write the run's BenchDocument JSON here",
    )
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        help="gate against this baseline document (exit 1 on regression)",
    )
    bench.add_argument(
        "--candidate",
        metavar="PATH",
        help="compare this document against --baseline instead of running "
        "suites (pure file-vs-file gate)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list registered suites and exit"
    )
    bench.add_argument(
        "--tol-makespan",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed relative makespan increase (default 0.10)",
    )
    bench.add_argument(
        "--tol-bytes",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed relative network-bytes increase (default 0.05)",
    )
    bench.add_argument(
        "--tol-messages",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed relative network-messages increase (default 0.05)",
    )
    bench.add_argument(
        "--verbose", action="store_true", help="print every gated delta"
    )

    serve = sub.add_parser(
        "serve",
        help="run the resident sort service (JSONL in, JSONL replies out)",
        parents=[execution_options(machine=None, backend=None, trace=None)],
    )
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve localhost HTTP on 127.0.0.1:PORT instead of "
        "stdin/stdout (POST /sort, GET /healthz, GET /stats); "
        "PORT 0 binds an ephemeral port (printed to stderr)",
    )
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=64,
        metavar="N",
        help="splitter-cache LRU bound: remembered workload fingerprints "
        "(default 64)",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=8,
        metavar="N",
        help="maximum consecutive same-fingerprint jobs grouped into one "
        "warm-chained batch (default 8)",
    )
    serve.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="warning",
        metavar="LEVEL",
        help="stderr log level for the 'repro.service' logger (default "
        "warning; 'info' emits one structured JSON line per job: id, "
        "fingerprint prefix, cache source, rounds, latency)",
    )

    calibrate = sub.add_parser(
        "calibrate",
        help="fit machine constants from a local DoE run",
        parents=[execution_options(backend="thread", workers=None)],
    )
    calibrate.add_argument(
        "--profile",
        default="default",
        metavar="NAME",
        help="DoE profile: 'default' (the calibration grid) or 'tiny' "
        "(the seconds-scale CI smoke grid)",
    )
    calibrate.add_argument(
        "--seed", type=int, default=0,
        help="DoE seed; same seed => byte-identical cell inputs",
    )
    calibrate.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timed runs per cell after warmup (default 3)",
    )
    calibrate.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help="untimed warmup runs per cell (default 1)",
    )
    calibrate.add_argument(
        "--trim", type=int, default=0, metavar="N",
        help="outlier samples dropped from each end per phase "
        "(default 0; requires repeats > 2*N)",
    )
    calibrate.add_argument(
        "--name",
        default="local-calibrated",
        metavar="NAME",
        help="registry name for the emitted machine spec "
        "(default 'local-calibrated')",
    )
    calibrate.add_argument(
        "--baseline",
        default="laptop",
        metavar="NAME",
        help="preset the report compares fitted constants against "
        "(default 'laptop')",
    )
    calibrate.add_argument(
        "--out",
        metavar="PATH",
        help="write the emitted MachineSpec JSON here (name it on "
        "REPRO_MACHINE_PATH to resolve the spec in later invocations)",
    )
    calibrate.add_argument(
        "--dry-run",
        action="store_true",
        help="print the DoE cell table and exit without running anything",
    )

    trace = sub.add_parser(
        "trace",
        help="render a Chrome trace-event JSON file as an ASCII timeline",
    )
    trace.add_argument(
        "path",
        metavar="TRACE.json",
        help="trace file written by 'repro sort/sweep/serve --trace'",
    )
    return parser


def _make_trace_sink(args: argparse.Namespace):
    """A fresh :class:`TraceSink` when ``--trace`` was given, else None."""
    if not getattr(args, "trace", None):
        return None
    from repro.telemetry import TraceSink

    return TraceSink()


def _write_trace(sink, path: str) -> bool:
    """Persist a captured trace; reports the outcome on stderr."""
    from repro.telemetry import write_chrome_trace

    try:
        count = write_chrome_trace(sink, path)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    print(
        f"wrote {count} trace events to {path} "
        f"(open in Perfetto / chrome://tracing, or 'repro trace {path}')",
        file=sys.stderr,
    )
    return True


def _cmd_sort(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.errors import BSPError, ConfigError, VerificationError
    from repro.experiments import Scenario

    # ConfigError covers unknown names, bad sizes, bad config keys and
    # capability violations (CapabilityError subclasses it): usage
    # errors, exit 2 with the message — never a traceback.  A failed
    # verification, in the run (hss's strict check) or after it, is the
    # run's result: exit 1 with the message.
    trace_sink = _make_trace_sink(args)
    try:
        scenario = Scenario(
            algorithm=args.algorithm,
            workload=args.distribution,
            machine=args.machine,
            procs=args.procs,
            keys_per_rank=args.keys,
            eps=args.eps,
            seed=args.seed,
            layout="node",
            backend=args.backend,
            payloads="" if args.payloads in ("none", "index") else args.payloads,
            chaos=args.chaos,
        )
        dataset = scenario.build_dataset()
        if args.payloads == "index":
            dataset = dataset.with_index_payloads()
        run, _ = scenario.execute(
            dataset=dataset,
            trace_sink=trace_sink,
            workers=args.workers,
            knobs={"tag_duplicates": True} if args.tag_duplicates else None,
        )
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BSPError as exc:
        if not args.chaos:
            raise
        # The fault plan did its job: report the detection, exit cleanly
        # with a non-zero code (the fault is the run's result).
        detail = getattr(exc, "chaos", None)
        print(f"injected fault detected: {exc}", file=sys.stderr)
        if detail is not None:
            print(f"fault provenance   : {detail}", file=sys.stderr)
        return 1
    if trace_sink is not None and not _write_trace(trace_sink, args.trace):
        return 2
    from repro.metrics import verify_sorted_output

    try:
        verify_sorted_output(
            dataset.shards, run.shards, sorted_inputs=lambda: dataset.sorted_keys
        )
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    if args.payloads == "index":
        # Tracer payloads are global input positions: output key i must
        # equal the input key its payload points at, on every rank.
        flat_input = np.concatenate(dataset.shards)
        for keys, payload in zip(run.shards, run.payloads):
            if payload is None:
                if len(keys):
                    print("payload round-trip FAILED: payloads dropped",
                          file=sys.stderr)
                    return 1
                continue
            if not np.array_equal(flat_input[payload], keys):
                print("payload round-trip FAILED", file=sys.stderr)
                return 1
    total = args.procs * args.keys
    print(
        f"{args.algorithm}: sorted {total:,} {args.distribution} keys on "
        f"{args.procs} ranks ({run.machine['name']} machine, "
        f"{run.machine['topology']} topology)"
    )
    print(f"imbalance         : {run.imbalance:.4f} (budget {1 + args.eps:g})")
    if run.splitter_stats is not None:
        stats = run.splitter_stats
        print(f"rounds            : {stats.num_rounds}")
        print(
            f"total sample      : {stats.total_sample} keys "
            f"({stats.total_sample / total:.2e} of input)"
        )
    if run.payloads is not None:
        carried = sum(len(v) for v in run.payloads if v is not None)
        if args.payloads == "index":
            print(
                f"payloads          : {carried:,} values verified aligned "
                f"with their keys"
            )
        else:
            schema = dataset.record_schema
            print(
                f"payloads          : {carried:,} records carried "
                f"({schema.compact() if schema is not None else '?'})"
            )
    print(f"modeled makespan  : {run.makespan:.3e} s")
    chaos_info = getattr(run.measured, "chaos", None)
    if chaos_info is not None:
        print(
            f"chaos             : plan {chaos_info['plan']!r} "
            f"(seed {chaos_info['seed']}): {chaos_info['stragglers']} "
            f"stragglers (+{chaos_info['delay_injected_s']:.2e} s), "
            f"{chaos_info['retries']} retries, "
            f"slowdown {chaos_info['slowdown']:.2f}x vs fault-free"
        )
    measured = run.measured
    if measured is not None:
        print(
            f"measured wall     : {measured.wall_s:.3f} s on backend "
            f"{run.backend!r} ({measured.workers} workers; compute "
            f"{measured.compute_s:.3f} s, collective wait "
            f"{measured.comm_wait_s:.3f} s)"
        )
    print(
        f"network           : {run.engine_result.stats.messages:,} messages, "
        f"{run.engine_result.stats.bytes:,} bytes"
    )
    print()
    print(run.breakdown().table())
    return 0


def _cmd_listing(registry_path: str) -> int:
    """Print every entry of a registry through its ``summary_lines()``."""
    import importlib

    from repro.errors import ConfigError

    module, _, attr = registry_path.partition(":")
    registry = getattr(importlib.import_module(module), attr)
    try:
        for entry in registry.values():
            print("\n".join(entry.summary_lines()))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _split_csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.runner import stderr_progress
    from repro.errors import ConfigError
    from repro.experiments import ExperimentRunner, render_experiment

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.trace and args.jobs > 1:
        print(
            "--trace runs cells inline; use --jobs 1 (trace sinks do "
            "not cross the process pool)",
            file=sys.stderr,
        )
        return 2
    try:
        procs = [int(p) for p in _split_csv(args.procs)]
        keys = [int(n) for n in _split_csv(args.keys)]
    except ValueError as exc:
        print(f"bad -p/-n value: {exc}", file=sys.stderr)
        return 2
    trace_sink = _make_trace_sink(args)
    try:
        doc = ExperimentRunner(args.jobs).sweep(
            algorithms=_split_csv(args.algorithms),
            workloads=_split_csv(args.workloads),
            machines=_split_csv(args.machines),
            layouts=_split_csv(args.layouts),
            procs=procs,
            keys_per_rank=keys,
            eps=args.eps,
            seed=args.seed,
            backend=args.backend,
            payloads=args.payloads,
            chaos=args.chaos,
            progress=stderr_progress,
            trace_sink=trace_sink,
        )
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if trace_sink is not None and not _write_trace(trace_sink, args.trace):
        return 2
    if args.json_path:
        try:
            doc.save(args.json_path)
        except OSError as exc:
            print(f"cannot write {args.json_path}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.json_path}", file=sys.stderr)
    text = render_experiment(doc)
    if args.report_path:
        try:
            from pathlib import Path

            Path(args.report_path).write_text(text + "\n")
        except OSError as exc:
            print(f"cannot write {args.report_path}: {exc}", file=sys.stderr)
            return 2
    print(text)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == "5.1":
        from repro.theory.complexity import render_table_5_1

        print(render_table_5_1(p=args.procs, eps=args.eps))
    else:
        from repro.theory.sample_sizes import (
            format_bytes,
            sample_bytes,
            sample_size_hss,
            sample_size_random,
            sample_size_regular,
        )

        p, eps = args.procs, args.eps
        n = p * 1e6
        print(f"Sample sizes at p={p:,}, eps={eps:g}, N/p=1e6, 8-byte keys:")
        for name, keys in (
            ("sample sort (regular)", sample_size_regular(p, eps)),
            ("sample sort (random) ", sample_size_random(p, n, eps)),
            ("HSS one round        ", sample_size_hss(p, eps, 1, constant=2.0)),
            ("HSS two rounds       ", sample_size_hss(p, eps, 2, constant=2.0)),
        ):
            print(f"  {name}: {format_bytes(sample_bytes(keys))}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.config import HSSConfig
    from repro.core.rankspace import RankSpaceSimulator
    from repro.theory.rounds import round_bound_constant_oversampling

    if args.rounds > 0:
        cfg = HSSConfig.k_rounds(args.rounds, eps=args.eps, seed=args.seed)
        schedule_desc = f"geometric, k={args.rounds}"
    else:
        cfg = HSSConfig.constant_oversampling(
            args.oversample, eps=args.eps, seed=args.seed
        )
        schedule_desc = f"constant oversampling {args.oversample:g}p/round"

    n = args.procs * args.keys_per_proc
    stats = RankSpaceSimulator(n, args.procs, cfg).run()
    print(
        f"splitter determination: p={args.procs:,}, N={n:.3e}, "
        f"eps={args.eps:g} ({schedule_desc})"
    )
    print(
        f"rounds: {stats.num_rounds}  finalized: {stats.all_finalized}  "
        f"total sample: {stats.total_sample:,} keys "
        f"({stats.total_sample / args.procs:.1f} per part)"
    )
    if args.rounds == 0:
        bound = round_bound_constant_oversampling(
            args.procs, args.eps, args.oversample
        )
        print(f"paper round bound (§6.2): {bound}")
    print()
    print(f"{'round':>5} {'prob':>10} {'sample':>9} {'G_j before':>14} "
          f"{'open':>7} {'max width':>11}")
    for r in stats.rounds:
        print(
            f"{r.round_index:>5} {r.probability:>10.2e} {r.sample_size:>9,} "
            f"{r.candidate_mass_before:>14,} {r.open_intervals_after:>7} "
            f"{r.max_interval_width_after:>11.0f}"
        )
    return 0


def _bench_tolerances(args: argparse.Namespace) -> dict[str, float]:
    overrides: dict[str, float] = {}
    if args.tol_makespan is not None:
        overrides["makespan_s"] = args.tol_makespan
        overrides["total_s"] = args.tol_makespan
    if args.tol_bytes is not None:
        overrides["net_bytes"] = args.tol_bytes
    if args.tol_messages is not None:
        overrides["net_messages"] = args.tol_messages
    return overrides


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        SUITES,
        BenchDocument,
        SchemaError,
        compare_documents,
        resolve_suites,
        run_suites,
    )
    from repro.bench.report import render_comparison, render_document
    from repro.bench.runner import stderr_progress
    from repro.errors import ConfigError

    if args.list:
        return _cmd_listing("repro.bench:SUITES")

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    try:
        selected = resolve_suites(
            args.suites, args.tier if args.candidate is None else None
        )
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    overrides = None
    if args.backend is not None and args.candidate is None:
        from repro.runtime import BACKENDS

        try:
            BACKENDS.get(args.backend)
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        supporting = [
            n for n in selected
            if "backend" in SUITES[n].runtime_params
        ]
        if not supporting:
            print(
                "--backend applies to none of the selected suites (no "
                "'backend' runtime param); Sorter-driven suites such as "
                "'shootout' support it",
                file=sys.stderr,
            )
            return 2
        overrides = {n: {"backend": args.backend} for n in supporting}

    # Reject an unreadable baseline up front — never *after* a (possibly
    # minutes-long, full-tier) measurement run.
    baseline = None
    if args.baseline is not None:
        try:
            baseline = BenchDocument.load(args.baseline)
        except (OSError, SchemaError) as exc:
            print(f"cannot load baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
        if args.candidate is None and baseline.tier != (args.tier or "quick"):
            print(
                f"baseline {args.baseline} is tier {baseline.tier!r} but this "
                f"run is tier {args.tier or 'quick'!r}; the documents would "
                f"be incomparable",
                file=sys.stderr,
            )
            return 2
        if args.suites:
            # The user deliberately selected a subset; gate only those
            # suites (an unrestricted run still flags baseline suites that
            # went missing).  Both checks happen *before* any measurement.
            baseline.suites = [
                run for run in baseline.suites if run.suite in set(selected)
            ]
            if not baseline.suites:
                # Gating against nothing would be a vacuous green.
                print(
                    f"baseline {args.baseline} contains none of the "
                    f"selected suites {selected}; nothing to gate",
                    file=sys.stderr,
                )
                return 2

    if args.candidate is not None:
        if baseline is None:
            print("--candidate requires --baseline", file=sys.stderr)
            return 2
        # File-vs-file mode runs nothing, so run-only flags are mistakes,
        # not no-ops.
        if (
            args.json_path is not None
            or args.tier is not None
            or args.jobs != 1
            or args.backend is not None
        ):
            print(
                "--json/--tier/--jobs/--backend have no effect with "
                "--candidate (nothing is run)",
                file=sys.stderr,
            )
            return 2
        try:
            doc = BenchDocument.load(args.candidate)
        except (OSError, SchemaError) as exc:
            print(f"cannot load candidate {args.candidate}: {exc}", file=sys.stderr)
            return 2
        if baseline.tier != doc.tier:
            # Same usage error as the run-mode tier precheck — exit 2, not
            # the regression code.
            print(
                f"baseline tier {baseline.tier!r} != candidate tier "
                f"{doc.tier!r}; the documents are incomparable",
                file=sys.stderr,
            )
            return 2
        if args.suites:
            # Restrict the file-vs-file gate to the requested suites.
            doc.suites = [
                run for run in doc.suites if run.suite in set(selected)
            ]
    else:
        tier = args.tier if args.tier is not None else "quick"
        doc = run_suites(
            selected,
            tier=tier,
            overrides=overrides,
            progress=stderr_progress,
            jobs=args.jobs,
        )
        if args.json_path:
            try:
                doc.save(args.json_path)
            except OSError as exc:
                print(f"cannot write {args.json_path}: {exc}", file=sys.stderr)
                return 2
            print(f"wrote {args.json_path}", file=sys.stderr)
        print(render_document(doc))

    if baseline is None:
        return 0
    report = compare_documents(
        baseline, doc, tolerances=_bench_tolerances(args)
    )
    print()
    print(render_comparison(report, verbose=args.verbose))
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.errors import ConfigError
    from repro.service import SortService

    # The structured per-job log: one JSON line per job on stderr at
    # 'info' and above, so stdout stays pure JSONL replies.
    logger = logging.getLogger("repro.service")
    logger.setLevel(getattr(logging, args.log_level.upper()))
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.propagate = False

    trace_sink = _make_trace_sink(args)
    # SortService validates the service-wide defaults eagerly — a typo'd
    # machine name is a usage error (exit 2), not one error reply per job.
    try:
        service = SortService(
            machine=args.machine,
            backend=args.backend,
            cache_capacity=args.cache_capacity,
            batch_max=args.batch_max,
            trace_sink=trace_sink,
        )
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.http is not None:
        from repro.service.http import make_server

        try:
            server = make_server(service, port=args.http)
        except (ConfigError, OSError) as exc:
            print(f"cannot serve HTTP: {exc}", file=sys.stderr)
            return 2
        host, port = server.server_address[:2]
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"(POST /sort, GET /healthz, GET /stats, GET /metrics; "
            f"Ctrl-C to stop)",
            file=sys.stderr,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        if trace_sink is not None and not _write_trace(
            trace_sink, args.trace
        ):
            return 2
        return 0

    # Stream mode: JSONL jobs on stdin, one JSONL reply per job on
    # stdout.  Malformed jobs yield structured error replies and the
    # stream keeps going, so the exit code reflects only daemon health.
    summary = service.process_stream(sys.stdin, sys.stdout)
    cache = summary["cache"]
    print(
        f"repro serve: {summary['jobs_total']} jobs "
        f"({summary['errors_total']} errors); splitter cache "
        f"{cache['hits']} hits / {cache['misses']} misses "
        f"({cache['size']}/{cache['capacity']} entries, "
        f"{cache['evictions']} evictions)",
        file=sys.stderr,
    )
    if trace_sink is not None and not _write_trace(trace_sink, args.trace):
        return 2
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.calibrate import (
        build_spec,
        design_cells,
        emit_spec,
        extract_features,
        fit_constants,
        measure_cells,
        render_doe_table,
        render_report,
    )
    from repro.errors import ConfigError

    try:
        cells = design_cells(seed=args.seed, profile=args.profile)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.dry_run:
        print(render_doe_table(cells))
        return 0

    try:
        print(
            f"repro calibrate: measuring {len(cells)} cells on "
            f"{args.backend!r} (warmup={args.warmup}, "
            f"repeats={args.repeats}, trim={args.trim})...",
            file=sys.stderr,
        )
        measurements = measure_cells(
            cells,
            backend=args.backend,
            workers=args.workers,
            warmup=args.warmup,
            repeats=args.repeats,
            trim=args.trim,
        )
        features = extract_features(cells)
        # CalibrationError subclasses ConfigError, so an unidentifiable
        # constant lands in the same exit-2 path with its naming message.
        fit = fit_constants(features, measurements)
        spec = emit_spec(
            build_spec(
                fit,
                name=args.name,
                doe_seed=args.seed,
                profile=args.profile,
                backend=args.backend,
                workers=args.workers,
                warmup=args.warmup,
                repeats=args.repeats,
                trim=args.trim,
            ),
            out=args.out,
        )
        report = render_report(
            features, measurements, fit, baseline_name=args.baseline
        )
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(report)
    print()
    print(f"registered machine {spec.name!r}")
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import load_chrome_trace, validate_chrome_trace
    from repro.telemetry.export import render_timeline

    try:
        events = load_chrome_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        validate_chrome_trace(events)
    except ValueError as exc:
        print(f"{args.path}: invalid trace: {exc}", file=sys.stderr)
        return 2
    try:
        print(render_timeline(events))
    except BrokenPipeError:
        # Downstream closed early (`repro trace t.json | head`); that is
        # its prerogative, not an error.  Detach stdout so the interpreter
        # shutdown flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "sort":
        return _cmd_sort(args)
    for command, registry_path, _ in _LISTINGS:
        if args.command == command:
            return _cmd_listing(registry_path)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
