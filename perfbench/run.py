"""Wall-clock benchmark of the repro sorting stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wide-hss --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* ``setup_s`` — import, plus the median of three set-ups (input
  generation, server start, one warm-up request);
* ``latency_p50_ms`` — one ``Sorter.run`` call, or one HTTP job from
  send to parsed reply, over successful valid requests;
* ``keys_per_s`` — keys of valid requests completed per second of timed
  wall (the sum of all request latencies);
* ``error_latency_p50_ms`` — malformed requests, rejected as required;
* ``success_ratio`` — requests whose output passed every check, over
  requests attempted (``1 - failed_ratio``; the counts are printed as
  ``attempted`` and ``failed``);
* ``peak_rss_mb`` — peak RSS of this process plus its largest child.

Standard error carries the sample counts, ``jobs_per_s`` and
``latency_p90_ms`` with the number of samples beyond it.  They are not
in the result line: every workload must report every result metric, a
sort run holds too few sorts for ten samples beyond p90, and
``jobs_per_s`` is ``keys_per_s`` over a fixed job size.

``--trace 1`` repeats that untraced measurement, then runs the same
request stream again with every layer entry point wrapped, and reports
the per-layer metrics (plus ``trace.overhead_ms``, the difference of the
two runs' median latency).  The traced spans go to a Chrome trace file
under ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The run exits non-zero without printing a result when the checkout has
no ``src/repro`` package, or when a child process, a thread or a shared
memory segment started during the run is still alive at the end.
"""

from __future__ import annotations

import time

#: Process start, as near as the script can see it: setup_s counts
#: importing the package from here.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402
from layers import LayerTracer, reconcile  # noqa: E402
from workloads import WORKLOADS, Checked, make_workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Setup repeats per run; setup_s reports their median.
SETUP_REPEATS = 3
#: Hard cap on one timed loop, as a multiple of ``--seconds``.
LOOP_CAP = 2.5

#: Result-line metrics of an untraced run (``--trace 0``), with units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "keys_per_s": "keys/s",
    "error_latency_p50_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}
_TIMED_LAYERS = (
    "algorithms.sorter.run",
    "runtime.backend.run",
    "bsp.resolver.sweep",
    "bsp.collectives.resolve",
    "sampling.sample",
    "core.partition",
    "metrics.verify",
    "service.daemon.handle",
    "experiments.build_dataset",
    "service.fingerprint",
    "experiments.execute",
)
_COUNTED_LAYERS = (
    "bsp.resolver.sweep",
    "bsp.collectives.resolve",
    "sampling.sample",
    "core.partition",
)
#: Measured phase label -> metric name.
_PHASES = {
    "local sort": "runtime.phase.local_sort_ms",
    "histogramming": "runtime.phase.histogramming_ms",
    "data exchange": "runtime.phase.data_exchange_ms",
}
#: Result-line metrics of a traced run (``--trace 1``), with units.
PER_LAYER_UNITS = {
    **{f"{name}_ms": "ms" for name in _TIMED_LAYERS},
    **{f"{name}_calls": "count" for name in _COUNTED_LAYERS},
    "algorithms.sorter.other_ms": "ms",
    "runtime.backend.other_ms": "ms",
    "service.daemon.other_ms": "ms",
    "service.http.overhead_ms": "ms",
    "service.error.handle_ms": "ms",
    "runtime.broker_ms": "ms",
    "runtime.rank_compute_ms": "ms",
    "runtime.comm_wait_ms": "ms",
    **{metric: "ms" for metric in _PHASES.values()},
    "bsp.supersteps": "count",
    "bsp.net_bytes": "bytes",
    "bsp.net_messages": "count",
    "core.rounds": "count",
    "core.total_sample": "count",
    "core.imbalance": "ratio",
    "core.rounds.warm_mean": "count",
    "core.rounds.cold_mean": "count",
    "service.cache.hit_ratio": "ratio",
    "service.cache.lookups": "count",
    "trace.requests": "count",
    "trace.overhead_ms": "ms",
}


class LeakError(RuntimeError):
    """A process, thread or shared-memory segment outlived its workload."""


@dataclass
class Sample:
    """One timed request: its latency and the verdict on its output."""

    kind: str
    latency_s: float
    keys: int
    failure: str | None
    info: dict[str, Any] = field(default_factory=dict)
    layers: Any = None


# ------------------------------------------------------------------ #
@functools.cache
def import_repro() -> float:
    """Import the package from the checkout; returns seconds since start."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro
    import repro.algorithms  # noqa: F401
    import repro.service.http  # noqa: F401
    import repro.telemetry  # noqa: F401

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise FileNotFoundError(f"imported repro from {repro.__file__}")
    return time.perf_counter() - _T0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_loop(
    workload: Any, seconds: float, tracer: Any = None, sink: Any = None
) -> list[Sample]:
    """Send requests until they add up to ``seconds`` of timed work."""
    samples: list[Sample] = []
    timed = 0.0
    cap = time.perf_counter() + LOOP_CAP * seconds + 5.0
    i = 0
    while timed < seconds and time.perf_counter() < cap:
        i += 1
        req = workload.request(i)
        if tracer is not None:
            tracer.begin_request()
            sink.modeled_tid = i  # one modeled row per request
        t0 = time.perf_counter()
        try:
            out = workload.send(req, sink)
        except Exception:  # a failed request is counted, not fatal
            latency = time.perf_counter() - t0
            samples.append(Sample(req.kind, latency, req.keys,
                                  traceback.format_exc(limit=4)))
            timed += latency
            continue
        latency = time.perf_counter() - t0
        timed += latency
        layers = tracer.end_request() if tracer is not None else None
        try:
            verdict = workload.check(req, out)
        except Exception:  # e.g. a reply missing a required field
            verdict = Checked(traceback.format_exc(limit=4))
        failure = verdict.failure
        if failure is None and layers is not None:
            failure = reconcile(layers, latency)
        samples.append(Sample(req.kind, latency, req.keys, failure,
                              verdict.info, layers))
    return samples


def end_to_end(samples: list[Sample], setup_s: float) -> dict[str, float]:
    ok_valid = [s for s in samples if s.kind == "valid" and not s.failure]
    ok_error = [s for s in samples if s.kind == "error" and not s.failure]
    latencies = [s.latency_s for s in ok_valid]
    wall = sum(s.latency_s for s in samples)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": setup_s,
        "latency_p50_ms": _median(latencies) * 1e3,
        "keys_per_s": sum(s.keys for s in ok_valid) / wall if wall else 0.0,
        "error_latency_p50_ms": _median([s.latency_s for s in ok_error]) * 1e3,
        "success_ratio": (len(ok_valid) + len(ok_error)) / len(samples),
        "peak_rss_mb": (self_rss + child_rss) / 1024.0,
    }


def describe(samples: list[Sample]) -> str:
    """Sample counts plus the figures kept out of the result line."""
    latencies = [s.latency_s for s in samples
                 if s.kind == "valid" and not s.failure]
    errors = sum(s.kind == "error" for s in samples)
    wall = sum(s.latency_s for s in samples)
    p90 = float(np.percentile(latencies, 90)) if latencies else 0.0
    beyond = sum(x > p90 for x in latencies)
    return (
        f"valid={len(latencies)} errors={errors} "
        f"jobs_per_s={len(latencies) / wall if wall else 0.0:.4f} "
        f"latency_p90_ms={p90 * 1e3:.4f} ({beyond} beyond)"
    )


def per_layer(
    samples: list[Sample],
    untraced_p50_ms: float,
    cache: tuple[int, int],
) -> dict[str, float]:
    """Per-request medians of each layer over the traced run's requests.

    A layer's ``_ms`` and ``_calls`` values are medians over the valid
    requests that called it (0 when none did), so a layer that only some
    requests use, such as sampling on the service's warm-started jobs, is
    still measured.  The ``other_ms`` remainders and the counts are
    medians over all valid requests.
    """
    valid = [s for s in samples if s.kind == "valid" and not s.failure]
    errors = [s for s in samples if s.kind == "error" and not s.failure]

    def med(fn, among=valid) -> float:
        return _median([float(fn(s)) for s in among])

    def runs(s: Sample) -> list[Any]:
        return s.layers.kept.get("runtime.backend.run", [])

    def measured(s: Sample, fn) -> float:
        blocks = (r["measured"] for r in runs(s))
        return sum(fn(m) for m in blocks if m.rank_compute_s)

    def broker(m: Any) -> float:
        return m.wall_s - max(
            c + w for c, w in zip(m.rank_compute_s, m.rank_comm_wait_s)
        )

    def mean_rounds(hit: bool) -> float:
        rounds = [s.info["rounds"] for s in valid
                  if s.info.get("rounds") is not None
                  and s.info["cache_hit"] is hit]
        return statistics.fmean(rounds) if rounds else 0.0

    def info(key: str) -> float:
        values = [s.info[key] for s in valid if s.info.get(key) is not None]
        return _median([float(v) for v in values])

    out: dict[str, float] = {}
    for name in _TIMED_LAYERS:
        callers = [s for s in valid if s.layers.calls[name]]
        out[f"{name}_ms"] = med(
            lambda s: s.layers.total_s[name] * 1e3, callers
        )
        if name in _COUNTED_LAYERS:
            out[f"{name}_calls"] = med(lambda s: s.layers.calls[name], callers)
    for layer, metric in (
        ("algorithms.sorter.run", "algorithms.sorter.other_ms"),
        ("runtime.backend.run", "runtime.backend.other_ms"),
        ("service.daemon.handle", "service.daemon.other_ms"),
    ):
        out[metric] = med(lambda s: s.layers.self_s[layer] * 1e3)
    handled = "service.daemon.handle"
    out["service.http.overhead_ms"] = med(
        lambda s: (s.latency_s - s.layers.total_s[handled]) * 1e3,
        [s for s in valid if s.layers.calls[handled]],
    )
    out["service.error.handle_ms"] = med(
        lambda s: s.layers.total_s[handled] * 1e3, errors
    )
    out["runtime.broker_ms"] = med(lambda s: measured(s, broker) * 1e3)
    out["runtime.rank_compute_ms"] = med(
        lambda s: measured(s, lambda m: m.compute_s) * 1e3
    )
    out["runtime.comm_wait_ms"] = med(
        lambda s: measured(s, lambda m: m.comm_wait_s) * 1e3
    )
    for phase, metric in _PHASES.items():
        out[metric] = med(
            lambda s: measured(s, lambda m: m.phase_wall_s.get(phase, 0.0))
            * 1e3
        )
    for count in ("supersteps", "net_bytes", "net_messages"):
        out[f"bsp.{count}"] = med(lambda s: sum(r[count] for r in runs(s)))
    out["core.rounds"] = info("rounds")
    out["core.total_sample"] = info("total_sample")
    out["core.imbalance"] = info("imbalance")
    out["core.rounds.warm_mean"] = mean_rounds(True)
    out["core.rounds.cold_mean"] = mean_rounds(False)
    hits, misses = cache
    out["service.cache.lookups"] = float(hits + misses)
    out["service.cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    out["trace.requests"] = float(len(valid))
    out["trace.overhead_ms"] = (
        _median([s.latency_s for s in valid]) * 1e3 - untraced_p50_ms
    )
    return out


def traced_run(
    workload: Any, name: str, seed: int, seconds: float
) -> tuple[list[Sample], tuple[int, int]]:
    """The request stream again, every layer wrapped; writes the trace."""
    from repro.telemetry import (
        TraceSink,
        load_chrome_trace,
        write_chrome_trace,
    )

    sink = TraceSink()
    tracer = LayerTracer(sink)
    hits0, misses0 = workload.cache_counts()
    workload.start_trace(sink)
    try:
        with tracer.installed(workload.layers()):
            samples = timed_loop(workload, seconds, tracer, sink)
    finally:
        workload.stop_trace()
    hits1, misses1 = workload.cache_counts()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}.trace.json"
    events = write_chrome_trace(sink, str(path))
    load_chrome_trace(str(path))  # raises ValueError on a malformed trace
    print(f"perfbench: {events} trace events -> {path}", file=sys.stderr)
    return samples, (hits1 - hits0, misses1 - misses0)


# ------------------------------------------------------------ hygiene #
def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _child_pids() -> list[int]:
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # the process ended while we looked
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append(int(entry))
    return children


def check_leaks(shm_before: set[str]) -> None:
    """Fail when anything the workload started is still around."""
    import multiprocessing
    from multiprocessing import resource_tracker

    problems = []
    leaked = sorted(_shm_names() - shm_before)
    if leaked:
        problems.append(f"shared-memory segments left in /dev/shm: {leaked}")
    alive = multiprocessing.active_children()
    if alive:
        problems.append(f"child processes still alive: {alive}")
    deadline = time.monotonic() + 5.0
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread()]
    if threads:
        problems.append(f"threads still alive: {threads}")
    # The shared-memory resource tracker is a helper process that
    # multiprocessing starts on first use; stop it and wait for it here
    # so that nothing this run started outlives it.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    stray = _child_pids()
    if stray:
        problems.append(f"child processes still running: {stray}")
    if problems:
        raise LeakError("; ".join(problems))


# ------------------------------------------------------- entry points #
def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> dict[str, Any]:
    """One benchmark run; returns the result object printed last.

    ``tiny`` swaps in the smoke test's small inputs.
    """
    import_s = import_repro()
    shm_before = _shm_names()
    workload = make_workload(name, seed, tiny)
    try:
        setups = []
        checked = []
        for _ in range(SETUP_REPEATS):
            workload.close()
            t0 = time.perf_counter()
            warm_req, warm_out = workload.setup()
            setups.append(time.perf_counter() - t0)
            checked.append(workload.check(warm_req, warm_out).failure)
        setup_s = import_s + statistics.median(setups)
        samples = timed_loop(workload, seconds)
        metrics = end_to_end(samples, setup_s)
        print(f"perfbench: {name} untraced {describe(samples)}",
              file=sys.stderr)
        if trace:
            traced, cache = traced_run(workload, name, seed, seconds)
            print(f"perfbench: {name} traced {describe(traced)}",
                  file=sys.stderr)
            samples += traced
            metrics = per_layer(traced, metrics["latency_p50_ms"], cache)
    finally:
        workload.close()
    del workload
    check_leaks(shm_before)

    failures = [f for f in checked if f] + [s.failure for s in samples
                                            if s.failure]
    for failure in failures[:5]:
        print(f"perfbench: {name}: {failure.strip()}", file=sys.stderr)
    print(f"perfbench: {name} seed={seed} trace={int(trace)} "
          f"failed={len(failures)}", file=sys.stderr)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": not failures,
        "attempted": len(samples) + len(checked),
        "failed": len(failures),
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (FileNotFoundError, LeakError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
