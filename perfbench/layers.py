"""Layer spans for the traced run, recorded from the benchmark's own code.

:class:`LayerTracer` replaces named public functions of the ``repro``
layers with timing wrappers, records one span per call into a
:class:`repro.telemetry.TraceSink`, and puts every original back when
the traced run ends.  The untraced run installs nothing.

Per request it keeps each layer's inclusive time, self time (inclusive
minus the time of the wrapped calls nested inside it) and call count.
One request is in flight at a time, so a single call stack serves both
the client thread and the HTTP server's handler thread.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Chrome-trace process row for the benchmark's layer spans (the
#: package's own rows are 1 modeled, 2 measured, 3 service).
LAYER_PID = 4

_MISSING = object()


@dataclass
class RequestLayers:
    """Per-layer totals of one request, in seconds."""

    total_s: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    self_s: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: ``keep(result)`` of each call to a layer wrapped with ``keep``.
    kept: dict[str, list[Any]] = field(
        default_factory=lambda: defaultdict(list)
    )


class LayerTracer:
    """Wrap layer entry points; account their time per request."""

    def __init__(self, sink: Any) -> None:
        self.sink = sink
        self.epoch = time.perf_counter()
        self._owner_pid = os.getpid()
        self._patched: list[tuple[Any, str, Any]] = []
        self._stack: list[list] = []
        self.request = RequestLayers()
        sink.process(LAYER_PID, "benchmark layer spans")
        sink.thread(LAYER_PID, 0, "request")

    # -------------------------------------------------------- patching #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        keep: Callable[[Any], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording layer ``name``.

        ``keep`` extracts what the request's accounting needs from each
        return value, so that large results are not held.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # Forked process-backend workers inherit the wrapper; their
            # spans could never reach this process, so they skip it.
            if os.getpid() != tracer._owner_pid:
                return original(*args, **kwargs)
            frame = [name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if keep is not None:
                tracer.request.kept[name].append(keep(result))
            return result

        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self, layers: list[tuple]) -> Iterator["LayerTracer"]:
        """Wrap ``(owner, attr, name[, keep])`` entries for a block."""
        try:
            for entry in layers:
                self.wrap(*entry)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------ accounting #
    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"layer span {frame[0]!r} closed out of order")
        name, start, child = frame
        duration = end - start
        req = self.request
        req.total_s[name] += duration
        req.self_s[name] += duration - child
        req.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        self.sink.complete(
            LAYER_PID, 0, name, "layer", start - self.epoch, duration
        )

    def begin_request(self) -> None:
        self.request = RequestLayers()

    def end_request(self) -> RequestLayers:
        if self._stack:
            open_names = [f[0] for f in self._stack]
            raise RuntimeError(f"request ended inside layers {open_names}")
        return self.request


def _run_summary(result: Any) -> dict[str, Any]:
    """The counts and measured block of one backend ``RunResult``."""
    return {
        "supersteps": len(result.trace),
        "net_bytes": result.stats.bytes,
        "net_messages": result.stats.messages,
        "measured": result.measured,
    }


def sort_layers(backend_cls: type) -> list[tuple]:
    """The layers one ``Sorter.run`` passes through."""
    from repro.algorithms import Sorter
    from repro.bsp.engine import SuperstepResolver

    module = importlib.import_module
    return [
        (Sorter, "run", "algorithms.sorter.run"),
        (backend_cls, "run", "runtime.backend.run", _run_summary),
        (SuperstepResolver, "resolve_sweep", "bsp.resolver.sweep"),
        (
            module("repro.bsp.collectives"),
            "resolve",
            "bsp.collectives.resolve",
        ),
        # The name as repro.core.keyspace looks it up at call time.
        (
            module("repro.core.keyspace"),
            "bernoulli_sample_in_intervals",
            "sampling.sample",
        ),
        (
            module("repro.core.data_movement"),
            "partition_by_splitters",
            "core.partition",
        ),
        (
            module("repro.metrics.verify"),
            "verify_sorted_output",
            "metrics.verify",
        ),
    ]


def service_layers() -> list[tuple]:
    """The layers one HTTP sort job passes through, sort layers included."""
    from repro.experiments import Scenario
    from repro.runtime import SimulatedBackend

    daemon = importlib.import_module("repro.service.daemon")

    return [
        (daemon.SortService, "handle_line", "service.daemon.handle"),
        (Scenario, "build_dataset", "experiments.build_dataset"),
        (daemon, "workload_fingerprint", "service.fingerprint"),
        (Scenario, "execute", "experiments.execute"),
    ] + sort_layers(SimulatedBackend)


def reconcile(layers: RequestLayers, latency_s: float) -> str | None:
    """Self times of all layers must fit inside the request's latency."""
    total_self = sum(layers.self_s.values())
    if total_self > latency_s + 1e-9:
        return (
            f"layer self times sum to {total_self * 1e3:.3f} ms, more than "
            f"the request latency {latency_s * 1e3:.3f} ms"
        )
    return None
