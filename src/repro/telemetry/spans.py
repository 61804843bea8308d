"""Dependency-free span tracing with explicit clocks.

:class:`TraceSink` is the one collection point for everything the system
can tell about where time went: modeled superstep/phase spans and
measured per-rank compute walls and collective waits, both projected
from a finished run result (:mod:`repro.telemetry.adapters`), job
lifecycle spans from the sort service, and chaos injections as instant
events.  Emission sites never read a clock through the sink — every
timestamp is supplied by the caller (the trace's cumulative modeled
clock, the rank segments' run-relative offsets, the daemon's run
clock), so recording is a pure function of what the caller already
measured.

Events accumulate as Chrome trace-event dicts (``ph``/``ts``/``dur``/
``pid``/``tid``/``name``/``cat``/``args``; timestamps in microseconds),
the format Perfetto and ``chrome://tracing`` load directly — see
:mod:`repro.telemetry.export` for serialization and the ASCII report.

Each logical timeline gets a fixed process id so the three stories stay
separate rows in a viewer while sharing one file:

>>> MODELED_PID, MEASURED_PID, SERVICE_PID
(1, 2, 3)

>>> sink = TraceSink()
>>> sink.complete(MODELED_PID, 0, "local sort", "compute", 0.0, 2e-3)
>>> sink.instant(MODELED_PID, 0, "kill rank 3", "chaos", 1e-3)
>>> [e["ph"] for e in sink.events]
['X', 'i']
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "TraceSink",
    "MODELED_PID",
    "MEASURED_PID",
    "SERVICE_PID",
]

#: Process id of the modeled timeline (superstep spans).
MODELED_PID = 1
#: Process id of the measured timeline (per-rank wall-clock spans).
MEASURED_PID = 2
#: Process id of the service timeline (job lifecycle spans).
SERVICE_PID = 3


def _us(seconds: float) -> float:
    """Seconds -> trace-event microseconds (fractional doubles are fine)."""
    return seconds * 1e6


class TraceSink:
    """Collects trace events; callers supply every timestamp explicitly.

    The sink is deliberately dumb: no clock reads, no threading, no I/O.
    Emitters hand it ``(start, duration)`` pairs in *seconds* on whatever
    clock they own; :mod:`repro.telemetry.export` turns the accumulated
    events into a Chrome trace file or an ASCII report.

    ``modeled_tid`` names the thread row modeled spans land on (default
    0); a sweep bumps it per cell so cells render as separate rows
    instead of overlapping on one.
    """

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        #: Thread row for modeled-timeline spans (one per sweep cell).
        self.modeled_tid = 0
        self._named: set[tuple] = set()

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------ naming #
    def process(self, pid: int, name: str) -> None:
        """Name a process row (idempotent metadata event)."""
        key = ("process", pid)
        if key in self._named:
            return
        self._named.add(key)
        self.events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "name": "process_name",
                "args": {"name": name},
            }
        )

    def thread(self, pid: int, tid: int, name: str) -> None:
        """Name a thread row (idempotent metadata event)."""
        key = ("thread", pid, tid)
        if key in self._named:
            return
        self._named.add(key)
        self.events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "name": "thread_name",
                "args": {"name": name},
            }
        )

    # ------------------------------------------------------------ events #
    def complete(
        self,
        pid: int,
        tid: int,
        name: str,
        cat: str,
        start_s: float,
        dur_s: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """One finished span: ``[start_s, start_s + dur_s]`` on ``tid``."""
        event: dict[str, Any] = {
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "name": name,
            "cat": cat,
            "ts": _us(start_s),
            "dur": _us(dur_s),
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(
        self,
        pid: int,
        tid: int,
        name: str,
        cat: str,
        ts_s: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """A zero-duration marker (chaos injections, cache probes)."""
        event: dict[str, Any] = {
            "ph": "i",
            "pid": pid,
            "tid": tid,
            "name": name,
            "cat": cat,
            "ts": _us(ts_s),
            "s": "t",  # thread-scoped marker
        }
        if args:
            event["args"] = args
        self.events.append(event)

    # -------------------------------------------------------------- flow #
    def flow(
        self,
        pid: int,
        tid: int,
        name: str,
        flow_id: int,
        ts_s: float,
        phase: str,
    ) -> None:
        """One link of a flow arrow chain: ``phase`` is ``s``/``t``/``f``.

        Chrome flow events connect spans across rows — a chain starts
        with ``s``, passes through ``t`` steps, and ends with ``f``; all
        links share ``flow_id``.  Used to tie every rank's wait on the
        same collective rendezvous together.
        """
        if phase not in ("s", "t", "f"):
            raise ValueError(f"flow phase must be s/t/f, got {phase!r}")
        self.events.append(
            {
                "ph": phase,
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": "flow",
                "id": flow_id,
                "ts": _us(ts_s),
                "bp": "e",  # bind to the enclosing slice
            }
        )
