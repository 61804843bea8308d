"""TraceSink primitives: event shapes, stacks, flows, naming."""

import pytest

from repro.telemetry import (
    MEASURED_PID,
    MODELED_PID,
    SERVICE_PID,
    TraceSink,
)


class TestPidMap:
    def test_fixed_timeline_pids(self):
        # The pid map is part of the file format: saved traces from
        # different versions must land rows in the same places.
        assert (MODELED_PID, MEASURED_PID, SERVICE_PID) == (1, 2, 3)


class TestCompleteEvents:
    def test_complete_span_shape(self):
        sink = TraceSink()
        sink.complete(1, 0, "local sort", "compute", 0.5, 0.25)
        (event,) = sink.events
        assert event["ph"] == "X"
        assert event["name"] == "local sort"
        assert event["cat"] == "compute"
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(0.25e6)
        assert (event["pid"], event["tid"]) == (1, 0)

    def test_args_attached_only_when_given(self):
        sink = TraceSink()
        sink.complete(1, 0, "a", "compute", 0.0, 1.0)
        sink.complete(1, 0, "b", "compute", 1.0, 1.0, args={"k": 2})
        assert "args" not in sink.events[0]
        assert sink.events[1]["args"] == {"k": 2}

    def test_timestamps_are_microseconds(self):
        sink = TraceSink()
        sink.complete(1, 0, "x", "compute", 2.0, 3.0)
        assert sink.events[0]["ts"] == pytest.approx(2_000_000.0)
        assert sink.events[0]["dur"] == pytest.approx(3_000_000.0)


class TestInstantEvents:
    def test_instant_is_thread_scoped(self):
        sink = TraceSink()
        sink.instant(1, 0, "kill rank 3", "chaos", 0.125)
        (event,) = sink.events
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert event["ts"] == pytest.approx(125_000.0)


class TestMetadata:
    def test_process_and_thread_names_emit_once(self):
        sink = TraceSink()
        for _ in range(3):
            sink.process(1, "modeled")
            sink.thread(1, 0, "cell")
        metadata = [e for e in sink.events if e["ph"] == "M"]
        assert [e["name"] for e in metadata] == [
            "process_name",
            "thread_name",
        ]
        assert metadata[0]["args"] == {"name": "modeled"}

    def test_same_tid_on_other_pid_is_distinct(self):
        sink = TraceSink()
        sink.thread(1, 0, "cell")
        sink.thread(2, 0, "rank 0")
        assert len([e for e in sink.events if e["ph"] == "M"]) == 2


class TestFlow:
    def test_flow_chain_phases(self):
        sink = TraceSink()
        sink.flow(2, 0, "rendezvous", 7, 0.1, "s")
        sink.flow(2, 1, "rendezvous", 7, 0.1, "t")
        sink.flow(2, 2, "rendezvous", 7, 0.1, "f")
        assert [e["ph"] for e in sink.events] == ["s", "t", "f"]
        assert {e["id"] for e in sink.events} == {7}
        # Binding point 'enclosing' keeps arrows inside the wait spans.
        assert all(e["bp"] == "e" for e in sink.events)

    def test_flow_rejects_unknown_phase(self):
        sink = TraceSink()
        with pytest.raises(ValueError, match="flow phase"):
            sink.flow(2, 0, "rendezvous", 7, 0.1, "x")


class TestZeroOverheadContract:
    def test_spans_module_never_reads_a_clock(self):
        # The design rule the whole telemetry plane leans on: emission
        # sites supply every timestamp, so disabled telemetry cannot
        # perturb committed baselines through hidden clock reads.
        import inspect

        import repro.telemetry.spans as spans
        import repro.telemetry.metrics as metrics

        for module in (spans, metrics):
            source = inspect.getsource(module)
            assert "import time" not in source, module.__name__
        assert "perf_counter" not in inspect.getsource(metrics)
