"""Adapters between existing metric surfaces and the telemetry plane.

Covers the replay/live parity guarantee (``Trace.to_spans`` equals what
the resolver emitted during the run), the measured projections, chaos
instants, and the backend-parity + zero-overhead contracts from the
backend registry: every backend's *modeled* span subtree is identical,
and running traced changes nothing about the modeled result.
"""

import pytest

from repro.algorithms import Dataset, Sorter
from repro.chaos import FAULT_PLANS
from repro.errors import ConfigError
from repro.experiments import ExperimentRunner, Scenario
from repro.runtime import Measured
from repro.telemetry import (
    MEASURED_PID,
    MODELED_PID,
    MetricsRegistry,
    TraceSink,
)
from repro.telemetry.adapters import (
    chaos_plan_to_events,
    emit_rank_segments,
    stats_to_metrics,
)

P = 4
N_PER = 500


def _run(backend="simulated", sink=None, n_per=N_PER):
    dataset = Dataset.from_workload("uniform", p=P, n_per=n_per, seed=5)
    return Sorter("hss", backend=backend, verify=False).run(
        dataset, trace_sink=sink
    )


def _modeled(events):
    """The modeled subtree, stripped of metadata rows."""
    return [
        e for e in events if e["pid"] == MODELED_PID and e["ph"] != "M"
    ]


class TestReplayParity:
    def test_trace_replay_equals_live_emission(self):
        live = TraceSink()
        run = _run(sink=live)
        replayed = run.engine_result.trace.to_spans(TraceSink())
        assert _modeled(replayed.events) == _modeled(live.events)


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_modeled_subtree_matches_simulator(self, backend):
        baseline = TraceSink()
        _run(sink=baseline)
        sink = TraceSink()
        _run(backend=backend, sink=sink)
        assert _modeled(sink.events) == _modeled(baseline.events)

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_real_backends_emit_measured_rank_rows(self, backend):
        sink = TraceSink()
        _run(backend=backend, sink=sink)
        measured = [
            e
            for e in sink.events
            if e["pid"] == MEASURED_PID and e.get("ph") == "X"
        ]
        ranks = {e["tid"] for e in measured}
        assert ranks == set(range(P))
        cats = {e["cat"] for e in measured}
        assert cats == {"compute", "wait"}
        # Wait spans carry the sweep index that flow-connects ranks.
        waits = [e for e in measured if e["cat"] == "wait"]
        assert all("sweep" in e["args"] for e in waits)
        flows = [e for e in sink.events if e["ph"] in ("s", "t", "f")]
        assert flows, "collective waits should be flow-connected"


class TestZeroOverhead:
    @pytest.mark.parametrize("backend", ["simulated", "thread"])
    def test_tracing_does_not_change_modeled_results(self, backend):
        import numpy as np

        plain = _run(backend=backend)
        traced = _run(backend=backend, sink=TraceSink())
        assert (
            traced.engine_result.trace.makespan
            == plain.engine_result.trace.makespan
        )
        assert traced.engine_result.stats == plain.engine_result.stats
        for a, b in zip(traced.shards, plain.shards):
            np.testing.assert_array_equal(a, b)


class TestMeasuredProjection:
    def test_measured_to_spans_renders_totals(self):
        measured = Measured(
            backend="process",
            workers=2,
            wall_s=1.0,
            rank_compute_s=(0.25, 0.5),
            rank_comm_wait_s=(0.1, 0.2),
        )
        sink = measured.to_spans(TraceSink())
        spans = [e for e in sink.events if e["ph"] == "X"]
        assert len(spans) == 4  # compute + wait per rank
        assert {e["pid"] for e in spans} == {MEASURED_PID}

    def test_emit_rank_segments_skips_singleton_flows(self):
        sink = TraceSink()
        emit_rank_segments(
            sink,
            {0: [("local sort", 0.0, 0.1)], 1: []},
            {0: [("allgather", 0.1, 0.2, 0)]},  # only rank 0 joined
            backend="thread",
        )
        assert not [e for e in sink.events if e["ph"] in ("s", "t", "f")]


class TestChaosEvents:
    def test_plan_injections_become_instants(self):
        run = _run()
        sink = TraceSink()
        plan = FAULT_PLANS.get("stragglers")
        chaos_plan_to_events(sink, plan, run.engine_result.trace, P)
        instants = [e for e in sink.events if e["ph"] == "i"]
        assert instants
        assert all(e["cat"] == "chaos" for e in instants)
        assert all(
            e["args"]["plan"] == "stragglers" for e in instants
        )

    def test_zero_plan_emits_nothing(self):
        run = _run()
        sink = TraceSink()
        chaos_plan_to_events(
            sink, FAULT_PLANS.get("none"), run.engine_result.trace, P
        )
        assert sink.events == []


class TestStatsToMetrics:
    def test_numeric_leaves_become_gauges(self):
        registry = MetricsRegistry()
        stats_to_metrics(
            {"jobs_total": 3, "cache": {"hits": 1, "policy": "lru"}},
            registry,
        )
        snap = registry.snapshot()
        assert snap["repro_stats_jobs_total"] == 3.0
        assert snap["repro_stats_cache_hits"] == 1.0
        assert "repro_stats_cache_policy" not in snap


class TestSweepTracing:
    def test_each_cell_gets_its_own_modeled_row(self):
        sink = TraceSink()
        scenarios = [
            Scenario(
                algorithm="hss",
                workload="uniform",
                procs=p,
                keys_per_rank=300,
            )
            for p in (2, 4)
        ]
        ExperimentRunner(jobs=1).run(scenarios, trace_sink=sink)
        rows = {
            e["args"]["name"]: e["tid"]
            for e in sink.events
            if e["ph"] == "M"
            and e["name"] == "thread_name"
            and e["pid"] == MODELED_PID
        }
        assert rows[scenarios[0].name] == 0
        assert rows[scenarios[1].name] == 1

    def test_parallel_sweep_with_sink_is_a_config_error(self):
        scenario = Scenario(
            algorithm="hss",
            workload="uniform",
            procs=2,
            keys_per_rank=300,
        )
        with pytest.raises(ConfigError, match="jobs"):
            ExperimentRunner(jobs=2).run(
                [scenario], trace_sink=TraceSink()
            )
