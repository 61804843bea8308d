"""Projections from a finished run into the telemetry plane.

Covers the projection guarantee (``Sorter.run(trace_sink=)`` emits
exactly the projection of the result it returns, and nothing for a run
that fails), golden traces pinned across backends, the measured totals
as sums of the rank segments, chaos instants, and the backend-parity +
zero-overhead contracts: every backend's *modeled* span subtree is
identical, and running traced changes nothing about the modeled result.
"""

import json
import pathlib

import pytest

from repro.algorithms import Dataset, Sorter
from repro.bsp.cost_model import CommStats
from repro.bsp.engine import RunResult
from repro.bsp.trace import Trace
from repro.chaos import FAULT_PLANS
from repro.errors import BSPError, ConfigError
from repro.experiments import ExperimentRunner, Scenario
from repro.runtime import get_backend
from repro.telemetry import (
    MEASURED_PID,
    MODELED_PID,
    TraceSink,
)
from repro.telemetry.adapters import chaos_plan_to_events, run_to_spans

P = 4
N_PER = 500
GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"
BACKENDS = ["simulated", "thread", "process"]


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


def _waits(events):
    """The measured wait spans as ``(rank, name, sweep)`` triples."""
    return {
        (e["tid"], e["name"], e["args"]["sweep"])
        for e in events
        if e["pid"] == MEASURED_PID and e.get("cat") == "wait"
    }


class TestReplayParity:
    def test_trace_replay_equals_live_emission(self):
        live = TraceSink()
        run = _run(sink=live)
        replayed = run_to_spans(run.engine_result, TraceSink(), "simulated")
        assert live.events == replayed.events


class TestGoldenTrace:
    """One fixed hss run's modeled events and wait spans, pinned on every
    built-in backend (two workers where the backend uses them)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_modeled_events_match_golden(self, backend):
        sink = TraceSink()
        _run(backend=get_backend(backend, workers=2), sink=sink)
        modeled = [e for e in sink.events if e["pid"] == MODELED_PID]
        golden = GOLDEN_DIR / "trace_modeled.json"
        assert json.dumps(modeled, indent=1) + "\n" == golden.read_text(
            encoding="utf-8"
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wait_spans_match_golden(self, backend):
        sink = TraceSink()
        _run(backend=get_backend(backend, workers=2), sink=sink)
        golden = json.loads(
            (GOLDEN_DIR / "trace_waits.json").read_text(encoding="utf-8")
        )
        assert len(golden) == 64
        assert _waits(sink.events) == {tuple(w) for w in golden}


class TestMeasuredFromSegments:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_totals_are_sums_of_rank_segments(self, backend):
        result = _run(backend=get_backend(backend, workers=2)).engine_result
        measured = result.measured
        assert len(result.compute_segments) == P
        phase_max: dict[str, float] = {}
        for r, segments in enumerate(result.compute_segments):
            assert measured.rank_compute_s[r] == sum(
                t1 - t0 for _, t0, t1 in segments
            )
            by_phase: dict[str, float] = {}
            for phase, t0, t1 in segments:
                by_phase[phase] = by_phase.get(phase, 0.0) + (t1 - t0)
            for phase, seconds in by_phase.items():
                phase_max[phase] = max(phase_max.get(phase, 0.0), seconds)
            assert measured.rank_comm_wait_s[r] == sum(
                t1 - t0 for _, t0, t1, _ in result.wait_segments[r]
            )
        assert measured.phase_wall_s == phase_max


class TestFailedRun:
    def test_failed_run_emits_nothing(self):
        sink = TraceSink()
        cell = Scenario(
            algorithm="hss", workload="uniform", procs=P,
            keys_per_rank=N_PER, backend="simulated", chaos="kill-rank",
        )
        with pytest.raises(BSPError):
            cell.execute(trace_sink=sink)
        assert sink.events == []

    def test_skipped_sweep_cell_leaves_no_orphan_spans(self):
        sink = TraceSink()
        cells = [
            Scenario(
                algorithm="hss",
                workload="uniform",
                procs=P,
                keys_per_rank=300,
                chaos=chaos,
            )
            for chaos in ("kill-rank", "")
        ]
        doc = ExperimentRunner(jobs=1).run(cells, trace_sink=sink)
        assert [c.status for c in doc.cells] == ["skipped", "ok"]
        cats_by_row: dict[int, list[str]] = {}
        for e in sink.events:
            if e["pid"] == MODELED_PID and e["ph"] == "X":
                cats_by_row.setdefault(e["tid"], []).append(e["cat"])
        assert set(cats_by_row) == {1}
        for cats in cats_by_row.values():
            assert cats.count("run") == 1


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
    def test_emit_rank_segments_skips_singleton_flows(self):
        result = RunResult(
            returns=[None, None],
            trace=Trace(),
            stats=CommStats(),
            makespan=0.0,
            compute_segments=([("local sort", 0.0, 0.1)], []),
            # Only rank 0 joined sweep 0.
            wait_segments=([("allgather", 0.1, 0.2, 0)], []),
        )
        sink = run_to_spans(result, TraceSink(), "thread")
        assert [e["tid"] for e in sink.events if e.get("cat") == "wait"] == [0]
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

    def test_scenario_stragglers_yield_chaos_instants(self):
        sink = TraceSink()
        Scenario(
            algorithm="hss",
            workload="uniform",
            procs=P,
            keys_per_rank=300,
            chaos="stragglers",
        ).execute(trace_sink=sink)
        assert [e for e in sink.events if e.get("cat") == "chaos"]

    def test_zero_plan_emits_nothing(self):
        run = _run()
        sink = TraceSink()
        chaos_plan_to_events(
            sink, FAULT_PLANS.get("none"), run.engine_result.trace, P
        )
        assert sink.events == []


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
