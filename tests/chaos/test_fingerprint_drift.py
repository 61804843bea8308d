"""Workload fingerprints under drift: the chaos workloads as sensors.

The warm-start contract (PR 7) leans on the key-distribution sketch:
jobs whose data only *resamples* the same shape must share a fingerprint
(and hit the splitter cache), while a drifted distribution — the next
timestep of ``drifting-mixture`` or ``changa-drift`` — must move at
least one quantile across a quantization cell, change the fingerprint,
and miss.  These tests pin both directions with the time-evolving
workloads built for exactly this purpose.
"""

import json

import numpy as np

from repro.algorithms import Dataset
from repro.workloads.drift import drifting_mixture_shards
from repro.service import SortService
from repro.service.fingerprint import key_sketch, workload_fingerprint

P = 8
N_PER = 5_000


def _dataset(timestep: int, draw_seed: int = 0) -> Dataset:
    # Decouple the trace position from the sampling randomness: the
    # timestep fixes the *shape*, draw_seed only re-rolls the sample.
    rng = np.random.default_rng((draw_seed, timestep))
    shards = drifting_mixture_shards(P, N_PER, rng, timestep=timestep)
    return Dataset(shards)


class TestSketchUnderDrift:
    def test_drifted_timestep_crosses_a_quantization_cell(self):
        early = key_sketch(_dataset(0).shards)
        late = key_sketch(_dataset(4).shards)
        assert early != late

    def test_same_shape_redraw_lands_on_the_same_cells(self):
        a = key_sketch(_dataset(2, draw_seed=0).shards)
        b = key_sketch(_dataset(2, draw_seed=1).shards)
        assert a == b

    def test_fingerprint_tracks_the_sketch(self):
        same_shape = [
            workload_fingerprint("hss", _dataset(2, draw_seed=s))
            for s in (0, 1)
        ]
        drifted = workload_fingerprint("hss", _dataset(4))
        assert same_shape[0] == same_shape[1]
        assert drifted != same_shape[0]


class TestServiceCacheUnderDrift:
    @staticmethod
    def _job(job_id: str, seed: int) -> str:
        # timestep = seed % period: consecutive seeds walk the trace.
        return json.dumps({
            "id": job_id,
            "scenario": {
                "algorithm": "hss",
                "workload": "drifting-mixture",
                "procs": P,
                "keys_per_rank": N_PER,
                "seed": seed,
            },
        })

    def test_drifting_jobs_miss_same_shape_jobs_hit(self):
        service = SortService()
        # Same timestep resubmitted: second job must warm-start.
        first = service.handle_line(self._job("t0-a", 0))
        repeat = service.handle_line(self._job("t0-b", 0))
        assert first["status"] == repeat["status"] == "ok"
        assert first["cache"]["hit"] is False
        assert repeat["cache"]["hit"] is True

        # The next timestep drifts the bump: the sketch moves, the
        # fingerprint changes, and the stale boundaries are NOT reused.
        drifted = service.handle_line(self._job("t3", 3))
        assert drifted["status"] == "ok"
        assert drifted["cache"]["hit"] is False
        assert drifted["fingerprint"] != first["fingerprint"]

    def test_full_trace_replay_warms_only_on_revisit(self):
        service = SortService()
        period = 8
        fingerprints = {}
        for step in range(period):
            reply = service.handle_line(self._job(f"t{step}", step))
            assert reply["status"] == "ok"
            assert reply["cache"]["hit"] is False, step
            fingerprints[step] = reply["fingerprint"]
        # Every timestep had its own shape...
        assert len(set(fingerprints.values())) > 1
        # ...and replaying the trace (seed = period wraps to timestep 0)
        # finds the learned boundaries still cached.
        wrapped = service.handle_line(self._job("t8", period))
        assert wrapped["cache"]["hit"] is True
        assert wrapped["fingerprint"] == fingerprints[0]
