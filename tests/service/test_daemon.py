"""SortService: warm starts, batching, stream discipline, counters."""

import io
import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.service import SortService, validate_reply
from repro.service.daemon import shard_boundary_intervals

UNIFORM = {
    "algorithm": "hss",
    "workload": "uniform",
    "procs": 8,
    "keys_per_rank": 1_500,
}
LOGNORMAL = {**UNIFORM, "workload": "lognormal"}


def _job(job_id, scenario):
    return json.dumps({"id": job_id, "scenario": scenario})


def _stream(service, lines):
    out = io.StringIO()
    summary = service.process_stream(lines, out)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    for reply in replies:
        assert validate_reply(reply) == [], reply
    return replies, summary


class TestWarmStartPin:
    def test_repeat_job_hits_cache_with_strictly_fewer_rounds(self):
        """The PR's headline pin, at the service boundary.

        The second job with an identical fingerprint must (a) report a
        cache hit and (b) perform strictly fewer histogram rounds than
        its cold twin — submitted non-adjacently so the warm start comes
        from the LRU cache, not intra-batch chaining.
        """
        service = SortService()
        replies, _ = _stream(
            service,
            [
                _job("cold", UNIFORM),
                _job("other", LOGNORMAL),
                _job("warm", UNIFORM),
            ],
        )
        cold, other, warm = replies
        assert cold["fingerprint"] == warm["fingerprint"]
        assert cold["fingerprint"] != other["fingerprint"]
        assert cold["cache"] == {
            "hit": False, "source": None,
            "warm_capable": True, "intervals": 0,
        }
        assert warm["cache"]["hit"] is True
        assert warm["cache"]["source"] == "cache"
        assert warm["cache"]["intervals"] == UNIFORM["procs"] - 1
        assert warm["metrics"]["rounds"] < cold["metrics"]["rounds"]
        assert warm["metrics"]["rounds"] == 1
        # Warm start is a latency optimization, not a semantics change:
        # modeled makespan drops, the balance guarantee holds.
        assert warm["metrics"]["makespan_s"] < cold["metrics"]["makespan_s"]
        assert warm["metrics"]["imbalance"] == cold["metrics"]["imbalance"]

    def test_warm_incapable_algorithm_never_consults_cache(self):
        service = SortService()
        scenario = {**UNIFORM, "algorithm": "sample-regular"}
        replies, _ = _stream(
            service, [_job("a", scenario), _job("b", scenario)]
        )
        for reply in replies:
            assert reply["status"] == "ok"
            assert reply["cache"]["warm_capable"] is False
            assert reply["cache"]["hit"] is False
        assert service.cache.stats()["size"] == 0


class TestBatching:
    def test_adjacent_same_fingerprint_jobs_warm_chain(self):
        service = SortService()
        replies, _ = _stream(
            service, [_job(f"j{i}", UNIFORM) for i in range(3)]
        )
        assert [r["batch"] for r in replies] == [
            {"size": 3, "position": 0},
            {"size": 3, "position": 1},
            {"size": 3, "position": 2},
        ]
        assert replies[0]["cache"]["hit"] is False
        for follower in replies[1:]:
            assert follower["cache"]["source"] == "batch"
            assert follower["metrics"]["rounds"] == 1
        # One cache lookup per batch: the head's miss, no follower hits.
        assert service.cache.stats()["misses"] == 1
        assert service.cache.stats()["hits"] == 0

    def test_fingerprint_change_flushes_batch(self):
        service = SortService()
        replies, _ = _stream(
            service,
            [_job("a", UNIFORM), _job("b", LOGNORMAL), _job("c", UNIFORM)],
        )
        assert [r["batch"]["size"] for r in replies] == [1, 1, 1]
        # Non-adjacent repeat warm-starts from the cache instead.
        assert replies[2]["cache"]["source"] == "cache"

    def test_batch_max_bounds_batch_size(self):
        service = SortService(batch_max=2)
        replies, _ = _stream(
            service, [_job(f"j{i}", UNIFORM) for i in range(5)]
        )
        assert [r["batch"] for r in replies] == [
            {"size": 2, "position": 0},
            {"size": 2, "position": 1},
            {"size": 2, "position": 0},
            {"size": 2, "position": 1},
            {"size": 1, "position": 0},
        ]
        # Later batch heads warm-start from the cache entry the first
        # batch wrote.
        assert replies[2]["cache"]["source"] == "cache"


class TestServiceDefaults:
    def test_unknown_default_machine_rejected(self):
        with pytest.raises(ConfigError, match="unknown machine 'pdp-11'"):
            SortService(machine="pdp-11")

    def test_unknown_default_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend 'quantum'"):
            SortService(backend="quantum")

    def test_variant_backend_spelling_rejected(self):
        with pytest.raises(ConfigError) as info:
            SortService(machine="cloud-ethernet", backend="chaos:thread")
        assert str(info.value) == (
            "unknown backend 'chaos:thread'; "
            "choose from ['process', 'simulated', 'thread']"
        )


class TestReplyShape:
    def test_measured_keys_are_the_measured_fields(self):
        # Rank segments ride on the run result, never in the reply.
        (reply,), _ = _stream(SortService(), [_job("m", UNIFORM)])
        assert sorted(reply["measured"]) == [
            "backend",
            "chaos",
            "phase_wall_s",
            "rank_comm_wait_s",
            "rank_compute_s",
            "wall_s",
            "workers",
        ]


class TestStreamDiscipline:
    def test_replies_in_input_order_across_errors(self):
        service = SortService()
        replies, summary = _stream(
            service,
            [
                _job("ok1", UNIFORM),
                "garbage",
                "",  # blank lines are skipped entirely
                json.dumps({"id": "bad-algo", "scenario": {
                    **UNIFORM, "algorithm": "quicksort"}}),
                _job("ok2", UNIFORM),
            ],
        )
        assert [r["id"] for r in replies] == ["ok1", None, "bad-algo", "ok2"]
        assert [r["status"] for r in replies] == [
            "ok", "error", "error", "ok",
        ]
        assert replies[1]["error"]["type"] == "JobError"
        assert replies[2]["error"]["type"] == "JobError"
        assert "quicksort" in replies[2]["error"]["message"]
        assert summary["jobs_total"] == 4
        assert summary["errors_total"] == 2

    def test_service_defaults_injected_but_job_wins(self):
        service = SortService(machine="cloud-ethernet")
        replies, _ = _stream(
            service,
            [
                _job("default", UNIFORM),
                _job("explicit", {**UNIFORM, "machine": "laptop"}),
            ],
        )
        assert replies[0]["scenario"]["machine"] == "cloud-ethernet"
        assert replies[1]["scenario"]["machine"] == "laptop"

    def test_cache_capacity_bounds_survive_streaming(self):
        service = SortService(cache_capacity=1)
        scenarios = [UNIFORM, LOGNORMAL, UNIFORM]
        replies, _ = _stream(
            service, [_job(f"j{i}", s) for i, s in enumerate(scenarios)]
        )
        # Capacity 1: the lognormal job evicted the uniform entry, so the
        # uniform repeat misses.
        assert replies[2]["cache"]["hit"] is False
        stats = service.cache.stats()
        assert stats["size"] == 1
        assert stats["evictions"] == 2

    def test_batch_max_validated(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="batch_max"):
            SortService(batch_max=0)


class TestShardBoundaryIntervals:
    def test_degenerate_pairs_skip_empty_shards(self):
        shards = [
            np.array([1, 2]), np.array([5, 6]),
            np.array([], dtype=np.int64), np.array([9]),
        ]
        assert shard_boundary_intervals(shards) == ((5, 5), (9, 9))

    def test_single_shard_yields_nothing(self):
        assert shard_boundary_intervals([np.array([1, 2, 3])]) is None

    def test_structured_keys_yield_no_hints(self):
        tagged = np.array(
            [(1, 0), (2, 1)], dtype=[("key", "i8"), ("tag", "i8")]
        )
        assert shard_boundary_intervals([tagged, tagged]) is None
