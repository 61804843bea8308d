"""Tests for the bucketize / all-to-all / merge phase."""

import numpy as np
import pytest

from repro.bsp import BSPEngine
from repro.core.data_movement import (
    Shard,
    _sort_keys,
    exchange_and_merge,
    locally_sorted_shard,
    partition_by_splitters,
)

STRUCTURED = np.dtype([("hi", "<u4"), ("lo", "<i8")])


def _keys(dtype: str, n: int = 500) -> np.ndarray:
    """Duplicate-heavy keys; float64 mixes in ±0.0 and infinities.

    Small enough to reach the sorting network of NumPy's AVX-512 float
    kernel, which can rewrite ±0.0: on such CPUs the float cases fail if
    floats are ever sent to the default kernel.
    """
    rng = np.random.default_rng(7)
    if dtype == "float64":
        keys = rng.integers(-20, 20, n).astype(np.float64) / 4
        keys[::7] = 0.0
        keys[3::7] = -0.0
        keys[5::97] = np.inf
        keys[6::97] = -np.inf
        return keys
    if dtype == "structured":
        keys = np.empty(n, dtype=STRUCTURED)
        keys["hi"] = rng.integers(0, 5, n)
        keys["lo"] = rng.integers(-3, 3, n)
        return keys
    return rng.integers(0, 50, n).astype(dtype)


KEY_DTYPES = ["int64", "uint64", "float64", "structured"]


def _assert_sorted_like_oracle(out: np.ndarray, keys: np.ndarray) -> None:
    assert out.dtype == keys.dtype
    np.testing.assert_array_equal(out, np.sort(keys))
    if keys.dtype.kind == "f":
        # ±0.0 compare equal, but a sort must not rewrite either into the
        # other: the output is a bitwise permutation of the input.
        assert np.signbit(out).sum() == np.signbit(keys).sum()


class TestSortKernel:
    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_sort_keys_matches_oracle(self, dtype):
        keys = _keys(dtype)
        before = keys.copy()
        _assert_sorted_like_oracle(_sort_keys(keys), keys)
        np.testing.assert_array_equal(keys, before)  # input untouched

    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_sort_keys_inplace(self, dtype):
        keys = _keys(dtype)
        buffer = keys.copy()
        out = _sort_keys(buffer, inplace=True)
        assert out is buffer
        _assert_sorted_like_oracle(out, keys)

    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_locally_sorted_shard_matches_oracle(self, dtype):
        keys = _keys(dtype)

        def program(ctx, keys):
            yield from ctx.barrier()
            return locally_sorted_shard(ctx, keys)

        shard = BSPEngine(1).run(program, rank_args=[(keys,)]).returns[0]
        assert shard.payload is None
        _assert_sorted_like_oracle(shard.keys, keys)

    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_merge_runs_matches_oracle(self, dtype):
        """exchange_and_merge's merge sorts what arrives like the oracle.

        Five ranks (one of them empty) send every key to rank 1 in runs of
        ragged length, empty runs included; rank 1 merges what arrives.
        """
        keys = _keys(dtype)
        cuts = [0, 0, 100, 101, 300, len(keys)]

        def program(ctx, keys):
            shard = locally_sorted_shard(ctx, keys)
            n = len(shard)
            # Runs 0, 2, 3 and 4 are empty; run 1 holds the whole shard.
            positions = np.array([0, n, n, n])
            merged = yield from exchange_and_merge(ctx, shard, positions)
            return merged

        rank_args = [(keys[a:b],) for a, b in zip(cuts[:-1], cuts[1:])]
        merged = BSPEngine(5).run(program, rank_args=rank_args).returns
        assert [len(m) for m in merged] == [0, len(keys), 0, 0, 0]
        assert merged[1].payload is None
        _assert_sorted_like_oracle(merged[1].keys, keys)

    def test_payloads_keep_equal_keys_in_input_order(self):
        keys = _keys("int64")
        index = np.arange(len(keys))

        def program(ctx, keys, payload):
            shard = locally_sorted_shard(ctx, keys, payload)
            # Everything to rank 0, which merges the two sorted runs.
            merged = yield from exchange_and_merge(
                ctx, shard, np.array([len(shard)])
            )
            return merged

        merged, empty = BSPEngine(2).run(
            program,
            rank_args=[(keys[:200], index[:200]), (keys[200:], index[200:])],
        ).returns
        np.testing.assert_array_equal(
            merged.payload, np.argsort(keys, kind="stable")
        )
        assert len(empty) == len(empty.payload) == 0


class TestShard:
    def test_len(self):
        assert len(Shard(np.arange(10), np.arange(10) * 2)) == 10

    def test_payload_length_checked(self):
        with pytest.raises(ValueError):
            Shard(np.arange(5), np.arange(4))

    def test_no_payload(self):
        assert Shard(np.arange(3)).payload is None


class TestPartition:
    def test_positions_cut(self):
        shard = Shard(np.arange(10))
        counts = partition_by_splitters(shard, np.array([3, 7]))
        assert counts.tolist() == [3, 4, 3]

    def test_empty_buckets(self):
        shard = Shard(np.arange(4))
        counts = partition_by_splitters(shard, np.array([0, 0, 4]))
        assert counts.tolist() == [0, 0, 4, 0]

    def test_positions_past_the_shard_rejected(self):
        with pytest.raises(ValueError):
            partition_by_splitters(Shard(np.arange(5)), np.array([3, 6]))

    def test_decreasing_positions_rejected(self):
        with pytest.raises(ValueError):
            partition_by_splitters(Shard(np.arange(5)), np.array([3, 1]))


class TestExchangeAndMerge:
    def run_exchange(self, inputs, payloads=None, p=None):
        p = p or len(inputs)
        engine = BSPEngine(p)

        def program(ctx, keys, payload):
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if payload is not None:
                payload = payload[order]
            shard = Shard(keys, payload)
            # Equal-width key-range splitters for the test.
            splitters = np.linspace(0, 1000, p + 1)[1:-1].astype(keys.dtype)
            positions = np.searchsorted(keys, splitters, side="left")
            merged = yield from exchange_and_merge(ctx, shard, positions)
            return merged

        args = [
            (inputs[r], payloads[r] if payloads else None) for r in range(p)
        ]
        return engine.run(program, rank_args=args)

    def test_globally_sorted_output(self, rng):
        inputs = [rng.integers(0, 1000, 200) for _ in range(4)]
        res = self.run_exchange(inputs)
        outs = [r.keys for r in res.returns]
        everything = np.concatenate(outs)
        assert np.array_equal(
            everything, np.sort(np.concatenate(inputs))
        )

    def test_keys_conserved(self, rng):
        inputs = [rng.integers(0, 1000, 100) for _ in range(8)]
        res = self.run_exchange(inputs)
        total = sum(len(r.keys) for r in res.returns)
        assert total == 800

    def test_payload_travels_with_keys(self, rng):
        p = 4
        inputs = [rng.permutation(np.arange(r * 250, (r + 1) * 250)) for r in range(p)]
        payloads = [keys * 10 for keys in inputs]
        res = self.run_exchange(inputs, payloads)
        for ret in res.returns:
            assert np.array_equal(ret.payload, ret.keys * 10)

    def test_empty_rank(self):
        inputs = [np.arange(100), np.empty(0, dtype=np.int64)]
        res = self.run_exchange(inputs)
        outs = [r.keys for r in res.returns]
        assert sum(len(o) for o in outs) == 100

    def test_wrong_positions_length(self):
        engine = BSPEngine(2)

        def program(ctx, keys):
            shard = Shard(np.sort(keys))
            merged = yield from exchange_and_merge(
                ctx, shard, np.array([1, 2, 3])
            )
            return merged

        with pytest.raises(ValueError, match="boundary positions"):
            engine.run(program, rank_args=[(np.arange(5),), (np.arange(5),)])

    def test_alltoall_bytes_accounted(self, rng):
        inputs = [rng.integers(0, 1000, 100) for _ in range(4)]
        res = self.run_exchange(inputs)
        assert res.stats.by_op.get("alltoallv", 0) == 1
        assert res.stats.bytes >= 400 * 8  # all keys traverse the wire
