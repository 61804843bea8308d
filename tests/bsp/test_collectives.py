"""Tests for collective data semantics (resolve) and payload sizing."""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bsp.collectives import ArrayRef, resolve, sizeof
from repro.errors import BSPError, CollectiveMismatchError


class TestSizeof:
    def test_none(self):
        assert sizeof(None) == 0

    def test_numpy_exact(self):
        assert sizeof(np.zeros(10, dtype=np.int64)) == 80
        assert sizeof(np.zeros((3, 4), dtype=np.float32)) == 48

    def test_scalars(self):
        assert sizeof(3) == 8
        assert sizeof(3.5) == 8
        assert sizeof(np.int64(1)) == 8

    def test_containers(self):
        assert sizeof([np.zeros(2, np.int64), 1]) == 24
        assert sizeof({"a": 1}) == 9
        assert sizeof((None, None)) == 0

    def test_strings_bytes(self):
        assert sizeof("abc") == 3
        assert sizeof(b"abcd") == 4


class TestBarrierBcast:
    def test_barrier(self):
        r = resolve("barrier", [None] * 4, 0)
        assert r.results == [None] * 4

    def test_bcast_from_root(self):
        r = resolve("bcast", [42, None, None], 0)
        assert r.results == [42, 42, 42]

    def test_bcast_nonzero_root(self):
        r = resolve("bcast", [None, None, "hi"], 2)
        assert r.results == ["hi", "hi", "hi"]
        assert r.max_bytes == 2


class TestGatherScatter:
    def test_gather(self):
        r = resolve("gather", [10, 11, 12], 1)
        assert r.results[1] == [10, 11, 12]
        assert r.results[0] is None and r.results[2] is None

    def test_allgather(self):
        r = resolve("allgather", ["a", "b"], 0)
        assert r.results[0] == ["a", "b"] and r.results[1] == ["a", "b"]

    def test_scatter(self):
        r = resolve("scatter", [[5, 6, 7], None, None], 0)
        assert r.results == [5, 6, 7]

    def test_scatter_wrong_length(self):
        with pytest.raises(BSPError, match="length-3"):
            resolve("scatter", [[5, 6], None, None], 0)


class TestReductions:
    def test_reduce_sum_scalars(self):
        r = resolve("reduce", [1, 2, 3], 0)
        assert r.results[0] == 6 and r.results[1] is None

    def test_reduce_arrays(self):
        arrays = [np.arange(4), np.arange(4), np.arange(4)]
        r = resolve("reduce", arrays, 0)
        assert np.array_equal(r.results[0], 3 * np.arange(4))

    def test_reduce_does_not_mutate_inputs(self):
        a = np.ones(3)
        resolve("reduce", [a, np.ones(3)], 0)
        assert np.array_equal(a, np.ones(3))

    def test_reduce_min_max(self):
        assert resolve("reduce", [5, 1, 3], 0, reduce_op="min").results[0] == 1
        assert resolve("reduce", [5, 1, 3], 0, reduce_op="max").results[0] == 5

    def test_allreduce(self):
        r = resolve("allreduce", [1, 2], 0)
        assert r.results == [3, 3]

    def test_unknown_op(self):
        with pytest.raises(BSPError, match="reduction"):
            resolve("reduce", [1, 2], 0, reduce_op="prod")

    def test_scan_inclusive(self):
        r = resolve("scan", [1, 2, 3, 4], 0)
        assert r.results == [1, 3, 6, 10]

    def test_scan_arrays_independent(self):
        arrays = [np.ones(2) for _ in range(3)]
        r = resolve("scan", arrays, 0)
        r.results[2][0] = 99  # mutating one result must not alias others
        assert r.results[1][0] == 2


def _alltoallv(counts_rows, *columns):
    """Resolve one alltoallv: rank r sends ``counts_rows[r]`` over its arrays."""
    payloads = [
        (tuple(counts), tuple(column[r] for column in columns))
        for r, counts in enumerate(counts_rows)
    ]
    return resolve("alltoallv", payloads, 0)


class TestAllToAll:
    def test_transpose_semantics(self):
        # One row per destination: rank dst receives src*10+dst from each src.
        rows = [np.array([src * 10 + dst for dst in range(3)]) for src in range(3)]
        r = _alltoallv([[1, 1, 1]] * 3, rows)
        for dst in range(3):
            (got,) = (np.concatenate(runs) for runs in r.results[dst])
            assert got.tolist() == [src * 10 + dst for src in range(3)]

    def test_bad_row_length(self):
        with pytest.raises(BSPError, match="rank 0: 1 counts for 2 ranks"):
            _alltoallv([[1], [1, 1]], [np.zeros(1), np.zeros(2)])

    def test_byte_accounting(self):
        keys = [np.zeros(3, np.int64), np.zeros(7, np.int64)]
        r = _alltoallv([[1, 2], [3, 4]], keys)
        assert r.total_bytes == 8 * 10
        # rank 1 sends 7*8 and receives 6*8 -> max is rank1's 13*8 = 104.
        assert r.max_bytes == 104

    def test_payload_rows_price_every_array(self):
        # A row is 8 key bytes plus a 12-byte record: 20 bytes per row.
        record = np.dtype([("mass", "<f8"), ("id", "<u4")])
        keys = [np.zeros(3, np.int64), np.zeros(7, np.int64)]
        payload = [np.zeros(3, record), np.zeros(7, record)]
        r = _alltoallv([[1, 2], [3, 4]], keys, payload)
        assert r.total_bytes == 20 * 10
        assert r.max_bytes == 20 * 13

    @given(st.integers(1, 6))
    def test_conservation(self, p):
        rng = np.random.default_rng(p)
        counts = rng.integers(0, 5, (p, p))
        keys = [rng.integers(0, 100, n) for n in counts.sum(axis=1)]
        r = _alltoallv(counts.tolist(), keys)
        sent = sorted(x for arr in keys for x in arr.tolist())
        got = sorted(
            x for row in r.results for run in row[0] for x in run.tolist()
        )
        assert sent == got

    def test_ragged_runs_with_empty_runs_arrive_in_source_order(self):
        counts = [[0, 3, 0], [2, 0, 0], [1, 1, 1]]
        keys = [np.array([10, 11, 12]), np.array([20, 21]), np.array([30, 31, 32])]
        ids = [k + 1000 for k in keys]
        r = _alltoallv(counts, keys, ids)
        want = {0: [20, 21, 30], 1: [10, 11, 12, 31], 2: [32]}
        for dst, expected in want.items():
            got_keys, got_ids = (np.concatenate(runs) for runs in r.results[dst])
            assert got_keys.tolist() == expected
            np.testing.assert_array_equal(got_ids, got_keys + 1000)

    def test_single_rank_keeps_its_rows(self):
        keys = np.arange(5)
        r = _alltoallv([[5]], [keys])
        (runs,) = r.results[0]
        np.testing.assert_array_equal(np.concatenate(runs), keys)
        assert r.total_bytes == r.max_bytes // 2 == 40

    def test_runs_are_slices_of_the_sent_arrays(self):
        keys = [np.arange(4), np.arange(4, 6)]
        r = _alltoallv([[1, 3], [2, 0]], keys)
        runs = r.results[1][0]
        assert [run.tolist() for run in runs] == [[1, 2, 3], []]
        assert np.shares_memory(runs[0], keys[0])

    @pytest.mark.parametrize(
        "counts, columns, message",
        [
            ([[1, 1, 0], [1, 1]], [[np.zeros(2)] * 2], "rank 0: 3 counts for 2"),
            ([[3, -1], [1, 1]], [[np.zeros(2)] * 2], "rank 0: negative count"),
            ([[1, 1], [1, 2]], [[np.zeros(2)] * 2], "rank 1: counts sum to 3"),
            (
                [[1, 1], [1, 1]],
                [[np.zeros(2)] * 2, [np.zeros(2), np.zeros(3)]],
                r"rank 1: need 2 aligned 1-D arrays, got shapes \[\(2,\), \(3,\)\]",
            ),
            (
                [[1, 1], [1, 1]],
                [[np.zeros(2)] * 2, [np.zeros((2, 1))] * 2],
                "rank 0: need 2 aligned 1-D arrays",
            ),
            ([[0, 0], [0, 0]], [], r"rank 0: need 1 aligned .* shapes \[\]"),
        ],
        ids=["length", "negative", "sum", "unequal", "not-1d", "no-arrays"],
    )
    def test_malformed_counts_rejected(self, counts, columns, message):
        with pytest.raises(BSPError, match=message):
            _alltoallv(counts, *columns)

    def test_ranks_must_send_the_same_number_of_arrays(self):
        payloads = [
            ((1, 0), (np.zeros(1),)),
            ((1, 0), (np.zeros(1), np.zeros(1))),
        ]
        with pytest.raises(BSPError, match="rank 1: need 1 aligned 1-D arrays"):
            resolve("alltoallv", payloads, 0)


class TestArrayRefSlice:
    REF = ArrayRef("seg", 128, (10,), np.dtype("<u8"))

    def test_sub_slice_offsets_by_item_size(self):
        sub = self.REF[3:7]
        assert (sub.segment, sub.offset, sub.shape) == ("seg", 128 + 24, (4,))
        assert sub.dtype == self.REF.dtype and sub.nbytes == 32

    def test_empty_and_clamped_slices(self):
        assert self.REF[5:5].nbytes == 0
        assert self.REF[8:99].shape == (2,)
        assert self.REF[7:2].shape == (0,)

    def test_slices_read_back_the_array_rows(self):
        from repro.runtime import shm

        keys = np.arange(10, dtype="<u8") * 3
        name = f"rpr-test-{os.getpid():x}-slice"
        packed, arrays, total = shm.pack_message(keys, name)
        seg = shm.create_segment(name, total)
        try:
            shm.fill_segment(seg, arrays)
            got = shm.copy_out(packed[2:9])
        finally:
            seg.close()
            shm.unlink_segment(name)
        np.testing.assert_array_equal(got, keys[2:9])

    def test_only_contiguous_slices(self):
        with pytest.raises(TypeError):
            self.REF[0:4:2]

    def test_only_one_dimensional_refs(self):
        with pytest.raises(TypeError):
            ArrayRef("seg", 0, (2, 3), np.dtype("<f8"))[0:1]


class TestExchange:
    def test_symmetric_swap(self):
        r = resolve("exchange", ["a", "b", "c", "d"], 0, partners=[1, 0, 3, 2])
        assert r.results == ["b", "a", "d", "c"]

    def test_self_partner(self):
        r = resolve("exchange", ["x", "y"], 0, partners=[0, 1])
        assert r.results == ["x", "y"]

    def test_asymmetric_raises(self):
        with pytest.raises(CollectiveMismatchError, match="asymmetric"):
            resolve("exchange", ["a", "b", "c"], 0, partners=[1, 2, 0])

    def test_out_of_range_partner(self):
        with pytest.raises(CollectiveMismatchError, match="invalid"):
            resolve("exchange", ["a", "b"], 0, partners=[5, 0])

    def test_missing_partners(self):
        with pytest.raises(BSPError, match="partners"):
            resolve("exchange", ["a", "b"], 0)


def test_unknown_collective():
    with pytest.raises(BSPError, match="unknown collective"):
        resolve("gossip", [1, 2], 0)
