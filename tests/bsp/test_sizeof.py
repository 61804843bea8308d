"""``sizeof`` byte counts, pinned across the whole payload zoo.

``sizeof`` is one recursive walk over a payload.  Every byte count in the
cost model goes through it, so a silent change skews modeled results: the
reference size of every payload shape here is pinned.  The process
backend resolves routing collectives over ``ArrayRef`` descriptors instead
of arrays, so trees of refs must size exactly like the materialized trees
they stand for.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.bsp.collectives import ArrayRef, sizeof
from repro.core.data_movement import Shard
from repro.runtime.shm import pack_message


@dataclass
class Fragment:
    keys: np.ndarray
    origin: int
    label: str


class SlotsOnly:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a = 1
        self.b = np.zeros(3)


class IntSubclass(int):
    pass


class ListSubclass(list):
    pass


RECORD_DTYPE = np.dtype([("mass", "<f8"), ("id", "<u4")])

PAYLOADS = [
    (None, 0),
    (0, 8),
    (3, 8),
    (-17, 8),
    (3.5, 8),
    (True, 8),
    (False, 8),
    (2 + 3j, 8),
    (np.int64(7), 8),
    (np.float32(1.5), 8),
    (np.bool_(True), 8),
    ("", 0),
    ("ascii", 5),
    ("ünïcödé", 11),
    (b"bytes", 5),
    (bytearray(b"1234"), 4),
    (memoryview(b"123456"), 6),
    (np.zeros(0), 0),
    (np.zeros(10, dtype=np.int64), 80),
    (np.zeros((3, 4), dtype=np.float32), 48),
    (np.arange(6, dtype=np.uint8).reshape(2, 3), 6),
    (np.zeros(5, dtype=RECORD_DTYPE), 60),
    (np.zeros(0, dtype=RECORD_DTYPE), 0),
    (np.zeros(3, dtype=RECORD_DTYPE)[0], 12),  # np.void structured scalar
    # flat sequence of np.void rows
    ([np.zeros(3, dtype=RECORD_DTYPE)[i] for i in range(3)], 36),
    ([np.zeros(2, dtype=RECORD_DTYPE), np.zeros(4, dtype=RECORD_DTYPE)], 72),
    (np.void(b"\x00\x01\x02"), 3),  # raw void, no fields
    ([], 0),
    ([1, 2, 3], 24),
    ([1.0, 2.0], 16),
    ([True, False, True], 24),
    ([np.int64(1), np.int64(2)], 16),
    ([np.zeros(2, np.int64), np.ones(5, np.float64)], 56),
    ([np.zeros(2, np.int64), 1], 24),  # mixed: ndarray + scalar
    ([1, 2.5], 16),  # mixed scalar types
    ([[1, 2], [3, [4, 5]]], 40),  # nested lists
    ([[np.zeros(4)], [np.zeros(2), np.zeros(1)]], 56),
    ((1, 2, 3), 24),
    ((None, None), 0),
    (("a", "bb", "ccc"), 6),
    ({1, 2, 3}, 24),
    (frozenset({1.0, 2.0}), 16),
    ({"a": 1}, 9),
    ({"key": np.zeros(8), "nested": {"x": [1, 2]}}, 90),
    ({1: "one", 2.0: b"two"}, 22),
    (Fragment(keys=np.zeros(16, np.int64), origin=3, label="shard"), 141),
    (
        [
            Fragment(np.zeros(2, np.int64), 0, "x"),
            Fragment(np.zeros(3, np.int64), 1, "y"),
        ],
        58,
    ),
    (SlotsOnly(), 8),
    (IntSubclass(5), 8),
    (ListSubclass([1, 2, 3]), 24),
    (object(), 8),
]


@pytest.mark.parametrize(
    "payload, size", PAYLOADS, ids=[type(p).__name__ for p, _ in PAYLOADS]
)
def test_fast_path_matches_reference(payload, size):
    """Each payload sizes to its reference byte count.

    The sizes were recorded from the recursive reference walk when it and
    a cached fast path still coexisted; the walk is now the one
    ``sizeof``, and the pins keep it from drifting.
    """
    assert sizeof(payload) == size


REF_TREES = {
    "alltoall_rows": [np.arange(k, dtype=np.int64) for k in (0, 3, 5, 1)],
    "keys_payload_rows": [
        (np.arange(4, dtype=np.uint32), np.zeros(4, dtype=RECORD_DTYPE)),
        (np.arange(0, dtype=np.uint32), np.zeros(0, dtype=RECORD_DTYPE)),
    ],
    "shard": Shard(np.arange(6, dtype=np.int64), np.zeros(6, RECORD_DTYPE)),
    "shard_rows": [Shard(np.arange(k, dtype=np.float64)) for k in (2, 0)],
    "bare_2d": np.zeros((3, 4), dtype=np.float32),
    "mixed": {"splitters": np.arange(7), "round": 2, "done": [True, False]},
}


@pytest.mark.parametrize("tree", REF_TREES.values(), ids=REF_TREES.keys())
def test_refs_size_as_the_arrays_they_stand_for(tree):
    packed, _, _ = pack_message(tree, "segment")
    assert "ArrayRef" in repr(packed)
    assert sizeof(packed) == sizeof(tree)


class TestKnownSizes:
    """Absolute anchors for the payload shapes the programs send."""

    def test_ndarray_buffer_bytes(self):
        assert sizeof(np.zeros(10, dtype=np.int64)) == 80
        assert sizeof(np.zeros((3, 4), dtype=np.float32)) == 48

    def test_scalars_are_one_word(self):
        assert sizeof(3) == sizeof(3.5) == sizeof(np.int64(1)) == 8

    def test_flat_scalar_sequence_batches(self):
        assert sizeof([1] * 1000) == 8000
        assert sizeof((2.5,) * 7) == 56

    def test_flat_ndarray_sequence_batches(self):
        rows = [np.zeros(k, dtype=np.int64) for k in (1, 2, 3)]
        assert sizeof(rows) == 8 * 6

    def test_array_ref_counts_its_array(self):
        ref = ArrayRef("segment", 64, (3, 4), np.dtype(np.float32))
        assert ref.nbytes == 48 and len(ref) == 3
        assert sizeof(ref) == sizeof([ref, ref]) // 2 == 48

    def test_dataclass_counts_attributes(self):
        frag = Fragment(keys=np.zeros(4, np.int64), origin=1, label="ab")
        assert sizeof(frag) == 32 + 8 + 2

    def test_dict_counts_keys_and_values(self):
        assert sizeof({"a": 1}) == 9

    def test_structured_array_counts_record_bytes(self):
        # 12-byte records (f8 + u4): the cost model must price real record
        # bytes, not 8 bytes per element.
        recs = np.zeros(10, dtype=RECORD_DTYPE)
        assert sizeof(recs) == 120
        assert sizeof(recs[0]) == 12  # np.void scalar row
        assert sizeof([recs[0], recs[1]]) == 24

    def test_dispatch_cache_handles_new_types(self):
        class Fresh:
            def __init__(self):
                self.x = np.zeros(2, np.int64)

        # A type sizeof has never seen counts its attributes.
        assert sizeof(Fresh()) == 16
