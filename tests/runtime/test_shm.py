"""Tests for the shared-memory data channel's message layer."""

import itertools
import os

import numpy as np

from repro.bsp.collectives import ArrayRef
from repro.core.data_movement import Shard
from repro.runtime.shm import (
    copy_out,
    create_segment,
    fill_segment,
    pack_message,
    unlink_segment,
)

TAGGED = np.dtype([("key", "<i8"), ("pe", "<i8")])
_NAMES = itertools.count()


def _segment_name() -> str:
    return f"rprtest{os.getpid():x}x{next(_NAMES)}"


def _round_trip(message, read=copy_out):
    """Pack ``message`` into a fresh segment and read it back with ``read``."""
    name = _segment_name()
    packed, arrays, total = pack_message(message, name)
    try:
        if total:
            seg = create_segment(name, total)
            fill_segment(seg, arrays)
            seg.close()
        return packed, total, read(packed)
    finally:
        unlink_segment(name)


def _owner(arr: np.ndarray):
    """The object at the end of ``arr``'s chain of bases."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


class TestPackUnpack:
    def test_round_trip_plain_arrays(self):
        rng = np.random.default_rng(0)
        rows = [rng.integers(0, 100, 50) for _ in range(4)]
        packed, _, out = _round_trip(rows)
        assert all(isinstance(ref, ArrayRef) for ref in packed)
        assert len({ref.segment for ref in packed}) == 1
        assert [ref.nbytes for ref in packed] == [r.nbytes for r in rows]
        for orig, copy in zip(rows, out):
            np.testing.assert_array_equal(orig, copy)
            # A view of one private buffer, never of the segment.
            assert isinstance(_owner(copy), np.ndarray)
        assert len({id(_owner(copy)) for copy in out}) == 1

    def test_mixed_leaves_pass_through(self):
        keys = np.arange(10)
        payload = np.arange(10, dtype=np.float64)
        foreign = ArrayRef("elsewhere", 0, (3,), np.dtype(np.int64))
        packed, _, out = _round_trip(
            {"shard": Shard(keys, payload), "tag": ("label", 7)}
        )
        assert isinstance(packed["shard"].keys, ArrayRef)
        np.testing.assert_array_equal(out["shard"].keys, keys)
        np.testing.assert_array_equal(out["shard"].payload, payload)
        assert out["tag"] == ("label", 7)
        # A ref already in the tree is routed on untouched.
        routed, _, _ = pack_message([foreign], _segment_name())
        assert routed[0] is foreign

    def test_no_arrays_means_no_segment(self):
        packed, total, out = _round_trip([(1,), (2,)])
        assert total == 0
        assert packed == out == [(1,), (2,)]

    def test_structured_and_empty_arrays(self):
        tagged = np.zeros(3, dtype=TAGGED)
        tagged["key"] = [3, 1, 2]
        empty = np.empty(0, dtype=np.int64)
        _, _, out = _round_trip([tagged, empty])
        np.testing.assert_array_equal(out[0], tagged)
        assert out[0].dtype == TAGGED
        assert len(out[1]) == 0 and out[1].dtype == np.int64
        # Only empty leaves: no bytes, so no segment, yet they rebuild.
        _, total, out = _round_trip([empty])
        assert total == 0 and out[0].dtype == np.int64

    def test_non_contiguous_input(self):
        base = np.arange(20)
        strided = base[::2]
        packed, _, out = _round_trip([strided])
        assert packed[0].nbytes == strided.nbytes
        np.testing.assert_array_equal(out[0], strided)
