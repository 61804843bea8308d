"""Shared-memory data channel for the process backend's array traffic.

The process backend splits its traffic the way a DMA engine splits a
control channel from a data channel: pipes carry pickled message
*skeletons*, and array bytes sit in named POSIX shared-memory segments.

* :func:`pack_message` walks a message tree (tuples, lists, dicts,
  dataclasses like ``_Call`` and ``Shard``), replaces every non-object
  ndarray leaf with an :class:`~repro.bsp.collectives.ArrayRef` naming the
  segment the sender is about to create, and returns the leaves for
  :func:`fill_segment`.  Refs already in the tree — descriptors the broker
  routes on to a receiver — pass through untouched, so one message can
  name segments of several senders.  Key and payload column buffers
  never pass through pickle.
* :class:`SegmentReader` rebuilds a tree, copying each ref's bytes out of
  the segment it names, mapping each segment once.

Segments are created, mapped and unlinked directly through
``_posixshmem`` and ``mmap``, never through
:class:`multiprocessing.shared_memory.SharedMemory`: before Python 3.13
that class registers every attach with the resource tracker, forked
workers share one set-based tracker, and two workers attaching the same
segment would unregister it twice.  Here no process registers anything:
the broker unlinks every segment by name, exactly once.

Offsets are 64-byte aligned so reconstructed views are always aligned for
any dtype, including the structured dtypes the record schemas and the
§4.3 tagged key space use.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import fields, is_dataclass, replace
from typing import Any, Sequence

import _posixshmem
import numpy as np

from repro.bsp.collectives import ArrayRef

__all__ = [
    "pack_message",
    "fill_segment",
    "SegmentReader",
    "create_segment",
    "map_segment",
    "unlink_segment",
]

_ALIGN = 64


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


class _TreePacker:
    """Walk a message tree, lifting ndarray leaves into ArrayRefs."""

    __slots__ = ("segment", "arrays", "total")

    def __init__(self, segment: str) -> None:
        self.segment = segment
        self.arrays: list[tuple[int, np.ndarray]] = []
        self.total = 0

    def walk(self, obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            if obj.dtype.hasobject:
                return obj  # object arrays must pickle: no flat buffer
            ref = ArrayRef(self.segment, self.total, obj.shape, obj.dtype)
            self.arrays.append((self.total, obj))
            self.total += _aligned(ref.nbytes)
            return ref
        if isinstance(obj, tuple):
            return tuple(self.walk(x) for x in obj)
        if isinstance(obj, list):
            return [self.walk(x) for x in obj]
        if isinstance(obj, dict):
            return {k: self.walk(v) for k, v in obj.items()}
        if isinstance(obj, ArrayRef):
            return obj
        if is_dataclass(obj) and not isinstance(obj, type):
            mark_arrays, mark_total = len(self.arrays), self.total
            changes = {
                f.name: self.walk(getattr(obj, f.name))
                for f in fields(obj)
                if f.init
            }
            try:
                return replace(obj, **changes)
            except Exception:
                # Non-replaceable dataclass pickles as-is; roll back the
                # array slots its leaves claimed in the segment.
                del self.arrays[mark_arrays:]
                self.total = mark_total
                return obj
        return obj


def pack_message(
    obj: Any, segment: str
) -> tuple[Any, list[tuple[int, np.ndarray]], int]:
    """Split a message tree into an array-free skeleton plus array leaves.

    Returns ``(packed, arrays, total)``: the skeleton with every non-object
    ndarray replaced by an :class:`ArrayRef` into ``segment``, the
    ``(offset, array)`` pairs to write there, and the segment size in
    bytes (0 when no leaf has bytes and no segment need exist).
    """
    packer = _TreePacker(segment)
    packed = packer.walk(obj)
    return packed, packer.arrays, packer.total


def fill_segment(
    seg: mmap.mmap, arrays: Sequence[tuple[int, np.ndarray]]
) -> None:
    """Write packed array leaves at their assigned offsets."""
    for offset, arr in arrays:
        dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg, offset=offset)
        dest[...] = arr


class SegmentReader:
    """Rebuild message trees, copying each ArrayRef out of its segment.

    A context manager: every segment is mapped on first use and unmapped
    on exit.  Zero-byte refs name no segment that need exist.
    """

    __slots__ = ("_maps",)

    def __init__(self) -> None:
        self._maps: dict[str, mmap.mmap] = {}

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc: object) -> None:
        for seg in self._maps.values():
            seg.close()
        self._maps.clear()

    def _array(self, ref: ArrayRef) -> np.ndarray:
        if not ref.nbytes:
            return np.empty(ref.shape, dtype=ref.dtype)
        seg = self._maps.get(ref.segment)
        if seg is None:
            seg = self._maps[ref.segment] = map_segment(ref.segment)
        view = np.ndarray(
            ref.shape, dtype=ref.dtype, buffer=seg, offset=ref.offset
        )
        return view.copy()

    def unpack(self, packed: Any) -> Any:
        if isinstance(packed, ArrayRef):
            return self._array(packed)
        if isinstance(packed, tuple):
            return tuple(self.unpack(x) for x in packed)
        if isinstance(packed, list):
            return [self.unpack(x) for x in packed]
        if isinstance(packed, dict):
            return {k: self.unpack(v) for k, v in packed.items()}
        if is_dataclass(packed) and not isinstance(packed, type):
            changes = {
                f.name: self.unpack(getattr(packed, f.name))
                for f in fields(packed)
                if f.init
            }
            try:
                return replace(packed, **changes)
            except Exception:
                return packed
        return packed


# ------------------------------------------------------------------ #
# Segment lifecycle, outside the resource tracker.
# ------------------------------------------------------------------ #
def create_segment(name: str, nbytes: int) -> mmap.mmap:
    """Create segment ``name`` of ``nbytes`` and map it read-write."""
    fd = _posixshmem.shm_open(
        "/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600
    )
    try:
        os.ftruncate(fd, nbytes)
        return mmap.mmap(fd, nbytes)
    except BaseException:
        unlink_segment(name)
        raise
    finally:
        os.close(fd)


def map_segment(name: str) -> mmap.mmap:
    """Map an existing segment read-only."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size, prot=mmap.PROT_READ)
    finally:
        os.close(fd)


def unlink_segment(name: str) -> None:
    """Unlink a segment by name without mapping it; tolerate it gone."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass
