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
* :func:`copy_out` and :func:`map_out` rebuild a tree on the receiving
  side, mapping each segment it names once.

The copy budget is one copy per hop:

* *send* — a sender copies each array into its segment once
  (:func:`fill_segment`);
* *receive in a worker* — :func:`map_out` hands the ranks views of the
  senders' segments through a private copy-on-write mapping, and the
  rank's own use is the one copy (``Context.alltoallv`` concatenates its
  runs).  A rank may write into what it received without reaching the
  segment, the sender or a rank of another worker; co-located ranks
  handed one ref (as by ``bcast``) share its view, as all ranks share
  one object on the in-process backends;
* *receive in the broker* — :func:`copy_out` copies each segment once
  into a fresh buffer, whose views are the values the broker reads and
  the outputs a run returns.

Outputs never alias shared memory.  Releasing shared-memory pages is
slow (about 5 ms for the 32 MB of outputs of a 16 x 262144-key run on a
2-core host), and that cost would land on whatever the caller does
next; freeing an ordinary buffer costs next to nothing.

Segments are created, mapped and unlinked directly through
``_posixshmem`` and ``mmap``, never through
:class:`multiprocessing.shared_memory.SharedMemory`: before Python 3.13
that class registers every attach with the resource tracker, forked
workers share one set-based tracker, and two workers attaching the same
segment would unregister it twice.  Here no process registers anything:
the broker unlinks every segment by name, exactly once.

Offsets are 64-byte aligned, and so is :func:`copy_out`'s buffer, so
every rebuilt array is aligned for any dtype, including the structured
dtypes the record schemas and the §4.3 tagged key space use.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import fields, is_dataclass, replace
from functools import partial
from typing import Any, Callable, Sequence

import _posixshmem
import numpy as np

from repro.bsp.collectives import ArrayRef

__all__ = [
    "pack_message",
    "fill_segment",
    "copy_out",
    "map_out",
    "create_segment",
    "map_segment",
    "unlink_segment",
]

_ALIGN = 64

#: Leaf types the tree walks return at once: most of a finished rank's
#: message is its timing segments, tuples of these.
_ATOMS = frozenset({int, float, str, bool, type(None)})


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
        if type(obj) in _ATOMS:
            return obj
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


def _rebuild(packed: Any, array_of: Callable[[ArrayRef], Any]) -> Any:
    """Copy a message tree, replacing each ArrayRef leaf by ``array_of(ref)``.

    A zero-byte ref becomes an empty array without a call.
    """
    if type(packed) in _ATOMS:
        return packed
    if isinstance(packed, ArrayRef):
        if not packed.nbytes:  # names no segment that need exist
            return np.empty(packed.shape, dtype=packed.dtype)
        return array_of(packed)
    if isinstance(packed, tuple):
        return tuple(_rebuild(x, array_of) for x in packed)
    if isinstance(packed, list):
        return [_rebuild(x, array_of) for x in packed]
    if isinstance(packed, dict):
        return {k: _rebuild(v, array_of) for k, v in packed.items()}
    if is_dataclass(packed) and not isinstance(packed, type):
        changes = {
            f.name: _rebuild(getattr(packed, f.name), array_of)
            for f in fields(packed)
            if f.init
        }
        try:
            return replace(packed, **changes)
        except Exception:
            return packed
    return packed


def _views(load: Callable[[str], Any]) -> Callable[[ArrayRef], np.ndarray]:
    """An ``array_of`` for :func:`_rebuild`: views into ``load(segment)``.

    Each segment is loaded once per rebuild.
    """
    loaded: dict[str, Any] = {}

    def view(ref: ArrayRef) -> np.ndarray:
        buf = loaded.get(ref.segment)
        if buf is None:
            buf = loaded[ref.segment] = load(ref.segment)
        return np.ndarray(ref.shape, dtype=ref.dtype, buffer=buf, offset=ref.offset)

    return view


def copy_out(packed: Any) -> Any:
    """Rebuild a tree with its arrays copied out of shared memory.

    Each segment the tree names is copied once, whole, into one fresh
    aligned buffer, and every array is a view of that buffer at its
    segment offset.  One large allocation faults far cheaper than one per
    array (numpy advises huge pages only from 4 MB up), and nothing
    aliases the segment: releasing the arrays later frees ordinary
    memory, not shared-memory pages.
    """
    return _rebuild(packed, _views(_copy_segment))


def _copy_segment(name: str) -> np.ndarray:
    """Segment ``name``'s bytes in a fresh ``_ALIGN``-aligned buffer."""
    seg = map_segment(name)
    try:
        buf = np.empty(len(seg) + _ALIGN, dtype=np.uint8)
        shift = -buf.ctypes.data % _ALIGN
        buf = buf[shift : shift + len(seg)]
        buf[:] = np.frombuffer(seg, dtype=np.uint8)
    finally:
        seg.close()
    return buf


def map_out(packed: Any) -> Any:
    """Rebuild a tree with its arrays as views of the segments they name.

    Each segment is mapped once, privately and copy-on-write: a view is
    writable, and what is written stays in this process and this call's
    mapping.  A mapping lives as long as some view of it does, so a
    segment unlinked meanwhile stays readable.  The caller that keeps
    the bytes copies them (``Context.alltoallv`` concatenates its runs).
    """
    return _rebuild(packed, _views(partial(map_segment, private=True)))


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


def map_segment(name: str, *, private: bool = False) -> mmap.mmap:
    """Map an existing segment read-only, or ``private`` copy-on-write."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
    try:
        size = os.fstat(fd).st_size
        if private:
            return mmap.mmap(fd, size, access=mmap.ACCESS_COPY)
        return mmap.mmap(fd, size, prot=mmap.PROT_READ)
    finally:
        os.close(fd)


def unlink_segment(name: str) -> None:
    """Unlink a segment by name without mapping it; tolerate it gone."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass
