"""Key-space adapters: plain keys vs. duplicate-tagged keys behind one API.

The HSS program, the scanning algorithm and the data-movement phase only
need five primitives over a rank's *sorted local array*:

* Bernoulli-sample probes from the union of splitter intervals,
* count local keys strictly below each probe (local histogram),
* find bucket boundary positions for final splitters,
* sort-and-deduplicate gathered probes,
* provide the dtype + interval sentinels for :class:`SplitterState`.

:class:`PlainKeySpace` implements them with direct ``searchsorted`` calls —
valid when the input has no (or few) duplicates, the paper's §2.1 baseline
assumption.

:class:`TaggedKeySpace` implements §4.3's *implicit tagging*: every key is
conceptually the triple ``(key, PE, index)``, giving a strict total order
even for constant inputs.  The tag is never materialized on the input side —
the trick is that for a *sorted* local array, the number of local tagged keys
below a tagged probe ``(k, pe, i)`` on processor ``r`` collapses to::

    r < pe :  searchsorted(local, k, side='right')   # all local copies of k precede
    r == pe:  i                                      # the probe's own sorted position
    r > pe :  searchsorted(local, k, side='left')    # all local copies of k follow

so histogramming and bucketizing stay O(log n) per probe.  Only *probes*
(the sample) carry explicit tags, as a structured array — exactly the
paper's observation that tagging "increases the size of the histogram by a
constant factor" while the input data is untouched.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.splitters import SplitterState
from repro.sampling.bernoulli import bernoulli_sample_in_intervals, sample_ranges
from repro.utils.arrays import sorted_unique

__all__ = ["PlainKeySpace", "TaggedKeySpace", "make_keyspace"]


class PlainKeySpace:
    """Adapter for duplicate-free inputs (the paper's default assumption)."""

    tagged = False

    def __init__(self, key_dtype: np.dtype | type) -> None:
        self.key_dtype = np.dtype(key_dtype)

    # -- SplitterState construction ------------------------------------
    def make_state(
        self, total_keys: int, nparts: int, eps: float, **state_kwargs
    ) -> SplitterState:
        return SplitterState(
            total_keys, nparts, eps, key_dtype=self.key_dtype, **state_kwargs
        )

    # -- probes ---------------------------------------------------------
    def sample(
        self,
        local_sorted: np.ndarray,
        rank: int,
        intervals: Sequence[tuple] | None,
        prob: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Bernoulli-sample probe keys (whole input when ``intervals`` is None)."""
        if intervals is None:
            intervals = (
                [(local_sorted[0], local_sorted[-1])] if len(local_sorted) else []
            )
        return bernoulli_sample_in_intervals(local_sorted, intervals, prob, rng)

    def sort_unique_probes(self, pieces: Sequence[np.ndarray]) -> np.ndarray:
        """Merge gathered per-rank samples into sorted, deduplicated probes."""
        nonempty = [x for x in pieces if len(x)]
        if not nonempty:
            return np.empty(0, dtype=self.key_dtype)
        return sorted_unique(np.concatenate(nonempty))

    # -- histograms & buckets -------------------------------------------
    def local_counts(
        self, local_sorted: np.ndarray, rank: int, probes: np.ndarray
    ) -> np.ndarray:
        """Local keys strictly below each probe."""
        return np.searchsorted(local_sorted, probes, side="left").astype(np.int64)

    def bucket_positions(
        self, local_sorted: np.ndarray, rank: int, splitters: np.ndarray
    ) -> np.ndarray:
        """Boundary positions: bucket ``i`` owns ``[S_i, S_{i+1})``."""
        return np.searchsorted(local_sorted, splitters, side="left").astype(np.int64)

    # -- output ----------------------------------------------------------
    def strip(self, keys: np.ndarray) -> np.ndarray:
        """Final output keys (identity for plain keys)."""
        return keys


class TaggedKeySpace:
    """Adapter implementing §4.3 implicit ``(key, PE, index)`` tagging."""

    tagged = True

    def __init__(self, key_dtype: np.dtype | type) -> None:
        self.base_dtype = np.dtype(key_dtype)
        #: Structured probe dtype; numpy sorts it lexicographically by field
        #: order, which is exactly the tag order we need.
        self.key_dtype = np.dtype(
            [("key", self.base_dtype), ("pe", np.int64), ("idx", np.int64)]
        )

    # -- SplitterState construction ------------------------------------
    def make_state(
        self, total_keys: int, nparts: int, eps: float, **state_kwargs
    ) -> SplitterState:
        if np.issubdtype(self.base_dtype, np.floating):
            kmin, kmax = -np.inf, np.inf
        else:
            info = np.iinfo(self.base_dtype)
            kmin, kmax = info.min, info.max
        lo = np.array([(kmin, -1, -1)], dtype=self.key_dtype)[0]
        hi = np.array(
            [(kmax, np.iinfo(np.int64).max, np.iinfo(np.int64).max)],
            dtype=self.key_dtype,
        )[0]
        return SplitterState(
            total_keys,
            nparts,
            eps,
            key_dtype=self.key_dtype,
            lo_sentinel=lo,
            hi_sentinel=hi,
            **state_kwargs,
        )

    # -- the §4.3 position rule -----------------------------------------
    def _positions(
        self, local_sorted: np.ndarray, rank: int, tagged: np.ndarray
    ) -> np.ndarray:
        """Number of local tagged keys strictly below each tagged probe."""
        keys = tagged["key"]
        left = np.searchsorted(local_sorted, keys, side="left").astype(np.int64)
        right = np.searchsorted(local_sorted, keys, side="right").astype(np.int64)
        own = np.clip(tagged["idx"], left, right)
        return np.where(
            rank < tagged["pe"], right, np.where(rank > tagged["pe"], left, own)
        ).astype(np.int64)

    # -- probes ---------------------------------------------------------
    def sample(
        self,
        local_sorted: np.ndarray,
        rank: int,
        intervals: Sequence[tuple] | None,
        prob: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        n = len(local_sorted)
        if intervals is None:
            starts, stops = [0], [n]
        else:
            tagged_pairs = np.array(
                [lo for lo, _ in intervals] + [hi for _, hi in intervals],
                dtype=self.key_dtype,
            )
            pos = self._positions(local_sorted, rank, tagged_pairs)
            half = len(intervals)
            starts, stops = pos[:half], np.minimum(n, pos[half:] + 1)
        idx = sample_ranges(starts, stops, prob, rng)
        out = np.empty(len(idx), dtype=self.key_dtype)
        out["key"] = local_sorted[idx]
        out["pe"] = rank
        out["idx"] = idx
        return out

    def sort_unique_probes(self, pieces: Sequence[np.ndarray]) -> np.ndarray:
        nonempty = [x for x in pieces if len(x)]
        if not nonempty:
            return np.empty(0, dtype=self.key_dtype)
        return sorted_unique(np.concatenate(nonempty))

    # -- histograms & buckets -------------------------------------------
    def local_counts(
        self, local_sorted: np.ndarray, rank: int, probes: np.ndarray
    ) -> np.ndarray:
        return self._positions(local_sorted, rank, probes)

    def bucket_positions(
        self, local_sorted: np.ndarray, rank: int, splitters: np.ndarray
    ) -> np.ndarray:
        return self._positions(local_sorted, rank, splitters)

    # -- output ----------------------------------------------------------
    def strip(self, keys: np.ndarray) -> np.ndarray:
        """Tagged mode moves plain keys; stripping is the identity too."""
        return keys


def make_keyspace(key_dtype: np.dtype | type, tag_duplicates: bool):
    """Factory choosing the adapter for a configuration."""
    if tag_duplicates:
        return TaggedKeySpace(key_dtype)
    return PlainKeySpace(key_dtype)
