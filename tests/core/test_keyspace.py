"""Tests for key-space adapters (plain and duplicate-tagged)."""

import numpy as np
import pytest

from repro.core.keyspace import PlainKeySpace, TaggedKeySpace, make_keyspace


class TestFactory:
    def test_plain(self):
        ks = make_keyspace(np.int64, False)
        assert isinstance(ks, PlainKeySpace) and not ks.tagged

    def test_tagged(self):
        ks = make_keyspace(np.int64, True)
        assert isinstance(ks, TaggedKeySpace) and ks.tagged


class TestPlainKeySpace:
    def setup_method(self):
        self.ks = PlainKeySpace(np.int64)
        self.keys = np.arange(0, 200, 2, dtype=np.int64)  # evens 0..398

    def test_local_counts(self):
        counts = self.ks.local_counts(self.keys, 0, np.array([0, 5, 100, 1000]))
        assert counts.tolist() == [0, 3, 50, 100]

    def test_bucket_positions_left_semantics(self):
        # Key equal to a splitter belongs to the splitter's own bucket.
        pos = self.ks.bucket_positions(self.keys, 0, np.array([100]))
        assert pos[0] == 50  # keys[50] == 100 goes right of the boundary

    def test_sample_whole_input(self, rng):
        out = self.ks.sample(self.keys, 0, None, 1.0, rng)
        assert np.array_equal(out, self.keys)

    def test_sort_unique(self):
        probes = self.ks.sort_unique_probes(
            [np.array([5, 1]), np.array([3, 1]), np.array([], dtype=np.int64)]
        )
        assert probes.tolist() == [1, 3, 5]

    def test_sort_unique_all_empty(self):
        probes = self.ks.sort_unique_probes([np.array([], dtype=np.int64)])
        assert len(probes) == 0 and probes.dtype == np.int64

    def test_make_state_dtype(self):
        state = self.ks.make_state(1000, 4, 0.05)
        assert state.key_dtype == np.int64


class TestTaggedKeySpace:
    def setup_method(self):
        self.ks = TaggedKeySpace(np.int64)
        # Local data with heavy duplicates, sorted.
        self.keys = np.array([5, 5, 5, 7, 7, 9], dtype=np.int64)

    def tag(self, key, pe, idx):
        return np.array([(key, pe, idx)], dtype=self.ks.key_dtype)

    def test_position_rule_lower_pe(self):
        # Probe from a lower PE: local copies of the key come AFTER it.
        probe = self.tag(5, 0, 1)
        pos = self.ks.local_counts(self.keys, 2, probe)
        assert pos[0] == 0

    def test_position_rule_higher_pe(self):
        probe = self.tag(5, 9, 0)
        pos = self.ks.local_counts(self.keys, 2, probe)
        assert pos[0] == 3  # all local 5s precede the probe

    def test_position_rule_same_pe(self):
        probe = self.tag(5, 2, 1)
        pos = self.ks.local_counts(self.keys, 2, probe)
        assert pos[0] == 1  # the probe's own sorted index

    def test_sentinels_cover_space(self):
        state = self.ks.make_state(100, 4, 0.05)
        lo, hi = state.lo_key[0], state.hi_key[0]
        pos_lo = self.ks.local_counts(
            self.keys, 2, np.array([lo], dtype=self.ks.key_dtype)
        )
        pos_hi = self.ks.local_counts(
            self.keys, 2, np.array([hi], dtype=self.ks.key_dtype)
        )
        assert pos_lo[0] == 0 and pos_hi[0] == len(self.keys)

    def test_sample_tags_carry_rank_and_position(self, rng):
        out = self.ks.sample(self.keys, 3, None, 1.0, rng)
        assert len(out) == len(self.keys)
        assert np.all(out["pe"] == 3)
        assert np.array_equal(np.sort(out["idx"]), np.arange(len(self.keys)))
        assert np.array_equal(out["key"][np.argsort(out["idx"])], self.keys)

    def test_probe_total_order_breaks_ties(self):
        a = self.tag(5, 0, 0)
        b = self.tag(5, 1, 0)
        c = self.tag(5, 1, 3)
        merged = self.ks.sort_unique_probes([c, a, b])
        assert np.array_equal(merged["pe"], [0, 1, 1])
        assert np.array_equal(merged["idx"], [0, 0, 3])

    def test_global_rank_consistency(self, rng):
        """Summed tagged positions give each probe a unique global rank."""
        p = 4
        locals_ = [np.sort(rng.integers(0, 5, 50).astype(np.int64)) for _ in range(p)]
        # Sample everything from rank 1.
        probes = self.ks.sample(locals_[1], 1, None, 1.0, rng)
        probes = self.ks.sort_unique_probes([probes])
        ranks = sum(
            self.ks.local_counts(locals_[r], r, probes) for r in range(p)
        )
        # Tag order is strict: all ranks distinct and increasing.
        assert np.all(np.diff(ranks) >= 1)

    def test_empty_local(self, rng):
        empty = np.empty(0, dtype=np.int64)
        assert len(self.ks.sample(empty, 0, None, 1.0, rng)) == 0
        probe = self.tag(5, 1, 0)
        assert self.ks.local_counts(empty, 0, probe)[0] == 0


def _reference_tagged_sample(ks, local_sorted, rank, intervals, prob, rng):
    """The tagged sampler's own per-range loop, before the shared helper."""
    n = len(local_sorted)
    if n == 0:
        return np.empty(0, dtype=ks.key_dtype)
    if intervals is None:
        ranges = [(0, n)]
    else:
        tagged_pairs = np.array(
            [lo for lo, _ in intervals] + [hi for _, hi in intervals],
            dtype=ks.key_dtype,
        )
        pos = ks._positions(local_sorted, rank, tagged_pairs)
        half = len(intervals)
        ranges = [
            (int(pos[t]), int(min(n, pos[half + t] + 1))) for t in range(half)
        ]
    prob = min(1.0, max(0.0, float(prob)))
    picks = []
    for start, stop in ranges:
        width = stop - start
        if width <= 0 or prob == 0.0:
            continue
        count = rng.binomial(width, prob) if prob < 1.0 else width
        if count == 0:
            continue
        idx = rng.choice(width, size=min(count, width), replace=False) + start
        idx.sort()
        picks.append(idx)
    if not picks:
        return np.empty(0, dtype=ks.key_dtype)
    idx = np.concatenate(picks)
    out = np.empty(len(idx), dtype=ks.key_dtype)
    out["key"] = local_sorted[idx]
    out["pe"] = rank
    out["idx"] = idx
    return out


class TestTaggedSamplerStream:
    """The tagged sampler draws through ``sample_ranges`` like plain keys."""

    ks = TaggedKeySpace(np.int64)
    keys = np.sort(np.random.default_rng(7).integers(0, 40, 500))
    intervals = [
        ((3, 0, 10), (9, 2, 40)),
        ((12, 1, 0), (12, 1, 0)),
        ((20, 4, 0), (31, 0, 90)),
        ((50, 0, 0), (60, 0, 0)),
    ]

    @pytest.mark.parametrize("prob", [0.0, 0.05, 0.3, 0.9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("use_intervals", [False, True])
    def test_matches_reference_below_prob_one(self, prob, seed, use_intervals):
        intervals = self.intervals if use_intervals else None
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        out = self.ks.sample(self.keys, 2, intervals, prob, rng_new)
        ref = _reference_tagged_sample(
            self.ks, self.keys, 2, intervals, prob, rng_ref
        )
        assert out.tobytes() == ref.tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_prob_one_same_keys_and_no_draws(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = self.ks.sample(self.keys, 2, self.intervals, 1.0, rng)
        ref = _reference_tagged_sample(
            self.ks, self.keys, 2, self.intervals, 1.0, np.random.default_rng(0)
        )
        assert out.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == state
