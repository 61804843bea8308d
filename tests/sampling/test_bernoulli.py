"""Tests for Bernoulli sampling (Sampling Method 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.bernoulli import (
    bernoulli_sample,
    bernoulli_sample_in_intervals,
    expected_total_sample,
    sample_ranges,
)
from repro.theory.bounds import binomial_upper_quantile


class TestBernoulliSample:
    def test_prob_zero_empty(self, rng):
        keys = np.arange(100)
        assert len(bernoulli_sample(keys, 0.0, rng)) == 0

    def test_prob_one_everything(self, rng):
        keys = np.arange(100)
        out = bernoulli_sample(keys, 1.0, rng)
        assert np.array_equal(out, keys)

    def test_prob_clipped(self, rng):
        keys = np.arange(10)
        assert len(bernoulli_sample(keys, 5.0, rng)) == 10
        assert len(bernoulli_sample(keys, -1.0, rng)) == 0

    def test_empty_input(self, rng):
        keys = np.empty(0, dtype=np.int64)
        assert len(bernoulli_sample(keys, 0.5, rng)) == 0

    def test_subset_without_duplicates(self, rng):
        keys = np.arange(1000)
        out = bernoulli_sample(keys, 0.3, rng)
        assert len(np.unique(out)) == len(out)
        assert np.all(np.isin(out, keys))

    def test_preserves_relative_order(self, rng):
        keys = np.arange(1000)  # sorted input -> sample must be sorted
        out = bernoulli_sample(keys, 0.2, rng)
        assert np.all(np.diff(out) > 0)

    def test_sample_size_concentrates(self):
        # Statistically sound bound: P[fail] < 1e-9 per the Chernoff quantile.
        rng = np.random.default_rng(0)
        n, prob = 100_000, 0.01
        hi = binomial_upper_quantile(n, prob, 1e-9)
        out = bernoulli_sample(np.arange(n), prob, rng)
        assert len(out) <= hi
        assert len(out) >= 2 * n * prob - hi  # symmetric-ish lower guard

    def test_deterministic_under_seed(self):
        keys = np.arange(500)
        a = bernoulli_sample(keys, 0.1, np.random.default_rng(3))
        b = bernoulli_sample(keys, 0.1, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestIntervalSampling:
    def test_no_intervals(self, rng):
        out = bernoulli_sample_in_intervals(np.arange(100), [], 1.0, rng)
        assert len(out) == 0

    def test_closed_interval_includes_endpoints(self, rng):
        keys = np.arange(100)
        out = bernoulli_sample_in_intervals(keys, [(10, 20)], 1.0, rng)
        assert np.array_equal(out, np.arange(10, 21))

    def test_outside_interval_never_sampled(self, rng):
        keys = np.arange(1000)
        out = bernoulli_sample_in_intervals(keys, [(100, 200)], 0.5, rng)
        assert np.all((out >= 100) & (out <= 200))

    def test_multiple_disjoint_intervals(self, rng):
        keys = np.arange(1000)
        out = bernoulli_sample_in_intervals(
            keys, [(0, 49), (500, 549)], 1.0, rng
        )
        assert len(out) == 100
        assert np.all((out <= 49) | ((out >= 500) & (out <= 549)))

    def test_interval_outside_data(self, rng):
        keys = np.arange(100)
        out = bernoulli_sample_in_intervals(keys, [(500, 600)], 1.0, rng)
        assert len(out) == 0

    def test_sentinel_extremes_cover_everything(self, rng):
        keys = np.arange(100, dtype=np.int64)
        info = np.iinfo(np.int64)
        out = bernoulli_sample_in_intervals(
            keys, [(info.min, info.max)], 1.0, rng
        )
        assert len(out) == 100

    def test_unsigned_zero_lo_sentinel(self, rng):
        # Closed semantics: a uint key equal to 0 must still be sampleable.
        keys = np.arange(10, dtype=np.uint64)
        out = bernoulli_sample_in_intervals(
            keys, [(np.uint64(0), np.uint64(2**63))], 1.0, rng
        )
        assert len(out) == 10

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=20)
    def test_output_always_subset(self, prob):
        rng = np.random.default_rng(1)
        keys = np.arange(200)
        out = bernoulli_sample_in_intervals(keys, [(50, 150)], prob, rng)
        assert np.all(np.isin(out, np.arange(50, 151)))



class TestSampleRanges:
    def test_prob_one_takes_every_position_without_draws(self, rng):
        state = rng.bit_generator.state
        out = sample_ranges([2, 7], [5, 9], 1.0, rng)
        assert out.dtype == np.int64
        assert np.array_equal(out, [2, 3, 4, 7, 8])
        assert rng.bit_generator.state == state

    def test_prob_zero_and_empty_ranges_draw_nothing(self, rng):
        state = rng.bit_generator.state
        assert len(sample_ranges([0], [100], 0.0, rng)) == 0
        assert len(sample_ranges([5, 9], [5, 3], 0.5, rng)) == 0
        assert len(sample_ranges([], [], 0.5, rng)) == 0
        assert rng.bit_generator.state == state

    def test_positions_stay_inside_ranges_in_order(self, rng):
        out = sample_ranges([100, 0], [200, 50], 0.5, rng)
        first = out[out >= 100]
        assert np.array_equal(out[: len(first)], first)  # range order kept
        assert np.all(np.diff(first) > 0)
        assert np.all(out[len(first):] < 50)


class TestEndpointDtype:
    """Endpoints are searched in the key dtype, exactly, above 2**53 too."""

    def test_uint64_python_int_endpoints_above_2_53(self, rng):
        keys = np.uint64(2**60) + np.arange(8, dtype=np.uint64)
        out = bernoulli_sample_in_intervals(
            keys, [(2**60 + 3, 2**60 + 4)], 1.0, rng
        )
        assert out.dtype == np.uint64
        assert out.tolist() == [2**60 + 3, 2**60 + 4]

    def test_int64_python_int_endpoints_above_2_53(self, rng):
        keys = np.int64(2**60) + np.arange(8, dtype=np.int64)
        out = bernoulli_sample_in_intervals(
            keys, [(2**60 + 3, 2**60 + 4)], 1.0, rng
        )
        assert out.dtype == np.int64
        assert out.tolist() == [2**60 + 3, 2**60 + 4]

    def test_float32_python_float_endpoints(self, rng):
        keys = np.linspace(0.1, 0.8, 8, dtype=np.float32)
        lo, hi = float(keys[3]), float(keys[4])
        out = bernoulli_sample_in_intervals(keys, [(lo, hi)], 1.0, rng)
        assert out.dtype == np.float32
        assert np.array_equal(out, keys[3:5])


def _reference_sample(keys, prob, rng):
    """Whole-array Bernoulli sampling, one binomial + one choice draw."""
    prob = min(1.0, max(0.0, float(prob)))
    n = len(keys)
    if n == 0 or prob == 0.0:
        return keys[:0]
    if prob >= 1.0:
        return keys.copy()
    count = rng.binomial(n, prob)
    if count == 0:
        return keys[:0]
    idx = rng.choice(n, size=count, replace=False)
    idx.sort()
    return keys[idx]


def _reference_in_intervals(sorted_keys, intervals, prob, rng):
    """Per-interval scalar searches with endpoints as typed scalars."""
    prob = min(1.0, max(0.0, float(prob)))
    if len(sorted_keys) == 0 or prob == 0.0 or not intervals:
        return sorted_keys[:0]
    typed = sorted_keys.dtype.type
    pieces = []
    for lo, hi in intervals:
        start = int(np.searchsorted(sorted_keys, typed(lo), side="left"))
        stop = int(np.searchsorted(sorted_keys, typed(hi), side="right"))
        if stop > start:
            pieces.append(_reference_sample(sorted_keys[start:stop], prob, rng))
    if not pieces:
        return sorted_keys[:0]
    return np.concatenate(pieces)


_KEY_VALUES = {
    "int64": st.integers(-(2**63), 2**63 - 1),
    "uint64": st.integers(0, 2**64 - 1),
    "float64": st.floats(allow_nan=False, width=64),
    "float32": st.floats(allow_nan=False, width=32),
}


@st.composite
def _sampler_cases(draw):
    dtype = np.dtype(draw(st.sampled_from(sorted(_KEY_VALUES))))
    values = _KEY_VALUES[dtype.name]
    # A small shared pool makes duplicate keys and key-valued endpoints common.
    pool = draw(st.lists(values, min_size=1, max_size=12))
    pick = st.one_of(st.sampled_from(pool), values)
    keys = np.sort(np.array(draw(st.lists(pick, max_size=60)), dtype=dtype))
    ends = np.unique(np.array(draw(st.lists(pick, max_size=16)), dtype=dtype))
    ends = ends.tolist()  # Python scalars, as MergedIntervals.pairs() gives
    intervals = []
    for t in range(0, len(ends) - 1, 2):
        lo, hi = ends[t], ends[t + 1]
        intervals.append((lo, lo) if draw(st.booleans()) else (lo, hi))
    prob = draw(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 2.5]))
    )
    return keys, intervals, prob, draw(st.integers(0, 2**32 - 1))


@given(_sampler_cases())
@settings(max_examples=200, deadline=None)
def test_interval_sampler_pins_the_rng_stream(case):
    """Two array searches draw exactly what per-interval searches drew."""
    keys, intervals, prob, seed = case
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    out = bernoulli_sample_in_intervals(keys, intervals, prob, rng_new)
    ref = _reference_in_intervals(keys, intervals, prob, rng_ref)
    assert out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state

def test_expected_total_sample():
    assert expected_total_sample(1000, 0.1) == pytest.approx(100.0)
    assert expected_total_sample(1000, 2.0) == pytest.approx(1000.0)
    assert expected_total_sample(0, 0.5) == 0.0
