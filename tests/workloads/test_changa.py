"""Tests for ChaNGa-like cosmological particle workloads."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.changa import (
    dwarf_like_shards,
    lambb_like_shards,
    morton_keys_from_positions,
    plummer_positions,
)


class TestPlummer:
    def test_shapes_and_bounds(self, rng):
        pts = plummer_positions(1000, rng)
        assert pts.shape == (1000, 3)
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    def test_centered(self, rng):
        pts = plummer_positions(5000, rng, center=(0.5, 0.5, 0.5), scale=0.01)
        assert np.allclose(pts.mean(axis=0), 0.5, atol=0.02)

    def test_concentration_scales(self, rng):
        tight = plummer_positions(2000, rng, scale=0.001)
        loose = plummer_positions(2000, rng, scale=0.1)
        r_tight = np.linalg.norm(tight - 0.5, axis=1)
        r_loose = np.linalg.norm(loose - 0.5, axis=1)
        assert np.median(r_tight) < np.median(r_loose)

    def test_zero_particles(self, rng):
        assert plummer_positions(0, rng).shape == (0, 3)

    def test_negative_rejected(self, rng):
        with pytest.raises(WorkloadError):
            plummer_positions(-1, rng)


class TestMortonKeys:
    def test_dtype_and_range(self, rng):
        keys = morton_keys_from_positions(rng.random((100, 3)))
        assert keys.dtype == np.uint64
        assert int(keys.max()) < 1 << 63

    def test_bad_shape(self, rng):
        with pytest.raises(WorkloadError):
            morton_keys_from_positions(rng.random((10, 2)))


class TestDatasets:
    def test_dwarf_shapes(self):
        shards = dwarf_like_shards(4, 500, 3)
        assert len(shards) == 4 and all(len(s) == 500 for s in shards)
        assert all(s.dtype == np.uint64 for s in shards)

    def test_lambb_shapes(self):
        shards = lambb_like_shards(4, 500, 3)
        assert len(shards) == 4 and all(len(s) == 500 for s in shards)

    def test_deterministic(self):
        a = dwarf_like_shards(2, 200, 9)
        b = dwarf_like_shards(2, 200, 9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_dwarf_more_skewed_than_lambb(self):
        """Dwarf = one dominant halo; its key mass concentrates harder.

        Metric: fraction of key-space span holding 90% of the keys.
        """

        def span_fraction(shards, q=0.9):
            keys = np.sort(np.concatenate(shards).astype(np.float64))
            n = len(keys)
            lo, hi = keys[int(0.05 * n)], keys[int(0.95 * n)]
            return (hi - lo) / max(1.0, keys[-1] - keys[0])

        dwarf = span_fraction(dwarf_like_shards(4, 2000, 1))
        lambb = span_fraction(lambb_like_shards(4, 2000, 1))
        uniform_keys = np.random.default_rng(0).integers(
            0, 1 << 62, 8000
        ).astype(np.float64)
        uniform = (
            np.quantile(uniform_keys, 0.95) - np.quantile(uniform_keys, 0.05)
        ) / (
            uniform_keys.max() - uniform_keys.min()
        )
        assert dwarf < lambb < uniform

    def test_lambb_invalid_nhalos(self):
        with pytest.raises(WorkloadError):
            lambb_like_shards(2, 100, nhalos=1)

    def test_hss_sorts_both(self):
        from repro.algorithms import Sorter
        from repro.core.config import HSSConfig
        from repro.metrics import verify_sorted_output

        for maker in (dwarf_like_shards, lambb_like_shards):
            shards = maker(8, 800, 5)
            cfg = HSSConfig(eps=0.1, seed=1, tag_duplicates=True)
            run = Sorter("hss", config=cfg).run(shards)
            verify_sorted_output(shards, run.shards, 0.1)


class TestSoneiraPeebles:
    def test_shapes_and_bounds(self, rng):
        from repro.workloads.changa import soneira_peebles_positions

        pts = soneira_peebles_positions(2000, rng, levels=4)
        assert pts.shape == (2000, 3)
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    def test_hierarchy_deepens_concentration(self, rng):
        """More levels -> more key mass packs into the densest bins."""
        import numpy as np

        from repro.workloads.changa import (
            morton_keys_from_positions,
            soneira_peebles_positions,
        )

        def top_bin_mass(levels, seed):
            g = np.random.default_rng(seed)
            pts = soneira_peebles_positions(8000, g, levels=levels)
            keys = morton_keys_from_positions(pts).astype(np.float64)
            counts, _ = np.histogram(keys, bins=512)
            counts = np.sort(counts)[::-1]
            return counts[:8].sum() / counts.sum()

        assert top_bin_mass(8, 3) > top_bin_mass(2, 3)

    def test_invalid_params(self, rng):
        from repro.errors import WorkloadError
        from repro.workloads.changa import soneira_peebles_positions

        import pytest as _pytest

        with _pytest.raises(WorkloadError):
            soneira_peebles_positions(10, rng, levels=0)
        with _pytest.raises(WorkloadError):
            soneira_peebles_positions(10, rng, ratio=1.5)
        with _pytest.raises(WorkloadError):
            soneira_peebles_positions(10, rng, levels=20, eta=4)


class TestFractalDatasets:
    def test_shapes(self):
        from repro.workloads.changa import (
            fractal_dwarf_shards,
            fractal_lambb_shards,
        )

        for maker in (fractal_dwarf_shards, fractal_lambb_shards):
            shards = maker(4, 400, 3)
            assert len(shards) == 4 and all(len(s) == 400 for s in shards)

    def test_dwarf_deeper_than_lambb_for_bisection(self):
        """The Fig 6.2 ordering: classic histogram sort pays more rounds on
        the fractal dwarf than on the web."""
        import numpy as np

        from repro.core.rankspace import simulate_histogram_sort_rounds
        from repro.workloads.changa import (
            fractal_dwarf_shards,
            fractal_lambb_shards,
        )

        def rounds_for(maker):
            keys = np.sort(np.concatenate(maker(4, 25_000, 5)))
            keys = (
                (keys >> np.uint64(1))
                + np.arange(len(keys), dtype=np.uint64)
            ).astype(np.int64)

            def rank_of(q):
                return np.searchsorted(
                    keys, np.asarray(q, dtype=np.int64)
                ).astype(np.int64)

            sim = simulate_histogram_sort_rounds(
                len(keys), 64, 0.05, rank_of, int(keys[0]), int(keys[-1]),
                probes_per_splitter=3, max_rounds=300, key_dtype=np.int64,
            )
            return sim.rounds

        assert rounds_for(fractal_dwarf_shards) >= rounds_for(
            fractal_lambb_shards
        )
