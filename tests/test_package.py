"""Package-level sanity: imports, exports, version, registry coherence."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.bsp",
    "repro.core",
    "repro.baselines",
    "repro.sampling",
    "repro.theory",
    "repro.workloads",
    "repro.metrics",
    "repro.perf",
    "repro.utils",
    "repro.bench",
    "repro.cli",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        module = importlib.import_module(name)
        assert module is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_top_level_api(self):
        assert callable(repro.sort)
        assert callable(repro.Sorter)
        assert "hss" in repro.REGISTRY


class TestRegistryCoherence:
    def test_thirteen_algorithms(self):
        assert len(repro.REGISTRY) == 13
