"""Package-level sanity: imports, exports, version, registry coherence."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

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
    "repro.machines",
    "repro.runtime",
    "repro.chaos",
    "repro.experiments",
    "repro.service",
    "repro.telemetry",
    "repro.calibrate",
    "repro.records",
    "repro.algorithms",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        # A fresh interpreter per package: inside this process an import
        # cycle hides behind whichever package happened to load first.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

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
