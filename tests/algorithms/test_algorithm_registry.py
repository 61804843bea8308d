"""Tests for the algorithm plugin registry and the typed specs."""

import pathlib
import re

import pytest

from repro.algorithms import REGISTRY, AlgorithmSpec, register_algorithm
from repro.errors import ConfigError


def _readme_table_names() -> set[str]:
    """Algorithm names from the table under README.md's Algorithms heading."""
    readme = (pathlib.Path(__file__).parents[2] / "README.md").read_text()
    section = readme.split("\n## Algorithms\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([a-z0-9-]+)` \|", section, re.M))


class TestRegistryContents:
    def test_every_algorithms_name_has_a_spec(self):
        for name, spec in REGISTRY.items():
            assert isinstance(spec, AlgorithmSpec)
            assert spec.name == name
            assert callable(spec.program)
            assert spec.config_cls is not None

    def test_specs_match_readme_table(self):
        table = _readme_table_names()
        assert table, "README.md algorithm table went missing"
        assert table == set(REGISTRY)

    def test_available_algorithms_sorted(self):
        assert list(REGISTRY) == REGISTRY.names() == sorted(REGISTRY.names())

    def test_get_spec_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            REGISTRY.get("quicksort")

    def test_paper_sections_present(self):
        for spec in REGISTRY.values():
            assert spec.paper_section, spec.name
            assert spec.description, spec.name

    def test_payload_capability_cover(self):
        payload_capable = {
            name for name, s in REGISTRY.items() if s.supports_payloads
        }
        # The capability flag must be true for at least these three.
        assert {"hss", "sample-regular", "histogram"} <= payload_capable

    def test_hss_node_needs_multicore(self):
        assert REGISTRY["hss-node"].needs_multicore
        flat = {n for n, s in REGISTRY.items() if not s.needs_multicore}
        assert "hss" in flat and "bitonic" in flat


class TestSpecConfigValidation:
    def test_unknown_config_key_names_valid_keys(self):
        with pytest.raises(ConfigError, match=r"key_bits"):
            REGISTRY["radix"].build_config(radix_width=8)

    def test_build_config_returns_typed_instance(self):
        spec = REGISTRY["histogram"]
        cfg = spec.build_config(eps=0.1, probes_per_splitter=5)
        assert isinstance(cfg, spec.config_cls)
        assert cfg.probes_per_splitter == 5

    def test_legacy_config_drops_eps_seed_when_inapplicable(self):
        cfg = REGISTRY["bitonic"].legacy_config(eps=0.3, seed=4)
        assert isinstance(cfg, REGISTRY["bitonic"].config_cls)

    def test_legacy_config_still_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            REGISTRY["bitonic"].legacy_config(eps=0.3, wrong=1)

    def test_excluded_keys_are_not_accepted(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            REGISTRY["hss"].build_config(schedule=None)

    def test_check_config_rejects_wrong_type(self):
        with pytest.raises(ConfigError, match="expects"):
            REGISTRY["radix"].check_config(object())

    def test_check_config_enforces_pinned_fields(self):
        from repro.core.config import HSSConfig

        # A hand-built flat config must not smuggle node_level=False into
        # the two-level algorithm.
        with pytest.raises(ConfigError, match="node_level"):
            REGISTRY["hss-node"].check_config(HSSConfig(eps=0.1))
        node_cfg = REGISTRY["hss-node"].build_config(eps=0.1)
        assert node_cfg.node_level is True
        assert REGISTRY["hss-node"].check_config(node_cfg) is node_cfg


class TestPluginRegistration:
    def test_decorator_registers_and_returns_program(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class _NullConfig:
            pass

        try:

            @register_algorithm(
                name="test-null",
                config_cls=_NullConfig,
                balanced=False,
                paper_section="—",
                description="test plugin",
            )
            def null_program(ctx, keys):
                yield from ()
                return keys

            assert REGISTRY["test-null"].program is null_program
            assert REGISTRY.get("test-null").description == "test plugin"
        finally:
            REGISTRY._entries.pop("test-null", None)

    def test_conflicting_reregistration_rejected(self):
        spec = REGISTRY["hss"]
        clone = AlgorithmSpec(
            name="hss",
            program=lambda ctx, keys: None,
            config_cls=spec.config_cls,
        )
        with pytest.raises(ConfigError, match="already registered"):
            register_algorithm(clone)

    def test_same_program_reregistration_is_idempotent(self):
        register_algorithm(REGISTRY["hss"])  # no raise


class TestCliAlgorithmsCommand:
    def test_lists_every_registered_algorithm(self, capsys):
        from repro.cli import main

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out
        # Capability flags are rendered.
        assert "payloads" in out and "multicore" in out
