"""Tests for the backend registry: built-ins, resolution, README table."""

import pathlib
import re

import pytest

from repro.errors import ConfigError
from repro.runtime import (
    BACKENDS,
    Backend,
    ProcessBackend,
    SimulatedBackend,
    ThreadBackend,
    get_backend,
    register_backend,
    resolve_backend,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert BACKENDS.names() == ["process", "simulated", "thread"]
        assert BACKENDS["simulated"] is SimulatedBackend
        assert BACKENDS["process"] is ProcessBackend
        assert BACKENDS["thread"] is ThreadBackend

    def test_get_backend_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            get_backend("mpi")

    def test_get_backend_with_options(self):
        assert get_backend("process", workers=3).workers == 3

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            get_backend("process", workers=0)

    def test_resolve_none_is_simulated(self):
        assert resolve_backend(None).name == "simulated"

    def test_resolve_passes_instances_through(self):
        backend = ProcessBackend(workers=2)
        assert resolve_backend(backend) is backend

    def test_resolve_rejects_options_on_instances(self):
        with pytest.raises(ConfigError, match="options"):
            resolve_backend(ProcessBackend(), workers=2)

    def test_resolve_rejects_other_types(self):
        with pytest.raises(ConfigError, match="cannot resolve"):
            resolve_backend(42)

    def test_register_requires_backend_subclass(self):
        with pytest.raises(ConfigError, match="Backend subclass"):
            register_backend(object)

    def test_register_requires_name_and_description(self):
        class Nameless(Backend):
            name = ""
            description = "x"

            def run(self, program, rank_args, **kwargs):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigError, match="must set a name"):
            register_backend(Nameless)

    def test_duplicate_name_rejected(self):
        class Impostor(Backend):
            name = "simulated"
            description = "not the real one"

            def run(self, program, rank_args, **kwargs):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigError, match="already registered"):
            register_backend(Impostor)

    def test_third_party_registration_round_trip(self):
        class Custom(Backend):
            name = "test-custom-backend"
            description = "registry round-trip probe"

            def run(self, program, rank_args, **kwargs):  # pragma: no cover
                raise NotImplementedError

        try:
            register_backend(Custom)
            assert resolve_backend("test-custom-backend").name == Custom.name
        finally:
            BACKENDS._entries.pop("test-custom-backend", None)


class TestReadmeBackendsTable:
    def test_readme_table_matches_registry(self):
        """The README execution-backends table is generated from BACKENDS."""
        readme = (
            pathlib.Path(__file__).parents[2] / "README.md"
        ).read_text()
        rows = re.findall(
            r"^\| `([a-z0-9-]+)` \| (yes|no) \| [^|]+ \|$", readme, re.M
        )
        documented = {name: is_default for name, is_default in rows}
        registered = {
            name: ("yes" if name == "simulated" else "no")
            for name in BACKENDS
        }
        assert documented == registered
