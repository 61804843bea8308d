"""One registry idiom: every named catalog shares its messages and rules."""

import re
from dataclasses import dataclass

import pytest

from repro.algorithms import REGISTRY, AlgorithmSpec, Sorter, register_algorithm
from repro.bench.registry import SUITES, register
from repro.bench.runner import run_suite
from repro.bsp.network import Topology, Torus
from repro.chaos import FAULT_PLANS, FaultPlan, make_fault_plan, register_fault_plan
from repro.errors import ConfigError
from repro.machines import (
    MACHINES,
    TOPOLOGIES,
    get_machine,
    make_topology,
    register_machine,
    register_topology,
)
from repro.runtime import (
    BACKENDS,
    Backend,
    SimulatedBackend,
    get_backend,
    register_backend,
)
from repro.workloads import WORKLOAD_SPECS, make_workload, register_workload


def _algorithm(equal):
    spec = REGISTRY["hss"]
    if equal:
        return register_algorithm(spec)
    return register_algorithm(
        AlgorithmSpec(name="hss", program=lambda ctx, keys: None,
                      config_cls=spec.config_cls)
    )


def _machine(equal):
    spec = MACHINES["laptop"]
    return register_machine(spec if equal else spec.override(alpha=1.0))


def _topology(equal):
    if equal:
        return register_topology(Torus)

    @dataclass(frozen=True)
    class FakeTorus(Topology):
        name: str = "torus"

    return register_topology(FakeTorus)


def _workload(equal):
    spec = WORKLOAD_SPECS["uniform"]
    description = spec.description if equal else "another uniform"
    return register_workload(
        "uniform", description=description, paper_section=spec.paper_section
    )(spec.fn)


def _backend(equal):
    if equal:
        return register_backend(SimulatedBackend)

    class Impostor(Backend):
        name = "simulated"
        description = "not the simulator"

        def run(self, program, rank_args, **kwargs):  # pragma: no cover
            raise NotImplementedError

    return register_backend(Impostor)


def _fault_plan(equal):
    if equal:
        return register_fault_plan(FAULT_PLANS["none"])
    return register_fault_plan(
        FaultPlan(name="none", description="not zero", drop_prob=0.5)
    )


def _suite(equal):
    bench = SUITES["table_5_1"]
    return register(
        bench.name,
        description=bench.description if equal else "another table",
        kind=bench.kind,
        tiers=bench.tiers,
        render=bench.render,
        artifact=bench.artifact,
        runtime_params=bench.runtime_params,
    )(bench.fn)


#: (kind, registry, register(equal: bool), public resolver of a name).
KINDS = [
    ("algorithm", REGISTRY, _algorithm, Sorter),
    ("machine", MACHINES, _machine, get_machine),
    ("topology", TOPOLOGIES, _topology, make_topology),
    ("workload", WORKLOAD_SPECS, _workload,
     lambda name: make_workload(name, 2, 10)),
    ("backend", BACKENDS, _backend, get_backend),
    ("fault plan", FAULT_PLANS, _fault_plan, make_fault_plan),
    ("benchmark suite", SUITES, _suite, run_suite),
]


@pytest.mark.parametrize(
    "kind, registry, register_entry, resolve", KINDS, ids=[k[0] for k in KINDS]
)
class TestEveryKind:
    def test_unknown_name_message(self, kind, registry, register_entry, resolve):
        expected = f"unknown {kind} 'nope'; choose from {registry.names()}"
        for lookup in (registry.get, resolve):
            with pytest.raises(ConfigError) as info:
                lookup("nope")
            assert type(info.value) is ConfigError
            assert str(info.value) == expected

    def test_equal_entry_is_a_no_op(self, kind, registry, register_entry, resolve):
        before = registry.items()
        register_entry(equal=True)
        assert registry.names() == [n for n, _ in before]
        assert all(registry[n] is entry for n, entry in before)

    def test_conflicting_entry_rejected(
        self, kind, registry, register_entry, resolve
    ):
        before = registry.items()
        with pytest.raises(ConfigError) as info:
            register_entry(equal=False)
        assert type(info.value) is ConfigError
        assert re.fullmatch(rf"{kind} '[\w-]+' is already registered",
                            str(info.value))
        assert all(registry[n] is entry for n, entry in before)
