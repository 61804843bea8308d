"""Execute doctest examples embedded in public-API docstrings."""

import doctest

import pytest

import repro
import repro.algorithms
import repro.algorithms.dataset
import repro.algorithms.sorter
import repro.algorithms.spec
import repro.bsp.node
import repro.experiments
import repro.experiments.scenario
import repro.machines
import repro.machines.registry
import repro.machines.spec
import repro.machines.topologies
import repro.metrics.verify
import repro.records.schema
import repro.runtime
import repro.runtime.base
import repro.telemetry.metrics
import repro.telemetry.spans
import repro.utils.registry
import repro.utils.rng

MODULES = [
    repro,
    repro.algorithms,
    repro.algorithms.dataset,
    repro.algorithms.sorter,
    repro.algorithms.spec,
    repro.bsp.node,
    repro.experiments,
    repro.experiments.scenario,
    repro.machines,
    repro.machines.registry,
    repro.machines.spec,
    repro.machines.topologies,
    repro.metrics.verify,
    repro.records.schema,
    repro.runtime,
    repro.runtime.base,
    repro.telemetry.metrics,
    repro.telemetry.spans,
    repro.utils.registry,
    repro.utils.rng,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(
        module, optionflags=doctest.ELLIPSIS, verbose=False
    )
    assert result.failed == 0
    assert result.attempted >= 0
