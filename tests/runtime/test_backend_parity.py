"""Backend parity: real backends must be bit-identical to the simulator.

The backend contract (see :mod:`repro.runtime`) is that *how* ranks execute
changes nothing observable except wall-clock: sorted shards, payloads,
splitter choices, per-algorithm stats, ``CommStats`` byte/message counts and
the modeled makespan all match exactly.  These tests run every registered
algorithm on a small grid through the process and thread backends and
compare everything against the simulator.
"""

import dataclasses
import pickle
import threading
import time

import numpy as np
import pytest

from repro.algorithms import REGISTRY, Dataset, Sorter
from repro.bsp.engine import BSPEngine, RunResult
from repro.errors import BSPError, CollectiveMismatchError, DeadlockError
from repro.runtime import (
    Backend,
    ProcessBackend,
    SimulatedBackend,
    ThreadBackend,
)

P = 4
N_PER = 300
WORKLOAD_NAMES = ("uniform", "staircase")

GRID = [
    (algorithm, workload)
    for algorithm in sorted(REGISTRY)
    for workload in WORKLOAD_NAMES
]


def _run(algorithm: str, workload: str, backend) -> object:
    dataset = Dataset.from_workload(workload, p=P, n_per=N_PER, seed=11)
    # Fixed-round HSS variants guarantee balance only w.h.p.; at this tiny
    # scale run them best-effort, as the shootout suite does.
    kwargs = {"strict": False} if algorithm.startswith("hss-") else {}
    config = REGISTRY.get(algorithm).legacy_config(eps=0.2, seed=3, **kwargs)
    return Sorter(
        algorithm, config=config, backend=backend, verify=False
    ).run(dataset)


def _assert_stats_equal(a, b) -> None:
    """Field-wise stats comparison (ndarray fields need array_equal)."""
    assert type(a) is type(b)
    if a is None:
        return
    assert dataclasses.is_dataclass(a), a
    for field in dataclasses.fields(a):
        lhs = getattr(a, field.name)
        rhs = getattr(b, field.name)
        if isinstance(lhs, np.ndarray):
            # Splitter choices, bucket maps, ... must match exactly.
            np.testing.assert_array_equal(lhs, rhs, err_msg=field.name)
        else:
            assert lhs == rhs, f"{field.name}: {lhs!r} != {rhs!r}"


@pytest.mark.parametrize(
    "algorithm,workload", GRID, ids=[f"{a}-{w}" for a, w in GRID]
)
def test_process_backend_bit_identical(algorithm, workload):
    sim = _run(algorithm, workload, SimulatedBackend())
    proc = _run(algorithm, workload, ProcessBackend(workers=2))

    for rank, (a, b) in enumerate(zip(sim.shards, proc.shards)):
        np.testing.assert_array_equal(a, b, err_msg=f"rank {rank} shard")
    assert sim.engine_result.stats == proc.engine_result.stats
    assert sim.makespan == proc.makespan
    for a, b in zip(sim.rank_stats, proc.rank_stats):
        _assert_stats_equal(a, b)
    assert sim.backend == "simulated" and proc.backend == "process"
    assert proc.measured.workers == 2
    assert proc.measured.wall_s > 0.0
    assert len(proc.measured.rank_compute_s) == P


@pytest.mark.parametrize(
    "algorithm,workload", GRID, ids=[f"{a}-{w}" for a, w in GRID]
)
def test_thread_backend_bit_identical(algorithm, workload):
    sim = _run(algorithm, workload, SimulatedBackend())
    thr = _run(algorithm, workload, ThreadBackend(workers=2))

    for rank, (a, b) in enumerate(zip(sim.shards, thr.shards)):
        np.testing.assert_array_equal(a, b, err_msg=f"rank {rank} shard")
    assert sim.engine_result.stats == thr.engine_result.stats
    assert sim.makespan == thr.makespan
    for a, b in zip(sim.rank_stats, thr.rank_stats):
        _assert_stats_equal(a, b)
    assert sim.backend == "simulated" and thr.backend == "thread"
    assert thr.measured.workers == 2
    assert thr.measured.wall_s > 0.0
    assert len(thr.measured.rank_compute_s) == P
    assert thr.measured.phase_wall_s


class EngineBackend(Backend):
    """A bare :meth:`BSPEngine.run`, without the registry's adapter."""

    name = "engine"
    description = "BSPEngine.run called directly"

    def run(self, program, rank_args, *, machine=None, node_layout=None,
            trace_sink=None, **shared_kwargs):
        engine = BSPEngine(
            len(rank_args), machine=machine, node_layout=node_layout
        )
        return engine.run(
            program, rank_args, trace_sink=trace_sink, **shared_kwargs
        )


LOOP_P = 16


@pytest.mark.parametrize(
    "algorithm", ["hss", "hss-node", "sample-regular", "histogram"]
)
def test_one_loop_same_results_and_measurements(algorithm):
    """The engine, the simulator and one thread worker share one loop:
    identical modeled results, and the same measured shape."""
    dataset = Dataset.from_workload(
        "changa-dwarf", p=LOOP_P, n_per=N_PER, seed=11
    )
    results = [
        Sorter(algorithm, backend=backend, verify=False)
        .run(dataset)
        .engine_result
        for backend in (
            EngineBackend(), SimulatedBackend(), ThreadBackend(workers=1)
        )
    ]
    reference = results[0]
    for result in results:
        assert pickle.dumps(result.returns) == pickle.dumps(reference.returns)
        assert list(result.trace) == list(reference.trace)
        assert result.stats == reference.stats
        measured = result.measured
        assert measured.workers == 1
        assert len(measured.rank_compute_s) == LOOP_P
        assert len(measured.rank_comm_wait_s) == LOOP_P
        # The same phases are measured on every runner, and each phase
        # of the modeled breakdown is among them.  The measured side may
        # add phases that cost no modeled time ('unlabeled' prologues).
        assert list(measured.phase_wall_s) == list(
            reference.measured.phase_wall_s
        )
        assert set(result.breakdown().phases()) <= set(measured.phase_wall_s)
    assert [r.measured.backend for r in results] == [
        "simulated", "simulated", "thread"
    ]


PAYLOAD_ALGORITHMS = sorted(
    name for name, spec in REGISTRY.items() if spec.supports_payloads
)
RECORD_COLUMNS = {"mass": "f8", "vx": "f4", "id": "u4"}


@pytest.mark.parametrize("algorithm", PAYLOAD_ALGORITHMS)
def test_record_payload_parity(algorithm):
    """Typed payload columns arrive bit-identical from both backends."""
    dataset = Dataset.from_workload(
        "uniform", p=P, n_per=N_PER, seed=11, payloads=RECORD_COLUMNS
    )
    kwargs = {"strict": False} if algorithm.startswith("hss-") else {}
    config = REGISTRY.get(algorithm).legacy_config(eps=0.2, seed=3, **kwargs)
    sim, proc = (
        Sorter(
            algorithm, config=config, backend=backend, verify=False
        ).run(dataset)
        for backend in (SimulatedBackend(), ProcessBackend(workers=2))
    )
    assert sim.payloads[0].dtype.names == tuple(RECORD_COLUMNS)
    for rank in range(P):
        np.testing.assert_array_equal(
            sim.shards[rank], proc.shards[rank], err_msg=f"rank {rank} keys"
        )
        np.testing.assert_array_equal(
            sim.payloads[rank],
            proc.payloads[rank],
            err_msg=f"rank {rank} payload columns",
        )
    assert sim.engine_result.stats == proc.engine_result.stats
    assert sim.makespan == proc.makespan
    for a, b in zip(sim.record_batches(), proc.record_batches()):
        assert a.equals(b)


def test_payload_round_trip_identical():
    dataset = Dataset.from_workload(
        "uniform", p=P, n_per=N_PER, seed=1
    ).with_index_payloads()
    runs = [
        Sorter(
            "hss", eps=0.2, seed=3, backend=backend, verify=False
        ).run(dataset)
        for backend in (SimulatedBackend(), ProcessBackend(workers=2))
    ]
    flat = np.concatenate(dataset.shards)
    for sim_keys, sim_pay, proc_pay in zip(
        runs[0].shards, runs[0].payloads, runs[1].payloads
    ):
        np.testing.assert_array_equal(sim_pay, proc_pay)
        np.testing.assert_array_equal(flat[proc_pay], sim_keys)


@pytest.mark.parametrize("workers", [1, 3, 4])
@pytest.mark.parametrize("backend_cls", [ProcessBackend, ThreadBackend])
def test_worker_multiplexing_is_invisible(backend_cls, workers):
    baseline = _run("hss", "uniform", SimulatedBackend())
    run = _run("hss", "uniform", backend_cls(workers=workers))
    for a, b in zip(baseline.shards, run.shards):
        np.testing.assert_array_equal(a, b)
    assert baseline.engine_result.stats == run.engine_result.stats
    assert run.measured.workers == min(workers, P)


# --------------------------------------------------------------------- #
# Error parity: SPMD violations surface identically from both backends. #
# --------------------------------------------------------------------- #
def _mismatch_program(ctx, keys):
    if ctx.rank == 0:
        yield from ctx.bcast(1, root=0)
    else:
        yield from ctx.gather(1, root=0)
    return keys


def _early_return_program(ctx, keys):
    if ctx.rank == 0:
        return keys
    yield from ctx.barrier()
    yield from ctx.barrier()
    return keys


def _bad_yield_program(ctx, keys):
    yield "not a collective"
    return keys


def _plain_function(ctx, keys):
    return keys


def _rank_args():
    return [(np.arange(10),) for _ in range(P)]


def _both_raise(program, exc_type):
    """Run on every backend; return the exception objects in order."""
    raised = []
    for backend in (
        SimulatedBackend(),
        ProcessBackend(workers=2),
        ThreadBackend(workers=2),
    ):
        with pytest.raises(exc_type) as info:
            backend.run(program, _rank_args())
        raised.append(info.value)
    return raised


@pytest.mark.parametrize(
    "backend",
    [SimulatedBackend(), ProcessBackend(workers=2)],
    ids=["simulated", "process"],
)
def test_hss_payloads_keep_equal_keys_in_input_order(backend):
    # Few distinct keys: every key value spans ranks.  Each payload is
    # its key's global input position, so a stable sort end to end
    # yields exactly the stable argsort of the concatenated input.
    rng = np.random.default_rng(4)
    keys = [rng.integers(0, 40, N_PER) for _ in range(P)]
    index = [np.arange(r * N_PER, (r + 1) * N_PER) for r in range(P)]
    run = Sorter("hss", eps=0.2, seed=3, backend=backend).run(
        Dataset.from_arrays(keys, payloads=index)
    )
    np.testing.assert_array_equal(
        np.concatenate(run.payloads),
        np.argsort(np.concatenate(keys), kind="stable"),
    )


def test_collective_mismatch_identical():
    sim, proc, thr = _both_raise(_mismatch_program, CollectiveMismatchError)
    assert str(sim) == str(proc) == str(thr)
    assert "bcast" in str(sim) and "gather" in str(sim)
    # The structured fields survive the process boundary too.
    for other in (proc, thr):
        assert (sim.superstep, sim.ranks) == (other.superstep, other.ranks)
    assert sim.superstep is not None
    assert sim.ranks


def test_deadlock_identical():
    sim, proc, thr = _both_raise(_early_return_program, DeadlockError)
    assert str(sim) == str(proc) == str(thr)
    assert "not SPMD" in str(sim)
    assert sim.superstep == proc.superstep == thr.superstep is not None
    assert sim.finished_ranks == proc.finished_ranks == thr.finished_ranks != ()
    assert sim.stuck_ranks == proc.stuck_ranks == thr.stuck_ranks != ()


@pytest.mark.parametrize(
    "program,exc_type",
    [
        (_mismatch_program, CollectiveMismatchError),
        (_early_return_program, DeadlockError),
    ],
    ids=["mismatch", "deadlock"],
)
def test_process_error_path_is_prompt(program, exc_type):
    # A worker blocked on the broker's reply must see EOF as soon as the
    # broker closes its pipe ends, not sit out the join timeout; thread
    # workers wake on the shutdown sentinel just as promptly.
    for backend in (ProcessBackend(workers=2), ThreadBackend(workers=2)):
        start = time.perf_counter()
        with pytest.raises(exc_type):
            backend.run(program, _rank_args())
        assert time.perf_counter() - start < 1.0


def test_bad_yield_identical():
    sim, proc, thr = _both_raise(_bad_yield_program, BSPError)
    assert str(sim) == str(proc) == str(thr)
    assert "yield from" in str(sim)


def test_plain_function_identical():
    sim, proc, thr = _both_raise(_plain_function, BSPError)
    assert str(sim) == str(proc) == str(thr)
    assert "generator function" in str(sim)


def test_program_exception_propagates():
    def _raises(ctx, keys):
        yield from ctx.barrier()
        raise ValueError("rank blew up")

    for backend in (
        SimulatedBackend(),
        ProcessBackend(workers=2),
        ThreadBackend(workers=2),
    ):
        with pytest.raises(ValueError, match="rank blew up"):
            backend.run(_raises, _rank_args())


def test_exception_calling_program_propagates():
    def _raises_on_call(ctx, keys):
        raise ValueError("no generator made")

    for backend in (
        SimulatedBackend(),
        ProcessBackend(workers=2),
        ThreadBackend(workers=2),
    ):
        with pytest.raises(ValueError, match="no generator made"):
            backend.run(_raises_on_call, _rank_args())


def _late_raise_program(ctx, keys):
    if ctx.rank == 0:
        time.sleep(0.2)
        raise ValueError("rank 0 blew up late")
    yield from ctx.barrier()
    return keys


def test_failing_process_run_prints_no_worker_traceback(capfd):
    # The other worker is blocked on a reply when the broker closes its
    # pipe; that reset must end the worker quietly.
    with pytest.raises(ValueError, match="rank 0 blew up late"):
        ProcessBackend(workers=2).run(_late_raise_program, _rank_args())
    assert "Traceback" not in capfd.readouterr().err


class _LockedError(Exception):
    """Holds a lock, so it cannot be pickled across processes."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _unpicklable_raise_program(ctx, keys):
    yield from ctx.barrier()
    if ctx.rank == 1:
        raise _LockedError("cannot cross")
    yield from ctx.barrier()
    return keys


def test_unpicklable_exception_reaches_the_caller():
    for backend in (SimulatedBackend(), ThreadBackend(workers=2)):
        with pytest.raises(_LockedError, match="cannot cross"):
            backend.run(_unpicklable_raise_program, _rank_args())
    with pytest.raises(
        BSPError, match=r"^rank 1 raised: \S*_LockedError: cannot cross$"
    ):
        ProcessBackend(workers=2).run(_unpicklable_raise_program, _rank_args())


@pytest.mark.parametrize(
    "backend_cls,name",
    [(ProcessBackend, "process"), (ThreadBackend, "thread")],
)
def test_real_backend_returns_runresult_with_measured(backend_cls, name):
    def _noop(ctx, keys):
        yield from ctx.barrier()
        return int(keys.sum())

    result = backend_cls(workers=2).run(_noop, _rank_args())
    assert isinstance(result, RunResult)
    assert result.returns == [int(np.arange(10).sum())] * P
    assert result.measured.backend == name
