"""Record transport through the process backend: no pickling, no leaks.

Three contracts of the process backend's data channel land here:

* **zero-pickle hot path** — payload columns and key arrays travel between
  the broker and its workers through named shared-memory segments only;
  the pipes carry skeletons with :class:`~repro.bsp.collectives.ArrayRef`
  descriptors in their place.  A pickler that refuses plain ndarrays
  proves it.
* **data moves once** — the broker routes the refs of a routing
  collective without mapping the segments they name; each receiver copies
  straight from the sender's segment.  The broker maps segments only for
  the payloads it reads (reductions, finished ranks' values).
* **crash hygiene** — a worker dying mid-superstep (``os._exit``, no
  cleanup handlers run), even after peers received refs into its
  segments, must not leak ``/dev/shm`` segments: the broker's teardown
  unlinks every segment a sweep left and probes for in-flight batches the
  dead worker created.
"""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from repro.algorithms import Dataset, Sorter
from repro.bsp.engine import SuperstepResolver
from repro.errors import BSPError
from repro.runtime import ProcessBackend, SimulatedBackend, shm

P = 4
DEV_SHM = "/dev/shm"

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method (patch/namespace shared with workers)",
)


def _payload_dataset(n_per: int = 200) -> Dataset:
    return Dataset.from_workload(
        "uniform", p=P, n_per=n_per, seed=5,
        payloads={"mass": "f8", "vx": "f4", "id": "u4"},
    )


# --------------------------------------------------------------------- #
# Zero-pickle hot path.                                                 #
# --------------------------------------------------------------------- #
def _assert_no_plain_arrays(obj, path="message", depth=0):
    """Fail if any non-object ndarray hides in a to-be-pickled message."""
    if depth > 12:
        return
    if isinstance(obj, np.ndarray):
        if not obj.dtype.hasobject:
            raise AssertionError(
                f"fixed-width ndarray (dtype {obj.dtype}, {obj.nbytes} "
                f"bytes) reached the pickler at {path}; arrays must ride "
                f"shared memory"
            )
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_no_plain_arrays(v, f"{path}[{k!r}]", depth + 1)
    elif isinstance(obj, (tuple, list)):
        for i, v in enumerate(obj):
            _assert_no_plain_arrays(v, f"{path}[{i}]", depth + 1)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _assert_no_plain_arrays(
                getattr(obj, f.name), f"{path}.{f.name}", depth + 1
            )


@pytest.fixture
def no_array_pickling(monkeypatch):
    """Make every pipe send (broker and forked workers) reject ndarrays."""
    import multiprocessing.connection as mpc
    from multiprocessing.reduction import ForkingPickler

    class NoArrayPickler(ForkingPickler):
        @classmethod
        def dumps(cls, obj, protocol=None):
            _assert_no_plain_arrays(obj)
            return ForkingPickler.dumps(obj, protocol)

    monkeypatch.setattr(mpc, "_ForkingPickler", NoArrayPickler)


def test_payload_columns_never_pickled(no_array_pickling):
    """A record-carrying sort completes with the array-banning pickler.

    Broker-side violations raise directly; a worker-side violation kills
    the worker, which the broker reports as an unexpected exit — either
    way the test fails unless the column hot path is pickle-free.
    """
    dataset = _payload_dataset()
    run = Sorter(
        "hss", eps=0.2, seed=3, backend=ProcessBackend(workers=2),
        verify=False,
    ).run(dataset)
    baseline = Sorter(
        "hss", eps=0.2, seed=3, backend=SimulatedBackend(), verify=False
    ).run(dataset)
    for a, b in zip(run.shards, baseline.shards):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(run.payloads, baseline.payloads):
        np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------- #
# Data moves once.                                                      #
# --------------------------------------------------------------------- #
def _even_counts(n: int, p: int) -> np.ndarray:
    """Run lengths cutting ``n`` rows into ``p`` near-equal runs."""
    return np.diff(np.linspace(0, n, p + 1).astype(np.int64))


def _alltoallv_then_allreduce(ctx, keys, payload):
    counts = _even_counts(len(keys), ctx.nprocs)
    received = yield from ctx.alltoallv(counts, keys, payload)
    count = yield from ctx.allreduce(np.array([len(keys)]))
    return received, count


def test_broker_maps_no_segment_for_a_routing_collective(monkeypatch):
    broker = os.getpid()
    maps: list[str] = []
    maps_at_sweep: list[tuple[str, int]] = []
    real_map, real_sweep = shm.map_segment, SuperstepResolver.resolve_sweep

    def counting_map(name):
        if os.getpid() == broker:  # forked workers count into their copy
            maps.append(name)
        return real_map(name)

    def counting_sweep(self, yields, finished):
        maps_at_sweep.append((yields[0].call.op, len(maps)))
        return real_sweep(self, yields, finished)

    monkeypatch.setattr(shm, "map_segment", counting_map)
    monkeypatch.setattr(SuperstepResolver, "resolve_sweep", counting_sweep)
    rank_args = _payload_dataset(n_per=64).rank_args()
    run = ProcessBackend(workers=2).run(_alltoallv_then_allreduce, rank_args)
    # Mapped while collecting each sweep: nothing for the alltoallv (its
    # counts ride in the skeleton, its runs are ArrayRef sub-slices), one
    # segment per worker for the allreduce the broker must add up.
    assert maps_at_sweep == [("alltoallv", 0), ("allreduce", 2)]
    baseline = SimulatedBackend().run(_alltoallv_then_allreduce, rank_args)
    for (received, count), (want_received, want_count) in zip(
        run.returns, baseline.returns
    ):
        for got, want in zip(received, want_received, strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(count, want_count)
    assert run.stats == baseline.stats


def _bare_array_routing(ctx, keys, payload):
    grid = np.arange(ctx.nprocs * 3).reshape(ctx.nprocs, 3) + 100 * ctx.rank
    (rows,) = yield from ctx.alltoallv([3] * ctx.nprocs, grid.ravel())
    chunk = yield from ctx.scatter(grid if ctx.rank == 0 else None)
    splitters = yield from ctx.bcast(grid[0] if ctx.rank == 0 else None)
    return np.concatenate([np.ravel(rows), chunk, splitters])


def test_collectives_indexing_a_bare_array_match_simulator():
    """scatter indexes into a 2-D array payload: the broker reads it.

    alltoallv routes the same grid's flattened rows as sub-refs unread.
    """
    rank_args = _payload_dataset(n_per=8).rank_args()
    run = ProcessBackend(workers=2).run(_bare_array_routing, rank_args)
    baseline = SimulatedBackend().run(_bare_array_routing, rank_args)
    for got, want in zip(run.returns, baseline.returns):
        np.testing.assert_array_equal(got, want)
    assert run.stats == baseline.stats


# --------------------------------------------------------------------- #
# Crash hygiene.                                                        #
# --------------------------------------------------------------------- #
def _crashing_program(ctx, keys, payload, exchanges):
    # Each alltoallv ships real arrays both ways, so named segments exist:
    # after one, peers hold refs into the crashing worker's segment; after
    # two, the first sweep's segments are already reclaimed.
    for _ in range(exchanges):
        yield from ctx.alltoallv(_even_counts(len(keys), ctx.nprocs), keys)
    if ctx.rank == 1:
        os._exit(1)  # no atexit, no finally: the hard-crash case
    yield from ctx.barrier()
    return keys


def _assert_crash_leaks_nothing(exchanges: int) -> None:
    before = set(os.listdir(DEV_SHM))
    dataset = _payload_dataset(n_per=50)
    with pytest.raises(BSPError, match="exited unexpectedly"):
        ProcessBackend(workers=2).run(
            _crashing_program, dataset.rank_args(), exchanges=exchanges
        )
    leaked = set(os.listdir(DEV_SHM)) - before
    assert not leaked, f"crash leaked shared-memory segments: {sorted(leaked)}"


@pytest.mark.skipif(
    not os.path.isdir(DEV_SHM), reason="needs a /dev/shm tmpfs"
)
def test_worker_crash_leaks_no_segments():
    """The crash comes after peers received refs into its segment."""
    _assert_crash_leaks_nothing(exchanges=1)


@pytest.mark.skipif(
    not os.path.isdir(DEV_SHM), reason="needs a /dev/shm tmpfs"
)
@pytest.mark.parametrize("exchanges", [0, 2])
def test_worker_crash_at_other_sweeps_leaks_no_segments(exchanges):
    _assert_crash_leaks_nothing(exchanges)


@pytest.mark.skipif(
    not os.path.isdir(DEV_SHM), reason="needs a /dev/shm tmpfs"
)
def test_clean_run_leaks_no_segments():
    before = set(os.listdir(DEV_SHM))
    Sorter(
        "hss", eps=0.2, seed=3, backend=ProcessBackend(workers=2),
        verify=False,
    ).run(_payload_dataset(n_per=50))
    leaked = set(os.listdir(DEV_SHM)) - before
    assert not leaked, f"sort leaked shared-memory segments: {sorted(leaked)}"
