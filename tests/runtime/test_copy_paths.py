"""The process backend's copy paths: what ranks receive and what runs return.

A worker hands its ranks views of the senders' segments (a private
copy-on-write mapping), and the broker copies each worker's final batch
into one buffer whose views are the outputs.  These tests pin what that
must not change: outputs are writable, independent, aligned and outlive
every segment, and a rank writing into what it received reaches nobody
else.
"""

import os

import numpy as np
import pytest

from repro.algorithms import Dataset, Sorter
from repro.runtime import ProcessBackend, SimulatedBackend

P = 4
TAGGED = np.dtype([("key", "<i8"), ("pe", "<i8")])


def _segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("rpr")}


def _owner(arr: np.ndarray):
    """The object at the end of ``arr``'s chain of bases."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


@pytest.fixture(scope="module")
def record_runs():
    dataset = Dataset.from_workload(
        "changa-dwarf", p=P, n_per=500, seed=3,
        payloads={"mass": "f8", "id": "u4"},
    )
    before = _segments()
    run = Sorter("hss", backend=ProcessBackend(workers=2)).run(dataset)
    assert _segments() <= before  # every segment of the run is unlinked
    return run, Sorter("hss").run(dataset)


class TestOutputs:
    def test_match_the_simulated_run_after_every_segment_is_gone(
        self, record_runs
    ):
        run, want = record_runs
        for got, expected in zip(run.shards, want.shards, strict=True):
            np.testing.assert_array_equal(got, expected)
        for got, expected in zip(run.payloads, want.payloads, strict=True):
            np.testing.assert_array_equal(got, expected)

    def test_do_not_alias_shared_memory(self, record_runs):
        run, _ = record_runs
        for arr in [*run.shards, *run.payloads]:
            assert isinstance(_owner(arr), np.ndarray)

    def test_are_aligned_for_their_dtype_and_to_64_bytes(self, record_runs):
        run, _ = record_runs
        assert run.payloads[0].dtype.names == ("mass", "id")
        for arr in [*run.shards, *run.payloads]:
            assert arr.ctypes.data % 64 == 0
            assert arr.ctypes.data % arr.dtype.alignment == 0

    @pytest.mark.parametrize("column", ["shards", "payloads"])
    def test_are_writable_and_independent(self, column):
        dataset = Dataset.from_workload(
            "uniform", p=P, n_per=300, seed=4,
            payloads={"mass": "f8", "id": "u4"},
        )
        run = Sorter("hss", backend=ProcessBackend(workers=2)).run(dataset)
        arrays = getattr(run, column)
        for k, arr in enumerate(arrays):
            before = [other.copy() for other in arrays]
            assert arr.flags.writeable
            arr[:] = arr[:1]  # overwrite rank k's whole output
            for j, other in enumerate(arrays):
                if j != k:
                    np.testing.assert_array_equal(other, before[j])

    def test_tagged_structured_keys_are_aligned(self):
        def tagged_program(ctx, keys):
            out = np.zeros(len(keys) + ctx.rank, dtype=TAGGED)
            out["key"][: len(keys)] = keys
            out["pe"] = ctx.rank
            total = yield from ctx.allreduce(np.array([len(out)]))
            return out, total

        rank_args = Dataset.from_workload(
            "uniform", p=P, n_per=37, seed=1
        ).rank_args()
        run = ProcessBackend(workers=2).run(tagged_program, rank_args)
        want = SimulatedBackend().run(tagged_program, rank_args)
        for (out, total), (expected, want_total) in zip(
            run.returns, want.returns, strict=True
        ):
            assert out.dtype == TAGGED
            assert out.ctypes.data % 64 == 0
            np.testing.assert_array_equal(out, expected)
            np.testing.assert_array_equal(total, want_total)


def _write_into_received(ctx, keys, payload):
    """Overwrite what each collective delivers, then look at everyone's data.

    Workers hold ranks {0, 1} and {2, 3}: ``rank ^ 1`` is a partner on the
    same worker, ``rank ^ 2`` one on the other.  On the process backend a
    received array is a view of the sender's segment, not its own array.
    """
    mine = np.full(4, ctx.rank, dtype=np.int64)
    seen = []
    for partner in (ctx.rank ^ 1, ctx.rank ^ 2):
        theirs = yield from ctx.exchange(partner, mine)
        seen.append(theirs.copy())
        theirs[:] = -1
        (runs,) = yield from ctx.alltoallv([1] * ctx.nprocs, mine)
        seen.append(runs.copy())
        runs[:] = -1
    # Every rank is handed the same ref; the last rank overwrites it
    # before the barrier, and the other worker must not see that.
    shared = yield from ctx.bcast(mine if ctx.rank == 0 else None)
    if ctx.rank == ctx.nprocs - 1:
        shared[:] = -1
    yield from ctx.barrier()
    seen.append(shared.copy())
    everyone = yield from ctx.allgather(mine)
    return seen, [e.copy() for e in everyone], mine


def test_writing_a_received_array_reaches_no_other_rank():
    rank_args = [((), None)] * P
    run = ProcessBackend(workers=2).run(_write_into_received, rank_args)
    for rank, (seen, everyone, mine) in enumerate(run.returns):
        np.testing.assert_array_equal(seen[0], np.full(4, rank ^ 1))
        np.testing.assert_array_equal(seen[2], np.full(4, rank ^ 2))
        for runs in (seen[1], seen[3]):
            np.testing.assert_array_equal(runs, np.arange(P))
        if rank < 2:
            np.testing.assert_array_equal(seen[4], np.zeros(4))
        for k, theirs in enumerate(everyone):
            np.testing.assert_array_equal(theirs, np.full(4, k))
        np.testing.assert_array_equal(mine, np.full(4, rank))
