"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np
import pytest

DEV_SHM = "/dev/shm"
PROC_FDS = "/proc/self/fd"


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator; tests needing other seeds spawn their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_shards(rng) -> list[np.ndarray]:
    """8 ranks x 500 uniform int64 keys — the workhorse correctness input."""
    return [rng.integers(0, 10**9, 500) for _ in range(8)]


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running statistical or scale tests"
    )


@pytest.fixture
def unmeasured_backend(monkeypatch) -> str:
    """Register a plugin backend whose ``Measured`` has no phase walls.

    Stands in for a third-party backend that does not run the shared rank
    loop; returns its registry name.  Unregistered after the test.
    """
    from repro.runtime import BACKENDS, Backend, Measured, SimulatedBackend

    class UnmeasuredBackend(Backend):
        name = "unmeasured"
        description = "test plugin: modeled results, wall_s only"

        def run(self, program, rank_args, **kwargs):
            result = SimulatedBackend().run(program, rank_args, **kwargs)
            result.measured = Measured(
                backend=self.name, workers=1, wall_s=result.measured.wall_s
            )
            return result

    monkeypatch.setitem(
        BACKENDS._entries, UnmeasuredBackend.name, UnmeasuredBackend
    )
    return UnmeasuredBackend.name


def _shm_entries() -> set[str]:
    return set(os.listdir(DEV_SHM)) if os.path.isdir(DEV_SHM) else set()


def _open_fds() -> dict[int, str]:
    """This process's open file descriptors and what each one names."""
    if not os.path.isdir(PROC_FDS):
        return {}
    fds = {}
    for entry in os.listdir(PROC_FDS):
        try:
            fds[int(entry)] = os.readlink(os.path.join(PROC_FDS, entry))
        except OSError:  # the fd listing the directory itself, now closed
            continue
    return fds


@pytest.fixture
def no_leaks():
    """Fail the test if it leaves a worker, thread, shm segment or open
    file descriptor behind.

    Directories whose tests run real backends or servers autouse this
    from their own ``conftest.py``.
    """
    shm_before = _shm_entries()
    threads_before = set(threading.enumerate())
    fds_before = _open_fds()
    yield
    # active_children() also reaps workers that exited but were not joined.
    children = multiprocessing.active_children()
    assert not children, f"worker processes survived the test: {children}"
    threads = [
        t for t in threading.enumerate()
        if t not in threads_before and t.is_alive()
    ]
    assert not threads, f"threads survived the test: {threads}"
    leaked = _shm_entries() - shm_before
    assert not leaked, f"/dev/shm entries survived the test: {sorted(leaked)}"
    fds = _open_fds()
    opened = {fd: fds[fd] for fd in fds.keys() - fds_before.keys()}
    assert len(fds) <= len(fds_before), (
        f"file descriptors survived the test: {opened}"
    )
