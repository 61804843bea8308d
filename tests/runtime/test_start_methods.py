"""The process backend under both start methods, in a fresh interpreter.

Resource-tracker tracebacks and "leaked shared_memory objects" warnings
reach only a process's standard error, some of them at interpreter exit,
so each case runs a whole sort in a subprocess and inspects its stderr.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

DEV_SHM = "/dev/shm"
SRC = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = """
import multiprocessing, sys
import numpy as np
from repro.algorithms import Dataset, Sorter
from repro.runtime import ProcessBackend, SimulatedBackend, process

method = sys.argv[1]
process._mp_context = lambda: multiprocessing.get_context(method)
dataset = Dataset.from_workload("uniform", p=4, n_per=300, seed=11)
runs = [
    Sorter("hss", eps=0.2, seed=3, backend=backend).run(dataset)
    for backend in (ProcessBackend(workers=2), SimulatedBackend())
]
got, want = runs
assert got.backend == "process" and want.backend == "simulated"
assert all(np.array_equal(a, b) for a, b in zip(got.shards, want.shards))
assert got.engine_result.stats == want.engine_result.stats
print("ok")
"""


@pytest.mark.skipif(
    not os.path.isdir(DEV_SHM), reason="needs a /dev/shm tmpfs"
)
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_sort_matches_simulator_with_clean_stderr(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    before = set(os.listdir(DEV_SHM))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, method],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    assert proc.stderr == ""
    leaked = set(os.listdir(DEV_SHM)) - before
    assert not leaked, f"/dev/shm entries survived: {sorted(leaked)}"
