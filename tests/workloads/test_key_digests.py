"""Particle workload keys are pinned byte for byte.

The ChaNGa and fractal generators draw positions, Morton-encode them and
deal the keys; any change to how they do it must keep every key and the
order of every draw.  ``tests/golden/workload_digests.json`` holds the
sha256 of each workload's shards at two sizes (the larger one spans
several Morton-encoding chunks).  Regenerate it only for a deliberate
change of the streams::

    PYTHONPATH=src python tests/workloads/test_key_digests.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.workloads import make_workload

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "workload_digests.json"

WORKLOADS = (
    "changa-dwarf",
    "changa-lambb",
    "changa-drift",
    "fractal-dwarf",
    "fractal-lambb",
)
#: ``(p, n_per, seed)``; 8 x 40000 keys is several encoding chunks.
SIZES = ((4, 1000, 0), (8, 40_000, 3))


def _cell(p: int, n_per: int, seed: int) -> str:
    return f"p={p},n_per={n_per},seed={seed}"


def key_digest(name: str, p: int, n_per: int, seed: int) -> str:
    """sha256 over the dtype, then each shard's length and bytes."""
    shards = make_workload(name, p, n_per, seed)
    h = hashlib.sha256(shards[0].dtype.str.encode())
    for shard in shards:
        h.update(len(shard).to_bytes(8, "little"))
        h.update(shard.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("size", SIZES, ids=lambda s: _cell(*s))
@pytest.mark.parametrize("name", WORKLOADS)
def test_keys_match_golden(name, size):
    golden = json.loads(GOLDEN.read_text())
    assert key_digest(name, *size) == golden[name][_cell(*size)]


if __name__ == "__main__":
    digests = {
        name: {_cell(*size): key_digest(name, *size) for size in SIZES}
        for name in WORKLOADS
    }
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
