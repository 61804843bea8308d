"""``repro.sort`` — the one-call sorting façade.

Everything the layered API does in three objects (``Dataset`` →
``Sorter`` → ``SortRun``) behind a single function for the common case:
*sort these keys with that algorithm on this machine*.  The registries
stay the extension surface for power users; the façade is what the README
quickstart and ``examples/`` call (``repro sort`` and the ``repro serve``
job runner go through :meth:`~repro.experiments.Scenario.execute`).

>>> import numpy as np
>>> from repro.algorithms.facade import sort
>>> run = sort(np.array([5, 3, 1, 4], dtype=np.int64), p=2)
>>> np.concatenate(run.shards).tolist()
[1, 3, 4, 5]
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.algorithms.dataset import Dataset
from repro.algorithms.result import SortRun
from repro.algorithms.sorter import Sorter
from repro.errors import ConfigError

__all__ = ["sort"]


def _split_flat(arr: np.ndarray, p: int) -> list[np.ndarray]:
    """Split one flat array into ``p`` contiguous near-even rank shards."""
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if len(arr) < p:
        raise ConfigError(
            f"cannot spread {len(arr)} keys over p={p} ranks "
            f"(every rank needs at least one key)"
        )
    return [chunk.copy() for chunk in np.array_split(arr, p)]


def _columns_to_structured(columns: Mapping[str, Any]) -> np.ndarray:
    """Pack a ``{name: column}`` mapping into one structured payload array."""
    if not columns:
        raise ConfigError("payloads mapping is empty; pass None instead")
    arrays = {name: np.asarray(col) for name, col in columns.items()}
    lengths = {name: len(col) for name, col in arrays.items()}
    if len(set(lengths.values())) > 1:
        raise ConfigError(
            f"payload columns disagree on length: {lengths}"
        )
    out = np.empty(
        next(iter(lengths.values())),
        dtype=[(name, col.dtype) for name, col in arrays.items()],
    )
    for name, col in arrays.items():
        out[name] = col
    return out


def _as_dataset(
    keys: Any,
    payloads: Any,
    p: int | None,
) -> Dataset:
    """Normalize the façade's ``keys``/``payloads`` forms to a Dataset."""
    if isinstance(keys, Dataset):
        if p is not None and p != keys.nprocs:
            raise ConfigError(
                f"p={p} conflicts with the Dataset's {keys.nprocs} ranks"
            )
        if payloads is not None:
            return keys._with_payload_arrays(payloads)
        return keys
    if not isinstance(keys, np.ndarray):
        items = list(keys)
        if items and np.ndim(items[0]) == 0:
            # A plain sequence of scalars is flat keys, not p length-1
            # ranks.
            keys = np.asarray(items)
        else:
            keys = items
    if isinstance(keys, np.ndarray) and keys.ndim == 1:
        # Flat mode: one global key array, split contiguously over ranks.
        if p is None:
            raise ConfigError(
                "pass p= (rank count) to sort a flat key array, or "
                "pass per-rank arrays / a Dataset"
            )
        shards = _split_flat(keys, p)
        split_payloads = None
        if payloads is not None:
            if isinstance(payloads, Mapping):
                payloads = _columns_to_structured(payloads)
            else:
                payloads = np.asarray(payloads)
            if len(payloads) != len(keys):
                raise ConfigError(
                    f"flat payloads length {len(payloads)} != keys "
                    f"length {len(keys)}"
                )
            split_payloads = _split_flat(payloads, p)
        return Dataset.from_arrays(shards, split_payloads)
    # Per-rank mode: a sequence of one key array per rank.
    shards = [np.asarray(k) for k in keys]
    if p is not None and p != len(shards):
        raise ConfigError(
            f"p={p} conflicts with the {len(shards)} per-rank arrays"
        )
    if isinstance(payloads, Mapping):
        raise ConfigError(
            "a {name: column} payloads mapping pairs with flat keys; "
            "for per-rank keys pass one payload array per rank"
        )
    return Dataset.from_arrays(shards, payloads)


def sort(
    keys: Any,
    *,
    algorithm: str = "hss",
    machine: Any = None,
    backend: Any = None,
    payloads: Any = None,
    p: int | None = None,
    config: Any = None,
    verify: bool = True,
    initial_intervals: Sequence[tuple] | None = None,
    **config_kwargs: Any,
) -> SortRun:
    """Sort ``keys`` with one registered algorithm; returns a :class:`SortRun`.

    Parameters
    ----------
    keys:
        What to sort, in any of three forms: a flat NumPy array (give
        ``p=`` to split it contiguously over simulated ranks), a sequence
        of per-rank arrays, or a pre-built :class:`Dataset`.
    algorithm:
        Registered algorithm name (``repro algorithms`` lists them).
        Defaults to ``"hss"`` — the paper's Histogram Sort with Sampling.
    machine:
        Simulated machine: registry name (``repro machines``) or
        :class:`~repro.machines.MachineSpec`.
    backend:
        Execution backend name (``"simulated"``/``"thread"``/
        ``"process"``) or instance.
    payloads:
        Optional values to permute along with the keys, mirroring the
        shape of ``keys`` (flat array for flat keys, per-rank arrays
        otherwise).  Structured arrays — or, with flat keys, a
        ``{name: column}`` mapping — carry typed record columns.
    p:
        Rank count — required for flat ``keys``, otherwise validated
        against the per-rank form.
    config:
        Pre-built typed config instance (mutually exclusive with keyword
        knobs).
    verify:
        Check sortedness/permutation/load-balance of the output.
    initial_intervals:
        Warm-start splitter-interval hints from a previous run on similar
        data (see :meth:`Sorter.run <repro.algorithms.Sorter.run>`).
    **config_kwargs:
        Typed config knobs for the algorithm (e.g. ``eps=0.02``).

    Examples
    --------
    >>> import numpy as np
    >>> import repro
    >>> rng = np.random.default_rng(0)
    >>> run = repro.sort(rng.integers(0, 10**9, 4000), p=8, eps=0.1)
    >>> run.algorithm, run.imbalance <= 1.1
    ('hss', True)
    >>> flat = np.concatenate(run.shards)
    >>> bool(np.all(flat[:-1] <= flat[1:]))
    True
    """
    dataset = _as_dataset(keys, payloads, p)
    sorter = Sorter(
        algorithm,
        machine=machine,
        backend=backend,
        config=config,
        verify=verify,
        **config_kwargs,
    )
    return sorter.run(dataset, initial_intervals=initial_intervals)
