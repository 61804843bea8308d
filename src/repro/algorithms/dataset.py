"""Distributed input data as a first-class object.

A :class:`Dataset` is the one place input plumbing happens: per-rank key
shards (one array per simulated rank) plus optional aligned payloads, with
all dtype/shape validation done at construction instead of being re-rolled
by every bench, test, example and CLI command.

Payloads are *records*: each rank's payload is one structured NumPy
array aligned row-for-row with its keys, whose fields are the record
columns a :class:`~repro.records.RecordSchema` describes.  That array is
what the sort programs, the collectives' byte accounting and the
shared-memory transport move, so record bytes are priced and shipped
exactly.  A plain array per rank is the single-column case (column
``"payload"``).

Construct one from raw arrays::

    ds = Dataset.from_arrays([rng.integers(0, 2**40, 1000) for _ in range(8)])

by name from the workload catalog, optionally with typed payload columns
generated deterministically from the workload RNG stream::

    ds = Dataset.from_workload("changa-dwarf", p=64, n_per=15_625, seed=0,
                               payloads={"mass": "f8", "id": "u4"})
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.records import RecordSchema
from repro.records.schema import GENERATED_KINDS

__all__ = ["Dataset"]


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that refuses writes (``a`` itself is untouched)."""
    v = a.view()
    v.flags.writeable = False
    return v


def _validated_shards(keys: Sequence[np.ndarray]) -> list[np.ndarray]:
    shards = [_read_only(np.asarray(k)) for k in keys]
    if not shards:
        raise ConfigError("need at least one rank's keys")
    dtypes = {s.dtype for s in shards}
    if len(dtypes) != 1:
        raise ConfigError(f"all shards must share a dtype, got {dtypes}")
    for r, s in enumerate(shards):
        if s.ndim != 1:
            raise ConfigError(
                f"rank {r} keys must be one-dimensional, got shape {s.shape}"
            )
    return shards


def _resolve_payload_schema(
    payloads: Mapping[str, str] | RecordSchema | bool,
    workload: str,
    key_dtype,
) -> RecordSchema:
    """Resolve ``from_workload(payloads=...)`` into a concrete schema."""
    if payloads is True:
        from repro.workloads import WORKLOAD_SPECS

        schema = WORKLOAD_SPECS.get(workload).record_schema
        if schema is None:
            raise ConfigError(
                f"workload {workload!r} declares no record schema; pass "
                f"explicit columns, e.g. payloads={{'mass': 'f8'}}"
            )
    elif isinstance(payloads, RecordSchema):
        schema = payloads
    else:
        schema = RecordSchema.from_mapping(payloads)
    return RecordSchema(columns=schema.columns, key_dtype=np.dtype(key_dtype))


def _generate_column(dtype: np.dtype, n: int, rng: np.random.Generator):
    """Deterministic synthetic values covering the column's dtype range."""
    if dtype.kind == "b":
        return rng.integers(0, 2, size=n).astype(bool)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return rng.integers(
            int(info.min), int(info.max) + 1, size=n, dtype=dtype
        )
    if dtype.kind == "f":
        return rng.random(n).astype(dtype)
    raise ConfigError(
        f"cannot generate payload column of dtype {dtype}; supported "
        f"kinds: {', '.join(GENERATED_KINDS.values())}"
    )


def _workload_payloads(
    schema: RecordSchema, shards: Sequence[np.ndarray], seed: int
) -> list[np.ndarray]:
    """Per-rank structured payload arrays from the workload RNG stream.

    Each column draws from its own deterministic stream keyed on
    ``(seed, crc32(column name))``, so adding or reordering columns never
    perturbs the others' values.
    """
    counts = [len(s) for s in shards]
    total = int(sum(counts))
    flat = np.empty(total, dtype=schema.payload_dtype())
    for spec in schema.columns:
        rng = np.random.default_rng(
            [int(seed), zlib.crc32(spec.name.encode())]
        )
        flat[spec.name] = _generate_column(spec.dtype, total, rng)
    out: list[np.ndarray] = []
    start = 0
    for c in counts:
        out.append(flat[start:start + c].copy())
        start += c
    return out


@dataclass(frozen=True)
class Dataset:
    """Per-rank key shards plus optional aligned payloads, validated once.

    Use the classmethod constructors (:meth:`from_arrays`,
    :meth:`from_workload`) rather than the raw dataclass constructor —
    they perform the dtype/shape validation.

    A dataset is immutable: its shards and payloads are read-only views,
    so a write through ``ds.shards[r]`` (or by a rank program into its
    input) raises instead of corrupting the data.  To change the data,
    build a new dataset.  The views share memory with the arrays handed
    to :meth:`from_arrays`; do not write into those afterwards.

    Examples
    --------
    >>> import numpy as np
    >>> ds = Dataset.from_workload("uniform", p=4, n_per=100, seed=0)
    >>> ds.nprocs, ds.total_keys, ds.has_payloads
    (4, 400, False)
    >>> rec = Dataset.from_workload("uniform", p=4, n_per=100, seed=0,
    ...                             payloads={"mass": "f8", "id": "u4"})
    >>> rec.record_schema.column_names
    ('mass', 'id')
    >>> tagged = ds.with_index_payloads()
    >>> tagged.has_payloads and len(tagged.payloads[0]) == 100
    True
    >>> ds.shards[0][0] = 1
    Traceback (most recent call last):
    ...
    ValueError: assignment destination is read-only
    """

    #: One key array per simulated rank (``p = len(shards)``).
    shards: list[np.ndarray]
    #: Optional per-rank payload arrays aligned element-for-element with
    #: :attr:`shards`, or None.  Record-carrying datasets use one
    #: structured array per rank (fields = record columns).
    payloads: list[np.ndarray] | None = None
    #: Workload name when built by :meth:`from_workload` (provenance only).
    workload: str | None = None
    #: Record schema of the payload columns, or None.  Derivable from a
    #: structured payload dtype; stored so provenance survives round trips.
    schema: RecordSchema | None = None

    # ------------------------------------------------------------- build #
    @classmethod
    def from_arrays(
        cls,
        keys: Sequence[np.ndarray],
        payloads: Sequence[np.ndarray] | None = None,
        *,
        workload: str | None = None,
        schema: RecordSchema | None = None,
    ) -> "Dataset":
        """Validate and wrap raw per-rank arrays."""
        shards = _validated_shards(keys)
        checked_payloads = None
        if payloads is not None:
            if len(payloads) != len(shards):
                raise ConfigError("payloads must match keys rank-for-rank")
            checked_payloads = [_read_only(np.asarray(v)) for v in payloads]
            for r, (k, v) in enumerate(zip(shards, checked_payloads)):
                if len(v) != len(k):
                    raise ConfigError(
                        f"rank {r} payload length {len(v)} != keys "
                        f"length {len(k)}"
                    )
            pay_dtypes = {v.dtype for v in checked_payloads}
            if len(pay_dtypes) != 1:
                raise ConfigError(
                    f"all payloads must share a dtype, got {pay_dtypes}"
                )
            if checked_payloads[0].dtype.hasobject:
                raise ConfigError(
                    "object-dtype payloads are not supported: they have "
                    "no record schema or wire format; use typed record "
                    "columns, e.g. Dataset.from_workload(..., "
                    "payloads={'col': 'f8'})"
                )
            if schema is not None:
                expected = schema.payload_dtype()
                got = checked_payloads[0].dtype
                if got != expected:
                    raise ConfigError(
                        f"payload dtype {got} does not match schema "
                        f"{schema.compact()!r} (expects {expected})"
                    )
        elif schema is not None:
            raise ConfigError("a record schema without payloads is invalid")
        return cls(
            shards=shards,
            payloads=checked_payloads,
            workload=workload,
            schema=schema,
        )

    @classmethod
    def from_workload(
        cls,
        name: str,
        *,
        p: int,
        n_per: int | None = None,
        n_total: int | None = None,
        seed: int = 0,
        payloads: Mapping[str, str] | RecordSchema | bool | None = None,
        **kwargs: Any,
    ) -> "Dataset":
        """Generate a named workload from the catalog.

        Exactly one of ``n_per`` (keys per rank) or ``n_total`` (total
        keys, split evenly) must be given.  ``name`` is resolved against
        the workload registry (see ``repro workloads``); extra ``kwargs``
        are forwarded to the generator (e.g. ``hot_fraction`` for
        ``"hotspot"``).

        ``payloads`` attaches typed record columns: a column mapping such
        as ``{"mass": "f8", "id": "u4"}``, a pre-built
        :class:`~repro.records.RecordSchema`, or ``True`` to use the
        workload's own declared record schema.  Column values are
        generated deterministically from the workload RNG stream, so a
        payload-carrying dataset is as reproducible as its keys.
        """
        from repro.workloads import make_workload

        if (n_per is None) == (n_total is None):
            raise ConfigError("give exactly one of n_per or n_total")
        if n_per is None:
            n_per, rem = divmod(int(n_total), p)
            if rem:
                raise ConfigError(
                    f"n_total={n_total} is not divisible by p={p} "
                    f"(keys would be silently dropped); pass n_per instead"
                )
            if n_per < 1:
                raise ConfigError(
                    f"n_total={n_total} spread over p={p} ranks leaves "
                    f"no keys per rank"
                )
        shards = make_workload(name, p, int(n_per), seed, **kwargs)
        if payloads is None or payloads is False:
            return cls.from_arrays(shards, workload=name)
        schema = _resolve_payload_schema(payloads, name, shards[0].dtype)
        return cls.from_arrays(
            shards,
            _workload_payloads(schema, shards, seed),
            workload=name,
            schema=schema,
        )

    def _with_payload_arrays(
        self, payloads: Sequence[np.ndarray]
    ) -> "Dataset":
        return Dataset.from_arrays(
            self.shards, payloads, workload=self.workload
        )

    def with_index_payloads(self) -> "Dataset":
        """Attach tracer payloads: the global ``(rank, position)`` index.

        Payload ``rank * n_per + i`` identifies where each key started, so
        a sorted run can be checked for exact key/payload alignment —
        the standard payload round-trip probe.
        """
        offsets = np.cumsum([0] + [len(s) for s in self.shards[:-1]])
        payloads = [
            off + np.arange(len(s), dtype=np.int64)
            for off, s in zip(offsets, self.shards)
        ]
        return self._with_payload_arrays(payloads)

    # -------------------------------------------------------------- view #
    @property
    def nprocs(self) -> int:
        """Number of simulated ranks."""
        return len(self.shards)

    @property
    def total_keys(self) -> int:
        return int(sum(len(s) for s in self.shards))

    @property
    def key_dtype(self) -> np.dtype:
        return self.shards[0].dtype

    @property
    def has_payloads(self) -> bool:
        return self.payloads is not None

    @property
    def record_schema(self) -> RecordSchema | None:
        """Schema of the payload columns, derived if not stored.

        See :meth:`~repro.records.RecordSchema.from_payload_dtype`;
        key-only datasets have no schema.
        """
        if self.schema is not None:
            return self.schema
        if self.payloads is None:
            return None
        return RecordSchema.from_payload_dtype(
            self.payloads[0].dtype, key_dtype=self.key_dtype
        )

    @cached_property
    def sorted_keys(self) -> np.ndarray | None:
        """All keys in one sorted, read-only array; ``None`` if there are none.

        Computed on first use and kept: every later verified sort of this
        dataset compares its outputs against it in one linear pass.

        >>> ds = Dataset.from_arrays([np.array([3, 1]), np.array([2, 0])])
        >>> ds.sorted_keys
        array([0, 1, 2, 3])
        >>> ds.sorted_keys is ds.sorted_keys
        True
        >>> ds.sorted_keys.flags.writeable
        False
        >>> print(Dataset.from_arrays([np.array([], dtype=np.int64)]).sorted_keys)
        None
        """
        if self.total_keys == 0:
            return None
        # The concatenation is a fresh array: sort it in place.
        keys = np.concatenate(self.shards)
        keys.sort()
        keys.flags.writeable = False
        return keys

    def record_nbytes(self) -> int | None:
        """Exact bytes per row (key + payload columns), or None if unschematized."""
        schema = self.record_schema
        return None if schema is None else schema.record_nbytes()

    def rank_args(self) -> list[tuple]:
        """Per-rank positional args for a BSP program: ``(keys[, payload])``."""
        if self.payloads is None:
            return [(k,) for k in self.shards]
        return list(zip(self.shards, self.payloads))

    def __len__(self) -> int:
        return len(self.shards)
