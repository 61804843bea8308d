"""Typed record schemas: the contract between keys and payload columns.

A :class:`RecordSchema` names the key dtype plus N typed payload columns.
Every column is a fixed-width NumPy dtype (``"f8"``, ``"u4"``, ...), so
a schema packs into one structured dtype (:meth:`RecordSchema.payload_dtype`)
— the per-rank payload array :class:`~repro.algorithms.Dataset` and
:class:`~repro.algorithms.SortRun` carry.

Schemas are value objects: dtype strings are normalized through
``np.dtype(...).str`` at construction, so ``"f8"`` and ``"<f8"`` build
equal schemas, and the compact one-line form (``"mass:f8,id:u4"``) round
trips through :func:`parse_schema` / :meth:`RecordSchema.compact` — the
form ``repro sweep --payloads`` grids use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.errors import ConfigError

__all__ = ["ColumnSpec", "RecordSchema", "parse_schema"]

#: Column kinds a workload can fill, so the kinds :func:`parse_schema`
#: accepts.  Caller-supplied arrays may hold any fixed-width column.
GENERATED_KINDS = {"b": "bool", "i": "int", "u": "uint", "f": "float"}


def _normalize_dtype(spec: Any, *, allow_structured: bool = False):
    try:
        dt = np.dtype(spec)
    except TypeError as exc:
        raise ConfigError(f"bad column dtype {spec!r}: {exc}") from None
    if dt.hasobject:
        raise ConfigError(
            f"column dtype {spec!r} contains Python objects; record "
            f"columns must be fixed-width"
        )
    if dt.itemsize == 0:
        # np.dtype("bytes") is |S0 and np.dtype("str") is <U0: a column
        # no value fits in.
        raise ConfigError(
            f"column dtype {spec!r} has zero width; record columns must "
            f"be fixed-width (e.g. 'f8', 'u4')"
        )
    if dt.names is not None:
        if not allow_structured:
            raise ConfigError(
                f"column dtype {spec!r} is structured; a record column "
                f"holds one scalar per row (the schema itself is the "
                f"structure)"
            )
        return dt
    return dt.str


@dataclass(frozen=True)
class ColumnSpec:
    """One named payload column with a fixed-width NumPy dtype string."""

    name: str
    spec: Any

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise ConfigError(
                f"bad column name {self.name!r}: use letters, digits and "
                f"underscores"
            )
        if self.name == "key":
            raise ConfigError(
                "column name 'key' is reserved for the key column"
            )
        object.__setattr__(self, "spec", _normalize_dtype(self.spec))

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.spec)


@dataclass(frozen=True)
class RecordSchema:
    """Key dtype plus an ordered tuple of payload columns.

    Examples
    --------
    >>> schema = parse_schema("mass:f8,id:u4")
    >>> schema.compact()
    'mass:<f8,id:<u4'
    >>> parse_schema(schema.compact()) == schema
    True
    >>> schema.payload_dtype()
    dtype([('mass', '<f8'), ('id', '<u4')])
    """

    columns: tuple[ColumnSpec, ...] = ()
    key_dtype: str = "<i8"

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "key_dtype",
            _normalize_dtype(self.key_dtype, allow_structured=True),
        )
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate column name(s) {dupes}")

    # ------------------------------------------------------------- build #
    @classmethod
    def from_mapping(
        cls, columns: Mapping[str, str], *, key_dtype: str = "<i8"
    ) -> "RecordSchema":
        """Build from ``{"mass": "f8", "id": "u4"}``-style mappings."""
        specs = tuple(ColumnSpec(n, s) for n, s in columns.items())
        return cls(columns=specs, key_dtype=key_dtype)

    @classmethod
    def from_payload_dtype(
        cls, dtype: Any, *, key_dtype: Any
    ) -> "RecordSchema":
        """The schema a per-rank payload array of ``dtype`` carries.

        A structured dtype yields one column per field; a plain dtype
        yields the single column ``"payload"``.
        """
        dtype = np.dtype(dtype)
        if dtype.names is None:
            specs = (ColumnSpec("payload", dtype.str),)
        else:
            specs = tuple(
                ColumnSpec(name, dtype[name].str) for name in dtype.names
            )
        return cls(columns=specs, key_dtype=key_dtype)

    # -------------------------------------------------------------- view #
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise ConfigError(
            f"no column {name!r}; schema has {list(self.column_names)}"
        )

    @property
    def np_key_dtype(self) -> np.dtype:
        return np.dtype(self.key_dtype)

    def payload_dtype(self) -> np.dtype:
        """Structured dtype packing all payload columns into one record.

        This is the dtype :class:`~repro.algorithms.Dataset` ships per-rank
        payloads as, so the existing argsort/concat/alltoall machinery (and
        the cost model's ``itemsize`` accounting) sees full record widths.
        """
        return np.dtype([(c.name, c.dtype) for c in self.columns])

    def record_nbytes(self) -> int:
        """Exact bytes per row (key + columns)."""
        return self.np_key_dtype.itemsize + sum(
            c.dtype.itemsize for c in self.columns
        )

    # --------------------------------------------------------- serialize #
    def compact(self) -> str:
        """One-line form ``name:dtype,name:dtype`` (CLI / sweep grids)."""
        return ",".join(f"{c.name}:{c.spec}" for c in self.columns)

    def __len__(self) -> int:
        return len(self.columns)


def parse_schema(text: str, *, key_dtype: str = "<i8") -> RecordSchema:
    """Parse the compact ``"mass:f8,id:u4"`` form into a schema whose
    columns a workload can fill (one :data:`GENERATED_KINDS` scalar each)."""
    columns = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, sep, spec = token.partition(":")
        if not sep or not spec.strip():
            raise ConfigError(
                f"bad column token {token!r}; expected 'name:dtype' "
                f"(e.g. 'mass:f8')"
            )
        name, spec = name.strip(), spec.strip()
        columns.append(ColumnSpec(name, spec))
        # ColumnSpec flattens subarrays ("3f8" -> "|V24", kind "V").
        if columns[-1].dtype.kind not in GENERATED_KINDS:
            raise ConfigError(
                f"column {name!r} dtype {spec!r} cannot be generated; "
                f"supported kinds: {', '.join(GENERATED_KINDS.values())} "
                f"(one scalar per row)"
            )
    if not columns:
        raise ConfigError(f"payload schema {text!r} names no columns")
    return RecordSchema(columns=tuple(columns), key_dtype=key_dtype)
