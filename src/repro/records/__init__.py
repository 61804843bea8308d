"""Record schemas: typed payload columns riding along with the keys.

The paper analyzes sorting over *keys*, but every deployment it targets
(ChaNGa particle exchange, HPC shuffle phases) moves *records* — a key
plus a fixed-width payload (mass, velocity, id).  The sort path ships
each rank's payload as one structured NumPy array aligned row-for-row
with its keys; a :class:`RecordSchema` describes that array:

* :class:`ColumnSpec` — one named, fixed-width column (a NumPy dtype
  string);
* :class:`RecordSchema` — the key dtype plus ordered columns, packing
  into the structured :meth:`~RecordSchema.payload_dtype` and pricing
  :meth:`~RecordSchema.record_nbytes` bytes per row;
* :func:`parse_schema` — the compact ``"mass:f8,id:u4"`` form used by
  ``repro sort --payloads`` and ``repro sweep --payloads`` grids.

:class:`~repro.algorithms.Dataset` generates payload columns from a
schema, and :class:`~repro.algorithms.SortRun` hands the sorted payload
arrays back (``run.payloads[r]["mass"]``) with the same ``schema``.
"""

from repro.records.schema import ColumnSpec, RecordSchema, parse_schema

__all__ = ["ColumnSpec", "RecordSchema", "parse_schema"]
