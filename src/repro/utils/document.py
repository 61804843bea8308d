"""One versioned-JSON document idiom, shared by every wire format.

The bench document, the experiment document and the service's job and
reply lines are versioned JSON objects, checked alike: a header (a JSON
object, its required keys, a supported ``schema_version``), then the
per-entry checks each format owns with its own error class.  Each format
names the host-dependent keys its "two runs agree" projection drops.

>>> check_header({"schema_version": 2}, "reply", ("schema_version",), 1)
(['schema_version 2 != supported 1'], True)
>>> spec = Volatile(("wall_s",), {"cells": Volatile(("worker",))})
>>> strip_volatile({"wall_s": 1, "cells": [{"worker": 2, "m": 3}]}, spec)
{'cells': [{'m': 3}]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

__all__ = [
    "JsonDocument", "Volatile", "check_header", "load_json", "missing_keys",
    "not_object", "strip_volatile", "version_errors",
]


def load_json(text: str, error_cls: type[Exception], what: str = "") -> Any:
    """Parse ``text``; malformed JSON raises ``error_cls`` naming the cause."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        prefix = f"{what} is not" if what else "not"
        raise error_cls(f"{prefix} valid JSON: {exc}") from exc


def not_object(data: Any, what: str) -> list[str]:
    if isinstance(data, Mapping):
        return []
    return [f"{what} must be a JSON object, got {type(data).__name__}"]


def missing_keys(data: Mapping, what: str, keys: Sequence[str]) -> list[str]:
    return [f"{what} missing required key {k!r}" for k in keys if k not in data]


def version_errors(found: Any, supported: int) -> list[str]:
    if found == supported:
        return []
    return [f"schema_version {found!r} != supported {supported}"]


def check_header(
    data: Any, what: str, required: Sequence[str], version: int
) -> tuple[list[str], bool]:
    """``(errors, complete)``: ``complete`` is False when ``data`` is not an
    object or lacks a required key, so no per-entry check can run.  A wrong
    ``schema_version`` keeps it True, so the other errors are listed too."""
    errors = not_object(data, what) or missing_keys(data, what, required)
    if errors:
        return errors, False
    return version_errors(data["schema_version"], version), True


class Volatile(NamedTuple):
    """Keys a "two runs agree" projection drops from an object (``keys``)
    and, per key holding a list of objects, from each item (``children``)."""

    keys: tuple[str, ...]
    children: Mapping[str, "Volatile"] = {}


def strip_volatile(data: Mapping[str, Any], spec: Volatile) -> dict[str, Any]:
    """A plain-dict copy of ``data`` without its volatile keys."""
    out = {key: value for key, value in data.items() if key not in spec.keys}
    for key, child in spec.children.items():
        out[key] = [strip_volatile(item, child) for item in out.get(key, [])]
    return out


class JsonDocument:
    """Text and file round trips for a document dataclass that provides
    ``to_dict``/``from_dict`` and sets ``error_cls`` (raised for malformed
    text) and ``volatile``."""

    error_cls: type[Exception]
    volatile: Volatile

    def modeled_dict(self) -> dict[str, Any]:
        """The deterministic projection: equal for any two identical runs."""
        return strip_volatile(self.to_dict(), self.volatile)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(load_json(text, cls.error_cls))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        return cls.from_json(Path(path).read_text())
