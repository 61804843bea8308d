"""One document idiom: every versioned JSON format words its errors alike.

``tests/golden/document_messages.json`` pins, byte for byte, what the
bench, experiment, job and reply validators and the four text loaders
say about a corpus of malformed (and a few valid) inputs.  Each entry is
``{"check", "input", "expect"}``: validators expect their error list,
loaders ``{"error": class name, "message": ...}`` or ``{"ok": ...}``.
"""

import json
import pathlib

import pytest

from repro.bench.schema import BenchDocument, validate_document
from repro.experiments import ExperimentDocument, validate_experiment
from repro.machines import MachineSpec
from repro.service import SortService, parse_job_line, validate_job, validate_reply
from repro.utils.document import Volatile, load_json, strip_volatile

GOLDEN = pathlib.Path(__file__).parents[1] / "golden" / "document_messages.json"
ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))

VALIDATORS = {
    "validate_document": validate_document,
    "validate_experiment": validate_experiment,
    "validate_job": validate_job,
    "validate_reply": validate_reply,
}

LOADERS = {
    "BenchDocument.from_json": BenchDocument.from_json,
    "ExperimentDocument.from_json": ExperimentDocument.from_json,
    "parse_job_line": lambda text: parse_job_line(text).to_dict(),
    "SortService.parse_line": lambda text: SortService(
        machine="mira-like-bgq", backend="thread"
    ).parse_line(text).to_dict(),
    "MachineSpec.from_json": MachineSpec.from_json,
}


def _load(check: str, text: str) -> dict:
    try:
        out = LOADERS[check](text)
    except Exception as exc:  # noqa: BLE001 — the golden names the class
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"ok": out if isinstance(out, dict) else type(out).__name__}


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[f"{i}-{e['check']}" for i, e in enumerate(ENTRIES)]
)
def test_messages_match_golden(entry):
    check = entry["check"]
    if check in VALIDATORS:
        assert VALIDATORS[check](entry["input"]) == entry["expect"]
    else:
        assert _load(check, entry["input"]) == entry["expect"]


def test_golden_covers_every_check():
    assert {e["check"] for e in ENTRIES} == set(VALIDATORS) | set(LOADERS)


class TestHelpers:
    def test_load_json_raises_the_callers_class(self):
        class Boom(ValueError):
            pass

        with pytest.raises(Boom, match="^not valid JSON: "):
            load_json("{", Boom)
        with pytest.raises(Boom, match="^thing is not valid JSON: "):
            load_json("{", Boom, "thing")
        assert load_json('{"a": [1]}', Boom) == {"a": [1]}

    def test_strip_volatile_recurses_and_keeps_order(self):
        spec = Volatile(("t",), {"rows": Volatile(("w",))})
        data = {"a": 1, "t": 2, "rows": [{"w": 0, "x": 1}], "z": 3}
        out = strip_volatile(data, spec)
        assert list(out) == ["a", "rows", "z"]
        assert out["rows"] == [{"x": 1}]
        assert data["rows"][0] == {"w": 0, "x": 1}  # input untouched

    def test_strip_volatile_materializes_missing_lists(self):
        spec = Volatile((), {"rows": Volatile(())})
        assert strip_volatile({}, spec) == {"rows": []}
