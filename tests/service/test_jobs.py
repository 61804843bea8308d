"""The service wire format: job/reply schema, round-trips, rejection."""

import json

import pytest

from repro.service import (
    JOB_SCHEMA_VERSION,
    JobError,
    SortJob,
    error_reply,
    parse_job_line,
    strip_volatile_reply,
    validate_job,
    validate_reply,
)

GOOD = {
    "id": "j1",
    "scenario": {
        "algorithm": "hss",
        "workload": "uniform",
        "procs": 4,
        "keys_per_rank": 500,
    },
}


class TestJobRoundTrip:
    def test_parse_and_serialize(self):
        job = parse_job_line(json.dumps(GOOD))
        assert job.id == "j1"
        assert job.scenario.algorithm == "hss"
        data = job.to_dict()
        assert data["schema_version"] == JOB_SCHEMA_VERSION
        # to_dict -> from_dict is the identity on the validated form.
        assert SortJob.from_dict(data) == job

    def test_scenario_defaults_materialize(self):
        job = parse_job_line(json.dumps(GOOD))
        d = job.to_dict()["scenario"]
        assert d["machine"] == "laptop"
        assert d["backend"] == "simulated"

    def test_a_job_builds_its_scenario_and_schema_once(self, monkeypatch):
        import repro.records
        from repro.experiments import Scenario

        calls = {"scenario": 0, "schema": 0}
        build, parse = Scenario.from_dict.__func__, repro.records.parse_schema

        def counting_build(cls, data):
            calls["scenario"] += 1
            return build(cls, data)

        def counting_parse(*args, **kwargs):
            calls["schema"] += 1
            return parse(*args, **kwargs)

        monkeypatch.setattr(Scenario, "from_dict", classmethod(counting_build))
        monkeypatch.setattr(repro.records, "parse_schema", counting_parse)
        scenario = {**GOOD["scenario"], "payloads": "mass:f8,id:u4"}
        job = parse_job_line(json.dumps({**GOOD, "scenario": scenario}))
        dataset = job.scenario.build_dataset()
        assert dataset.record_schema.column_names == ("mass", "id")
        assert calls == {"scenario": 1, "schema": 1}

    def test_explicit_schema_version_accepted(self):
        job = SortJob.from_dict(
            {**GOOD, "schema_version": JOB_SCHEMA_VERSION}
        )
        assert job.id == "j1"


class TestJobRejection:
    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"id": None}, "missing required key 'id'"),
            ({"id": ""}, "non-empty string"),
            ({"id": 7}, "non-empty string"),
            ({"scenario": None}, "missing required key 'scenario'"),
            ({"scenario": "hss"}, "must be an object"),
            ({"schema_version": 99}, "schema_version"),
            ({"extra": 1}, "unknown job key"),
        ],
    )
    def test_structured_violations(self, mutation, fragment):
        data = {**GOOD, **mutation}
        data = {k: v for k, v in data.items() if v is not None}
        errors = validate_job(data)
        assert any(fragment in e for e in errors), errors
        with pytest.raises(JobError) as exc:
            SortJob.from_dict(data)
        assert fragment in str(exc.value)

    def test_bad_scenario_field_is_named(self):
        data = {
            **GOOD,
            "scenario": {**GOOD["scenario"], "algorithm": "quicksort"},
        }
        errors = validate_job(data)
        assert any("quicksort" in e for e in errors), errors

    def test_not_json_raises_joberror(self):
        with pytest.raises(JobError, match="not valid JSON"):
            parse_job_line("{nope")

    def test_non_object_rejected(self):
        assert validate_job([1, 2]) == [
            "job must be a JSON object, got list"
        ]


class TestReplies:
    def test_error_reply_validates(self):
        reply = error_reply("j9", ValueError("boom"))
        assert validate_reply(reply) == []
        assert reply["error"] == {"type": "ValueError", "message": "boom"}

    def test_ok_reply_requires_service_blocks(self):
        errors = validate_reply(
            {"schema_version": JOB_SCHEMA_VERSION, "id": "x", "status": "ok"}
        )
        joined = " ".join(errors)
        for key in ("scenario", "metrics", "machine", "fingerprint", "cache"):
            assert key in joined

    def test_unknown_status_rejected(self):
        errors = validate_reply(
            {
                "schema_version": JOB_SCHEMA_VERSION,
                "id": "x",
                "status": "maybe",
            }
        )
        assert any("'maybe'" in e for e in errors)

    def test_strip_volatile_drops_only_wall_and_measured(self):
        reply = {
            "id": "a",
            "status": "ok",
            "wall_s": 0.01,
            "measured": {"backend": "process"},
            "metrics": {"makespan_s": 1.0},
        }
        stripped = strip_volatile_reply(reply)
        assert "wall_s" not in stripped and "measured" not in stripped
        assert stripped["metrics"] == {"makespan_s": 1.0}
        # Projection is non-destructive.
        assert "wall_s" in reply
