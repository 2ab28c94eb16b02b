"""Tests for the trace.v1 event catalogue, validation, versioning, and
the published JSON-Schema document."""

import ast
import json
import os

import pytest

from repro.obs.schema import (
    EVENT_SCHEMAS,
    SUPPORTED_MAJORS,
    TERMINAL_TYPES,
    SchemaVersionError,
    ensure_supported_version,
    parse_version,
    schema_json,
    schema_json_text,
    validate_record,
    validate_records,
)
from repro.trace import (
    TRACE_SCHEMA_VERSION,
    JsonlTrace,
    TraceSchemaError,
    read_trace,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
REPO = os.path.join(os.path.dirname(__file__), "..", "..")
SRC = os.path.join(REPO, "src", "repro")
#: the record-type fields of a campaign ``Plane``: the kernel emits
#: ``plane.start``, ``plane.scenario`` and ``plane.end``
PLANE_FIELDS = ("start", "scenario", "end")


def _valid_scenario_end():
    return {
        "type": "scenario_end", "benchmark": "bzip2",
        "fault_class": "clean_cut", "config": "default",
        "mode": "all_on", "schedule": [], "image_hash": "0" * 16,
        "steps": 1, "crashes": 0, "skipped_events": 0, "counters": {},
        "violation": None, "schema_version": TRACE_SCHEMA_VERSION,
    }


class TestCatalogue:
    def test_terminal_types_are_catalogued(self):
        assert TERMINAL_TYPES <= set(EVENT_SCHEMAS)

    def test_current_version_major_is_supported(self):
        major, _ = parse_version(TRACE_SCHEMA_VERSION)
        assert major in SUPPORTED_MAJORS

    def test_valid_record_passes(self):
        assert validate_record(_valid_scenario_end()) == []

    def test_unknown_type_rejected(self):
        problems = validate_record({"type": "volcano_eruption"})
        assert len(problems) == 1
        assert "unknown event type" in problems[0]

    def test_missing_required_field(self):
        record = _valid_scenario_end()
        del record["image_hash"]
        assert any("image_hash" in p for p in validate_record(record))

    def test_optional_field_may_be_absent(self):
        record = {
            "type": "campaign_start", "seed": 0, "scale": 0.01,
            "benchmarks": [], "fault_classes": [],
            "tiny_wpq_entries": 4, "version": 1,
        }  # no backend/sharding (optional), no schema_version (legacy)
        assert validate_record(record) == []

    def test_wrong_field_type(self):
        record = _valid_scenario_end()
        record["steps"] = "many"
        assert any("steps" in p and "int" in p
                   for p in validate_record(record))

    def test_bool_is_not_an_int(self):
        record = _valid_scenario_end()
        record["crashes"] = True
        assert any("crashes" in p for p in validate_record(record))

    def test_union_types(self):
        record = _valid_scenario_end()
        record["violation"] = {"kind": "lost-write"}
        assert validate_record(record) == []
        record["violation"] = 7
        assert any("violation" in p for p in validate_record(record))

    def test_unknown_field_rejected(self):
        record = _valid_scenario_end()
        record["mood"] = "great"
        assert any("mood" in p and "catalogue" in p
                   for p in validate_record(record))

    def test_non_object_record(self):
        assert validate_record([1, 2]) != []
        assert validate_record({"no": "type"}) != []

    def test_validate_records_indexes_problems(self):
        good = _valid_scenario_end()
        problems = validate_records([good, {"type": "nope"}, good])
        assert len(problems) == 1
        assert problems[0].startswith("record 2:")


class TestVersioning:
    def test_parse_version(self):
        assert parse_version("1.0") == (1, 0)
        assert parse_version("12.34") == (12, 34)

    @pytest.mark.parametrize("bad", ["", "1", "1.2.3", "a.b", "1.x", None])
    def test_parse_version_rejects(self, bad):
        with pytest.raises(SchemaVersionError):
            parse_version(bad)

    def test_accepts_current_and_legacy(self):
        ensure_supported_version([
            {"type": "campaign_end", "schema_version": "1.0"},
            {"type": "campaign_end", "schema_version": "1.7"},
            {"type": "campaign_end"},  # legacy, no stamp
        ])

    def test_refuses_unknown_major_with_explanation(self):
        with pytest.raises(SchemaVersionError) as err:
            ensure_supported_version(
                [{"type": "campaign_end", "schema_version": "2.0"}],
                "future.jsonl",
            )
        message = str(err.value)
        assert "future.jsonl" in message
        assert "2.0" in message
        assert "major" in message
        # the refusal must explain itself, not just say no
        assert "misinterpret" in message

    def test_bad_version_in_record_is_a_problem(self):
        record = _valid_scenario_end()
        record["schema_version"] = "one"
        assert any("unparseable" in p for p in validate_record(record))


def _is_trace(node):
    """``trace``, ``self.trace``, ``campaign.trace``, ..."""
    return (isinstance(node, ast.Name) and node.id == "trace") or (
        isinstance(node, ast.Attribute) and node.attr == "trace"
    )


def _emitted_record_types():
    """Every record type ``src/`` hands to ``<trace>.emit(...)``, by an
    AST scan: string literals, plus the types each ``Plane(...)``
    declares.  Also returns, as ``path:line``, every emit whose type the
    scan cannot resolve."""
    types, unresolved = set(), []
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            where = os.path.relpath(path, SRC)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "Plane":
                    values = [kw.value for kw in node.keywords
                              if kw.arg in PLANE_FIELDS]
                elif (isinstance(func, ast.Attribute) and func.attr == "emit"
                      and _is_trace(func.value)):
                    first = node.args[0] if node.args else None
                    if (isinstance(first, ast.Attribute)
                            and first.attr in PLANE_FIELDS):
                        continue  # declared by a Plane(...) call
                    values = [first]
                else:
                    continue
                for value in values:
                    if (isinstance(value, ast.Constant)
                            and isinstance(value.value, str)):
                        types.add(value.value)
                    else:
                        unresolved.append("%s:%d" % (where, node.lineno))
    return types, unresolved


class TestStrictEmission:
    def test_records_are_stamped(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTrace(path) as trace:
            trace.emit("campaign_end", scenarios=0, violations=0,
                       defenses_caught=0, defenses_total=0)
        (record,) = read_trace(path)
        assert record["schema_version"] == TRACE_SCHEMA_VERSION

    def test_strict_refuses_off_catalogue_record(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTrace(path) as trace:
            with pytest.raises(TraceSchemaError, match="trace.v1"):
                trace.emit("campaign_end", scenarios=0)
        # the refused record never reached the artifact
        assert read_trace(path) == []

    def test_every_emitted_record_type_is_catalogued(self):
        # every emit is validated, so a producer that no test drives
        # must not be able to start raising on its first real run
        types, unresolved = _emitted_record_types()
        assert unresolved == []
        # the scan sees literals, both campaign planes and the machine
        assert {"power_cut", "scenario_end", "cluster_scenario"} <= types
        assert sorted(types - set(EVENT_SCHEMAS)) == []


class TestCommittedArtifacts:
    @pytest.mark.parametrize("name", [
        "faults-campaign-seed0.jsonl",
        "cluster-chaos-seed0.jsonl",
        "cluster-session-seed22.jsonl",
    ])
    def test_committed_traces_validate(self, name):
        records = read_trace(os.path.join(DATA, name))
        assert records, "%s is empty" % name
        assert validate_records(records) == []
        ensure_supported_version(records, name)
        assert all(
            r["schema_version"] == TRACE_SCHEMA_VERSION for r in records
        )

    def test_published_schema_is_pinned(self):
        # docs/trace.v1.schema.json is the catalogue rendered to
        # JSON-Schema; the two may never drift
        path = os.path.join(REPO, "docs", "trace.v1.schema.json")
        with open(path) as fh:
            committed = fh.read()
        assert committed == schema_json_text(), (
            "docs/trace.v1.schema.json is stale — regenerate with "
            "`python -m repro trace schema > docs/trace.v1.schema.json`"
        )

    def test_schema_document_shape(self):
        doc = schema_json()
        assert doc["version"] == TRACE_SCHEMA_VERSION
        by_title = {v["title"]: v for v in doc["oneOf"]}
        assert set(by_title) == set(EVENT_SCHEMAS)
        scenario = by_title["scenario_end"]
        assert scenario["additionalProperties"] is False
        assert "image_hash" in scenario["required"]
        # a committed record satisfies its variant's required list
        record = _valid_scenario_end()
        assert set(scenario["required"]) <= set(record)
        assert json.loads(schema_json_text()) == doc
