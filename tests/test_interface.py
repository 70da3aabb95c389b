import json

import numpy as np
import pytest

import infoflow
from infoflow.documents import (
    input_digest,
    network_to_document,
    parse_network,
    report_document,
    report_to_csv_bytes,
    report_to_json_bytes,
    sweep_result,
)
from infoflow.errors import ParseError, SchemaError, ValidationError
from infoflow.sensitivity import sweep_ineffective


def doc(**overrides):
    base = {
        "stakeholders": [
            {"id": "A", "level": "federal"},
            {"id": "B", "level": "state"},
        ],
        "start": "A",
        "flows": [
            {"from": "A", "to": "B", "frequency": 10},
            {"from": "B", "to": "S", "frequency": 10},
        ],
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseNetwork:
    def test_reference_document(self, reference_bytes):
        spec = parse_network(reference_bytes)
        assert len(spec.stakeholders) == 5
        assert len(spec.flows) == 13
        assert spec.start == "A"
        assert infoflow.load_reference_network() == spec

    def test_minimal_document(self):
        spec = parse_network(doc())
        assert spec.ids == ("A", "B")

    def test_comment_field_is_allowed(self):
        assert parse_network(doc(comment="fitted numbers")).ids == ("A", "B")

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_network(b"{not json")

    def test_non_utf8(self):
        with pytest.raises(ParseError):
            parse_network(b"\xff\xfe{}")

    def test_nan_frequency_rejected(self):
        with pytest.raises(ParseError):
            parse_network(doc(flows=[{"from": "A", "to": "S", "frequency": float("nan")}]))

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_network("[1, 2]")

    def test_missing_key(self):
        payload = json.loads(doc())
        del payload["flows"]
        with pytest.raises(SchemaError):
            parse_network(json.dumps(payload))

    def test_extra_key(self):
        with pytest.raises(SchemaError):
            parse_network(doc(bonus=1))

    def test_unknown_start(self):
        with pytest.raises(ValidationError) as exc:
            parse_network(doc(start="Z"))
        assert exc.value.report.violations == ("start stakeholder 'Z' not declared",)

    def test_reserved_stakeholder_id(self):
        with pytest.raises(ValidationError) as exc:
            parse_network(doc(stakeholders=[{"id": "S", "level": "state"}], start="S"))
        assert exc.value.report.violations == (
            "reserved absorbing label used as stakeholder id 'S'",
            "flow from unknown stakeholder 'A'",
            "flow to unknown state 'B'",
            "flow from unknown stakeholder 'B'",
        )

    def test_duplicate_stakeholder_id(self):
        with pytest.raises(ValidationError) as exc:
            parse_network(doc(stakeholders=[
                {"id": "A", "level": "federal"}, {"id": "A", "level": "state"}]))
        assert exc.value.report.violations == (
            "duplicate stakeholder id 'A'",
            "flow to unknown state 'B'",
            "flow from unknown stakeholder 'B'",
        )

    def test_bad_level(self):
        with pytest.raises(ValidationError) as exc:
            parse_network(doc(stakeholders=[{"id": "A", "level": "galactic"}]))
        assert exc.value.report.violations == (
            "unknown level 'galactic' for stakeholder 'A'",
            "flow to unknown state 'B'",
            "flow from unknown stakeholder 'B'",
        )

    def test_stakeholder_extra_field(self):
        with pytest.raises(SchemaError):
            parse_network(doc(stakeholders=[
                {"id": "A", "level": "federal", "note": "hi"}]))

    def test_flow_from_absorbing_state(self):
        with pytest.raises(ValidationError) as exc:
            parse_network(doc(flows=[{"from": "DI", "to": "A", "frequency": 1}]))
        assert exc.value.report.violations == ("flow from unknown stakeholder 'DI'",)

    def test_flow_to_unknown_state(self):
        with pytest.raises(ValidationError) as exc:
            parse_network(doc(flows=[{"from": "A", "to": "Q", "frequency": 1}]))
        assert exc.value.report.violations == ("flow to unknown state 'Q'",)

    def test_boolean_frequency_rejected(self):
        with pytest.raises(SchemaError):
            parse_network(doc(flows=[{"from": "A", "to": "S", "frequency": True}]))

    def test_duplicate_flow_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_network(doc(flows=[
                {"from": "A", "to": "B", "frequency": 1},
                {"from": "A", "to": "B", "frequency": 2},
                {"from": "B", "to": "S", "frequency": 1},
            ]))
        assert exc.value.report.violations == ("duplicate flow A->B",)

    @pytest.mark.parametrize("overrides", [
        {"stakeholders": [{"id": "A", "level": ["federal"]}, {"id": "B", "level": "state"}]},
        {"start": 1},
        {"flows": [{"from": ["A"], "to": "B", "frequency": 10},
                   {"from": "B", "to": "S", "frequency": 10}]},
        {"flows": [{"from": "A", "to": None, "frequency": 10},
                   {"from": "B", "to": "S", "frequency": 10}]},
        {"comment": 1},
    ], ids=["level", "start", "from", "to", "comment"])
    def test_non_string_field_is_a_schema_error(self, overrides):
        with pytest.raises(SchemaError):
            parse_network(doc(**overrides))

    @pytest.mark.parametrize("overrides, message", [
        ({"stakeholders": []}, "'stakeholders' must be a non-empty array"),
        ({"stakeholders": [{"id": "", "level": "federal"}, {"id": "B", "level": "state"}]},
         "stakeholder id must be a non-empty string: ''"),
        ({"flows": {"from": "A", "to": "S", "frequency": 1}}, "'flows' must be an array"),
        ({"flows": [{"from": "A", "to": "S"}]}, "flow entries need exactly from, to, frequency"),
    ], ids=["no-stakeholders", "empty-id", "flows-object", "flow-keys"])
    def test_malformed_entries_are_a_schema_error(self, overrides, message):
        with pytest.raises(SchemaError) as exc:
            parse_network(doc(**overrides))
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("literal, value", [
        ("1e999", "inf"), ("-1e999", "-inf"), ("1" + "0" * 400, "inf"), ("-1" + "0" * 400, "-inf"),
    ], ids=["1e999", "-1e999", "long-int", "-long-int"])
    def test_overflowing_frequency_is_a_violation(self, literal, value):
        # json reads 1e999 as inf without calling parse_constant, and a long
        # integer literal as an int that float() cannot hold.
        text = doc().replace('"to": "B", "frequency": 10', f'"to": "B", "frequency": {literal}')
        assert literal in text
        with pytest.raises(ValidationError) as exc:
            parse_network(text)
        assert exc.value.report.violations == (f"non-finite frequency {value} on flow A->B",)

    @pytest.mark.parametrize("text, key", [
        ('{"stakeholders": [{"id": "A", "level": "federal"}, {"id": "B", "level": "state"}],'
         ' "start": "A", "flows": [{"from": "A", "to": "B", "to": "S", "frequency": 1},'
         ' {"from": "B", "to": "S", "frequency": 1}]}', "to"),
        ('{"stakeholders": [{"id": "A", "level": "federal", "id": "B"}],'
         ' "start": "A", "flows": [{"from": "A", "to": "S", "frequency": 1}]}', "id"),
        ('{"stakeholders": [{"id": "A", "level": "federal"}], "start": "A", "start": "A",'
         ' "flows": [{"from": "A", "to": "S", "frequency": 1}]}', "start"),
    ], ids=["flow", "stakeholder", "top-level"])
    def test_duplicate_key_is_a_schema_error(self, text, key):
        # json would keep the last value: the first flow would parse as A->S.
        with pytest.raises(SchemaError, match=f"duplicate key '{key}'"):
            parse_network(text)
        assert json.loads(text)  # well-formed JSON, refused only for the repeat

    def test_semantic_violations_carry_report(self):
        bad = doc(flows=[{"from": "A", "to": "B", "frequency": 10}])
        with pytest.raises(ValidationError) as exc:
            parse_network(bad)
        assert any("dead-end transient state" in v for v in exc.value.report.violations)

    def test_negative_frequency_is_semantic_not_schema(self):
        bad = doc(flows=[
            {"from": "A", "to": "B", "frequency": -3},
            {"from": "B", "to": "S", "frequency": 10},
        ])
        with pytest.raises(ValidationError) as exc:
            parse_network(bad)
        assert any("negative frequency" in v for v in exc.value.report.violations)


class TestRoundTrip:
    def test_emit_then_parse_is_identity(self, reference_spec):
        emitted = json.dumps(network_to_document(reference_spec))
        assert parse_network(emitted) == reference_spec
        commented = network_to_document(reference_spec, comment="fitted numbers")
        assert next(iter(commented.items())) == ("comment", "fitted numbers")
        assert parse_network(json.dumps(commented)) == reference_spec

    def test_json_report_preserves_floats_exactly(self, reference_spec):
        sw = sweep_ineffective(reference_spec, "D", 25, 3, "mc")
        report = report_document("sweep", "ff" * 32, sweep_result(sw), seed=3, iterations=25)
        parsed = json.loads(report_to_json_bytes(report))
        assert parsed["result"]["means"] == sw.means.tolist()
        assert parsed["result"]["impact_ratio"] == sw.impact_ratio

    def test_csv_and_json_numeric_values_agree(self, reference_spec):
        sw = sweep_ineffective(reference_spec, "D", 25, 3, "mc")
        report = report_document("sweep", "ff" * 32, sweep_result(sw), seed=3, iterations=25)
        lines = report_to_csv_bytes(report).decode().strip().splitlines()
        assert lines[0] == "n_di,mean_p_di,mean_p_s,mean_p_us"
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(table[:, 0], np.array(sw.n_di_values))
        assert np.array_equal(table[:, 1:], sw.means)


class TestDigest:
    def test_digest_is_sha256_hex(self, reference_bytes):
        digest = input_digest(reference_bytes)
        assert len(digest) == 64
        assert digest == input_digest(reference_bytes)
