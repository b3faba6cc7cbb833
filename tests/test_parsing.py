"""Structured-output extraction and the prompt format contract."""

from __future__ import annotations

import pytest

from orchkit.errors import OutputParseError
from orchkit.model import FeatureSchema, FieldSpec
from orchkit.parsing import extract_json_object, format_block, parse_subtask_output

from conftest import vessel_schema


def test_extract_plain_object():
    assert extract_json_object('{"a": 1}') == {"a": 1}


def test_extract_from_markdown_fence():
    text = "```json\n{\"a\": 1}\n```"
    assert extract_json_object(text) == {"a": 1}


def test_extract_from_surrounding_prose():
    text = 'Sure! Here you go: {"values": {"x": "y"}} hope that helps.'
    assert extract_json_object(text) == {"values": {"x": "y"}}


def test_extract_handles_braces_inside_strings():
    text = 'prefix {"note": "keep {this} intact", "n": 2} suffix'
    assert extract_json_object(text)["note"] == "keep {this} intact"


def test_extract_rejects_plain_prose():
    with pytest.raises(OutputParseError):
        extract_json_object("no structure to be found here")


def test_format_block_lists_every_field_and_unknown():
    block = format_block(FeatureSchema((*vessel_schema().fields, FieldSpec("finding", "text"),
                                        FieldSpec("note", "text", required=False))))
    assert "smv_contact" in block and "celiac_contact" in block
    assert "none | abutment | encasement | unknown" in block
    assert "true | false | unknown" in block
    assert "\n- finding (text, required): free text, or unknown\n" in block
    assert "\n- note (text, optional): free text, or unknown\n" in block


def test_parse_subtask_output_values_envelope():
    reasoning, features = parse_subtask_output(
        vessel_schema(),
        '{"reasoning": "saw it", "values": {"smv_contact": "Abutment", '
        '"celiac_contact": "false"}}')
    assert reasoning == "saw it"
    assert features.get("smv_contact") == "abutment"


def test_parse_subtask_output_bare_fields_fallback():
    _, features = parse_subtask_output(
        vessel_schema(),
        '{"reasoning": "r", "smv_contact": "none", "celiac_contact": "true"}')
    assert features.get("celiac_contact") == "true"


def test_parse_subtask_output_strictness():
    with pytest.raises(OutputParseError, match="celiac_contact"):
        parse_subtask_output(vessel_schema(), '{"values": {"smv_contact": "none"}}')
    with pytest.raises(OutputParseError, match="stray"):
        parse_subtask_output(vessel_schema(),
                             '{"values": {"smv_contact": "none", '
                             '"celiac_contact": "true", "stray": 1}}')


@pytest.mark.parametrize("value", ['["A", {"b": 1}]', '{"b": 1}'], ids=["list", "object"])
def test_text_field_rejects_a_json_list_or_object(value):
    schema = FeatureSchema((FieldSpec("note", "text"),))
    with pytest.raises(OutputParseError, match="note"):
        parse_subtask_output(schema, f'{{"values": {{"note": {value}}}}}')
    assert parse_subtask_output(schema, '{"values": {"note": " A "}}')[1].get("note") == "a"
