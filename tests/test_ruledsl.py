"""Rule-DSL parser and evaluator against independent oracles."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from orchkit.errors import DslError
from orchkit.model import UNKNOWN, FeatureSchema, FeatureSet, FieldSpec, make_labels
from orchkit.ruledsl import Rule, evaluate, parse_logic, pretty

from conftest import golden_plan
from dslgen import LABELS, all_inputs, oracle_evaluate, random_program_source, random_schema

TWO_LABELS = make_labels(("Resectable", "Metastatic"))


def minimal_schema() -> FeatureSchema:
    return FeatureSchema((FieldSpec("distant_metastasis", "categorical",
                                    ("present", "absent")),))


MINIMAL = "when distant_metastasis == present -> Metastatic; default -> Resectable"


# --- parsing ------------------------------------------------------------------

def test_minimal_program_parses():
    logic = parse_logic(MINIMAL, [minimal_schema()], TWO_LABELS)
    assert len(logic.rules) == 1
    assert logic.rules[0].label.name == "Metastatic"
    assert logic.default_label.name == "Resectable"


def test_misspelled_field_is_reported_at_token():
    source = "when distant_metastases == present -> Metastatic; default -> Resectable"
    with pytest.raises(DslError,
                       match=r"^unknown field 'distant_metastases' \(line 1, column 6\)$"):
        parse_logic(source, [minimal_schema()], TWO_LABELS)


def test_missing_default_rejected():
    with pytest.raises(DslError, match="^program has no default rule$"):
        parse_logic("when distant_metastasis == present -> Metastatic",
                    [minimal_schema()], TWO_LABELS)


def test_syntax_error_carries_position():
    with pytest.raises(DslError, match=r"^unexpected character '=' \(line 1, column 25\)$") as err:
        parse_logic("when distant_metastasis = present -> Metastatic; default -> Resectable",
                    [minimal_schema()], TWO_LABELS)
    assert err.value.line == 1 and err.value.column > 1


COMMENTED = ("# staging rules\n"
             "\n"
             "  when distant_metastasis == present -> Metastatic;\n"
             "default -> Resectable\n")


@pytest.mark.parametrize("source,message,line,column", [
    (COMMENTED.replace("distant_metastasis", "distant_metastases"),
     "unknown field 'distant_metastases'", 3, 8),
    (COMMENTED.replace("==", "="), "unexpected character '='", 3, 27),
    (COMMENTED.replace(";", ""), "expected ';' between statements, found 'default'", 4, 1),
    (COMMENTED.replace("-> Resectable\n", "->"), "expected a label, found 'end of input'", 4, 11),
], ids=["unknown-field", "unexpected-character", "missing-semicolon", "end-of-input"])
def test_error_positions_count_comment_blank_and_indented_lines(source, message, line,
                                                                 column):
    parse_logic(COMMENTED, [minimal_schema()], TWO_LABELS)
    with pytest.raises(DslError) as err:
        parse_logic(source, [minimal_schema()], TWO_LABELS)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


# Each case's id ends with the kind of failure it checks for.
@pytest.mark.parametrize("source,fragment", [
    pytest.param(source, fragment, id=f"{source}-{kind}")
    for source, kind, fragment in [
        ("when distant_metastasis == someday -> Metastatic; default -> Resectable",
         "IllegalValueError",     # value not in the categorical menu
         "value 'someday' is not legal for field 'distant_metastasis'"),
        ("when distant_metastasis == unknown -> Metastatic; default -> Resectable",
         "IllegalValueError",     # unknown is only reachable via is_unknown
         "'unknown' cannot be compared directly"),
        ("when distant_metastasis == present -> Cured; default -> Resectable",
         "IllegalValueError",     # label outside the declared set
         "label 'Cured' is not in the declared label set"),
        ("default -> Resectable; default -> Metastatic",
         "DslSyntaxError", "duplicate default rule"),
    ]])
def test_static_checks(source, fragment):
    with pytest.raises(DslError, match=re.escape(fragment) + r".* \(line 1, column \d+\)$"):
        parse_logic(source, [minimal_schema()], TWO_LABELS)


def test_boolean_values_and_quoted_labels():
    schema = FeatureSchema((FieldSpec("flag", "boolean"),))
    labels = make_labels(("Low Risk", "High Risk"))
    logic = parse_logic('when flag == true -> "High Risk"; default -> "Low Risk"',
                        [schema], labels)
    assert evaluate(logic, FeatureSet({"flag": "true"})).name == "High Risk"
    with pytest.raises(DslError, match="value 'maybe' is not legal for field 'flag'"):
        parse_logic('when flag == maybe -> "High Risk"; default -> "Low Risk"',
                    [schema], labels)


def text_schema() -> FeatureSchema:
    return FeatureSchema((FieldSpec("finding", "text",
                                    aliases={"mets": "metastasis", "n/a": "unknown",
                                             "none": ""}),))


@pytest.mark.parametrize("condition", ["finding == mets", "finding == Metastasis",
                                       'finding == " METS "', "finding in {nodes, mets}",
                                       "not (finding != mets)"])
@pytest.mark.parametrize("reply", ["mets", "metastasis", " Metastasis"])
def test_a_text_literal_is_read_as_an_extracted_value_is(condition, reply):
    # An alias key in the program means what the same word means in a reply.
    labels = make_labels(("low", "high"))
    logic = parse_logic(f"when {condition} -> high; default -> low", [text_schema()], labels)
    assert "metastasis" in re.findall(r"\w+", pretty(logic))  # the literal, canonicalized
    features = FeatureSet.from_raw(text_schema(), {"finding": reply})
    assert evaluate(logic, features).name == "high"


@pytest.mark.parametrize("literal", ['""', '"  "', '"n/a"', "none", "unknown"])
def test_a_text_literal_read_as_unknown_is_refused(literal):
    # An empty or unknown-aliased reply is unknown, so `==` on it could never hold.
    with pytest.raises(DslError, match=r"(is not legal for field 'finding' of kind text"
                                       r"|cannot be compared directly)"):
        parse_logic(f"when finding == {literal} -> high; default -> low", [text_schema()],
                    make_labels(("low", "high")))


# --- evaluation ---------------------------------------------------------------

def test_first_match_forced_by_first_rule():
    plan = golden_plan()
    logic = plan.parsed_logic()
    features = FeatureSet({"distant_metastasis": "present", "smv_contact": "encasement",
                           "celiac_contact": "true"})
    assert evaluate(logic, features).name == "Metastatic"


def test_default_path_when_no_rule_fires():
    logic = parse_logic(MINIMAL, [minimal_schema()], TWO_LABELS)
    assert evaluate(logic, FeatureSet({"distant_metastasis": "absent"})).name == "Resectable"
    assert evaluate(logic, FeatureSet({})).name == "Resectable"  # unknown everywhere


def test_nested_condition_against_hand_truth_table():
    # Independent truth table: (smv == encasement or celiac == yes) and mets == absent.
    schema = FeatureSchema((
        FieldSpec("smv_involvement", "categorical", ("encasement", "abutment")),
        FieldSpec("celiac_contact", "categorical", ("yes", "no")),
        FieldSpec("mets", "categorical", ("present", "absent")),
    ))
    labels = make_labels(("Resectable", "LocallyAdvanced"))
    logic = parse_logic(
        "when (smv_involvement == encasement or celiac_contact == yes) "
        "and mets == absent -> LocallyAdvanced; default -> Resectable",
        [schema], labels)
    for smv, celiac, mets in itertools.product(("encasement", "abutment"),
                                               ("yes", "no"),
                                               ("present", "absent")):
        expected = "LocallyAdvanced" if ((smv == "encasement" or celiac == "yes")
                                         and mets == "absent") else "Resectable"
        got = evaluate(logic, FeatureSet({"smv_involvement": smv, "celiac_contact": celiac,
                                          "mets": mets}))
        assert got.name == expected, (smv, celiac, mets)


def test_three_boolean_fields_exhaustive_against_brute_interpreter():
    schema = FeatureSchema((FieldSpec("a", "boolean"), FieldSpec("b", "boolean"),
                            FieldSpec("c", "boolean")))
    labels = make_labels(("lo", "mid", "hi"))
    logic = parse_logic(
        "when a == true and not (b == true) -> hi;"
        "when b == true or c == true -> mid;"
        "default -> lo", [schema], labels)
    inputs = [dict(zip("abc", combo))
              for combo in itertools.product(("true", "false"), repeat=3)]
    assert len(inputs) == 8
    for features in inputs:
        assert evaluate(logic, FeatureSet(features)) == oracle_evaluate(logic, features)


def test_unknown_semantics():
    logic = parse_logic(
        "when distant_metastasis != present -> Resectable;"
        "default -> Metastatic", [minimal_schema()], TWO_LABELS)
    # != matches unknown; == never does.
    assert evaluate(logic, FeatureSet({})).name == "Resectable"
    eq_logic = parse_logic(MINIMAL, [minimal_schema()], TWO_LABELS)
    assert evaluate(eq_logic, FeatureSet({"distant_metastasis": UNKNOWN})).name == "Resectable"
    unk_logic = parse_logic(
        "when is_unknown(distant_metastasis) -> Metastatic; default -> Resectable",
        [minimal_schema()], TWO_LABELS)
    assert evaluate(unk_logic, FeatureSet({})).name == "Metastatic"
    assert evaluate(unk_logic, FeatureSet({"distant_metastasis": "absent"})).name == "Resectable"


def test_evaluate_accepts_feature_sets_and_is_deterministic():
    logic = parse_logic(MINIMAL, [minimal_schema()], TWO_LABELS)
    features = FeatureSet({"distant_metastasis": "present"})
    assert evaluate(logic, features) == evaluate(logic, features)


# --- properties over randomized programs -----------------------------------------

def test_random_programs_match_oracle_and_stay_total():
    rng = random.Random(20240817)
    for _ in range(150):
        schema = random_schema(rng)
        source = random_program_source(rng, schema)
        logic = parse_logic(source, [schema], LABELS)
        for features in all_inputs(schema):
            got = evaluate(logic, FeatureSet(features))
            assert got == oracle_evaluate(logic, features)
            assert got.name in {lbl.name for lbl in LABELS}


def test_prepending_always_false_rule_changes_nothing():
    rng = random.Random(7)
    for _ in range(40):
        schema = random_schema(rng)
        source = random_program_source(rng, schema)
        logic = parse_logic(source, [schema], LABELS)
        field = schema.fields[0]
        value = field.legal_values()[0]
        never = f"when {field.name} == {value} and not ({field.name} == {value}) -> L3;\n"
        shadowed = parse_logic(never + source, [schema], LABELS)
        for features in all_inputs(schema):
            features = FeatureSet(features)
            assert evaluate(logic, features) == evaluate(shadowed, features)


def test_pretty_round_trip():
    rng = random.Random(99)
    for _ in range(60):
        schema = random_schema(rng)
        logic = parse_logic(random_program_source(rng, schema), [schema], LABELS)
        reparsed = parse_logic(pretty(logic), [schema], LABELS)
        assert reparsed.rules == logic.rules
        assert reparsed.default_label == logic.default_label
    golden = golden_plan().parsed_logic()
    regolden = parse_logic(pretty(golden),
                           [s.output_schema for s in golden_plan().subtasks],
                           golden_plan().labels)
    assert regolden.rules == golden.rules


def test_pretty_writes_the_form_bundles_hash():
    """pretty's text feeds logic.parsed_digest, so a packed bundle unpacks
    only while that text stays byte-identical: an `or` under `and` or `not`
    keeps its doubled parentheses."""
    schema = FeatureSchema(tuple(FieldSpec(name, "boolean") for name in "abc"))
    for condition, form in (
            ("a == true and (b == true or c == true)",
             'a == "true" and ((b == "true" or c == "true"))'),
            ("not (b == true or c == true)", 'not ((b == "true" or c == "true"))')):
        logic = parse_logic(f"when {condition} -> Metastatic; default -> Resectable",
                            [schema], TWO_LABELS)
        assert pretty(logic) == f"when {form} -> Metastatic;\ndefault -> Resectable"


def test_rule_ast_is_plain_data():
    logic = parse_logic(MINIMAL, [minimal_schema()], TWO_LABELS)
    assert isinstance(logic.rules[0], Rule)
    assert logic.source == MINIMAL
