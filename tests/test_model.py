"""Core type invariants and plan validation."""

from __future__ import annotations

import itertools
import re

import pytest

from orchkit.bundle import plan_from_dict, plan_to_dict
from orchkit.errors import DslError
from orchkit.model import (
    UNKNOWN,
    Document,
    FeatureSchema,
    FeatureSet,
    FieldSpec,
    OutcomeLabel,
    Plan,
    PromptSpec,
    SubtaskRun,
    SyntheticCase,
    TaskSpec,
    UserPrefs,
    make_labels,
    merge_schemas,
    replace,
    validate_plan,
)

from conftest import GOLDEN_LOGIC, golden_plan, golden_task, spread_schema, vessel_schema


# --- construction invariants -------------------------------------------------

@pytest.mark.parametrize("kwargs,named_field", [
    (dict(task_description="", guideline="g", preferences=None), "task_description"),
    (dict(task_description="t", guideline="  ", preferences=None), "guideline"),
])
def test_taskspec_rejects_empty_text(kwargs, named_field):
    prefs = UserPrefs(output_labels=make_labels(("a", "b")))
    kwargs["preferences"] = prefs
    with pytest.raises(ValueError, match=named_field):
        TaskSpec(**kwargs)


def test_userprefs_needs_two_distinct_labels():
    with pytest.raises(ValueError, match="output_labels"):
        UserPrefs(output_labels=make_labels(("only",)))
    with pytest.raises(ValueError, match="output_labels"):
        UserPrefs(output_labels=(OutcomeLabel("x", 0), OutcomeLabel("X", 1)))


def test_userprefs_accepts_plain_names():
    prefs = UserPrefs(output_labels=("low", "high"))
    assert prefs.output_labels[1] == OutcomeLabel("high", 1)


def test_fieldspec_categorical_needs_values():
    with pytest.raises(ValueError, match="values"):
        FieldSpec("f", "categorical", ())
    with pytest.raises(ValueError, match="kind"):
        FieldSpec("f", "enumish")
    with pytest.raises(ValueError, match="values"):
        FieldSpec("f", "boolean", ("true",))
    with pytest.raises(ValueError, match="unknown"):
        FieldSpec("f", "categorical", ("a", "Unknown"))


def test_fieldspec_alias_must_target_legal_value():
    with pytest.raises(ValueError, match="aliases"):
        FieldSpec("f", "categorical", ("a", "b"), aliases={"c": "nope"})
    spec = FieldSpec("f", "categorical", ("Present", "Absent"), aliases={"mets": "present"})
    assert spec.normalize_strict("METS") == "Present"
    assert spec.normalize_strict(" absent ") == "Absent"
    assert spec.normalize_strict("garbage") is None


def test_boolean_normalization():
    spec = FieldSpec("flag", "boolean", aliases={"yes": "true", "no": "false"})
    assert spec.normalize_strict(True) == "true"
    assert spec.normalize_strict("No") == "false"
    assert spec.normalize_strict("") == UNKNOWN


def test_text_normalization_reads_blank_as_unknown_through_an_alias_too():
    spec = FieldSpec("finding", "text",
                     aliases={"mets": "Metastasis", "none": " ", "n/a": "unknown"})
    assert spec.normalize_strict(" METS ") == "metastasis"
    assert [spec.normalize_strict(raw) for raw in ("", "  ", "none", "N/A")] == [UNKNOWN] * 4


def test_schema_rejects_duplicate_names():
    with pytest.raises(ValueError, match="unique"):
        FeatureSchema((FieldSpec("a", "boolean"), FieldSpec("a", "text")))


def test_document_invariants():
    with pytest.raises(ValueError, match="body"):
        Document(id="d1", body="   ")
    with pytest.raises(ValueError, match="format_tag"):
        Document(id="d1", body="text", format_tag="pdf")


def test_subtask_run_parse_status():
    schema = spread_schema()
    with pytest.raises(ValueError, match="parse_status"):
        SubtaskRun("s", "d", "r", FeatureSet.all_unknown(schema), parse_status="meh")


def test_promptspec_lifecycle():
    draft = PromptSpec.draft("s1", "do the thing")
    assert (draft.revision, draft.status) == (0, "draft")
    bumped = draft.with_revision("do it better")
    assert (bumped.revision, bumped.status) == (1, "draft")
    with pytest.raises(ValueError, match="report"):
        PromptSpec("s1", "p", revision=0, status="refined")


def test_outcome_label_total_order():
    labels = make_labels(("a", "b", "c"))
    for x, y in itertools.product(labels, repeat=2):
        assert (x < y) + (x == y) + (x > y) == 1
    assert max(labels) == labels[-1]


# --- feature sets --------------------------------------------------------------

def test_featureset_from_raw_strict_rejects():
    schema = vessel_schema()
    with pytest.raises(ValueError, match="smv_contact"):
        FeatureSet.from_raw(schema, {"smv_contact": "total", "celiac_contact": "true"})
    with pytest.raises(ValueError, match="celiac_contact"):
        FeatureSet.from_raw(schema, {"smv_contact": "none"})
    with pytest.raises(ValueError, match="extra"):
        FeatureSet.from_raw(schema, {"smv_contact": "none", "celiac_contact": "false",
                                     "extra": "x"})


def test_featureset_conformance_reporting(plan):
    """Plan checks a case by the rule a parsed reply meets, naming the case."""
    for expected, defect in (
            ({"smv_contact": "sideways", "celiac_contact": "true"},
             "field 'smv_contact' has illegal value 'sideways'"),
            ({"smv_contact": "none", "celiac_contact": "true", "stray": "x"},
             "undeclared field 'stray'"),
            ({"smv_contact": "none"}, "required field 'celiac_contact' missing")):
        case = SyntheticCase("vessel_involvement", "text", FeatureSet(expected))
        with pytest.raises(ValueError, match="^" + re.escape(
                f"Plan.synthetic_sets: case 0 in set 'vessel_involvement': {defect}") + "$"):
            plan.with_synthetic_sets({**plan.synthetic_sets, "vessel_involvement": (case,)})


def test_plan_accepts_a_case_that_leaves_an_optional_field_out(plan):
    spread, vessel = plan.subtasks
    smv, celiac = vessel.output_schema.fields
    optional = replace(vessel, output_schema=FeatureSchema((smv, replace(celiac,
                                                                         required=False))))
    case = SyntheticCase(vessel.id, "text", FeatureSet({"smv_contact": "none"}))
    widened = replace(plan, subtasks=(spread, optional),
                      synthetic_sets={**plan.synthetic_sets, vessel.id: (case,)})
    assert widened.synthetic_sets[vessel.id] == (case,)


def test_merge_schemas_first_wins():
    merged = merge_schemas([spread_schema(), vessel_schema()])
    assert merged.field_names() == ("distant_metastasis", "smv_contact", "celiac_contact")


# --- validate_plan ---------------------------------------------------------------

def test_validate_plan_golden_is_clean(plan):
    assert validate_plan(plan, min_cases=1) == []


def test_validate_plan_dangling_case_reference(plan):
    raw = plan_to_dict(plan)
    raw["synthetic_sets"]["ghost"] = [{"input_text": "text", "expected": {"x": "y"}}]
    with pytest.raises(ValueError) as violation:
        plan_from_dict(raw)
    assert "ghost" in str(violation.value)


def test_validate_plan_min_case_count(plan):
    violations = validate_plan(plan, min_cases=5)
    assert len(violations) == 2  # both subtasks hold 3 fixture cases
    assert all("minimum is 5" in v for v in violations)


def test_validate_plan_field_collision():
    raw = plan_to_dict(golden_plan())
    raw["subtasks"].append({"id": "clash", "name": "Clash", "description": "redeclares a field",
                            "schema": {"fields": [{"name": "distant_metastasis",
                                                   "kind": "boolean"}]}})
    raw["prompts"].append({"subtask_id": "clash", "system_prompt": "p", "revision": 0,
                           "status": "draft", "report": None})
    raw["synthetic_sets"]["clash"] = [{"input_text": "t",
                                       "expected": {"distant_metastasis": "true"}}]
    with pytest.raises(ValueError) as violation:
        plan_from_dict(raw)
    assert "declared by both" in str(violation.value)
    assert "distant_metastasis" in str(violation.value)


def _brute_scan_referenced_fields(logic_source: str) -> set[str]:
    """Independent oracle: crude token scan for fields used in conditions."""
    referenced = set()
    for m in re.finditer(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:==|!=|\bin\b)", logic_source):
        referenced.add(m.group(1))
    for m in re.finditer(r"is_unknown\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)", logic_source):
        referenced.add(m.group(1))
    return referenced - {"is_unknown"}


def test_validate_plan_undeclared_logic_field_matches_brute_oracle(plan):
    bad_logic = GOLDEN_LOGIC.replace("distant_metastasis ==", "tumor_sized ==")
    with pytest.raises(DslError, match="unknown field 'tumor_sized'"):
        Plan(subtasks=plan.subtasks, prompts=plan.prompts,
             logic_source=bad_logic, labels=plan.labels,
             synthetic_sets=plan.synthetic_sets, provenance=plan.provenance)

    declared = {name for s in plan.subtasks for name in s.output_schema.field_names()}
    oracle_undeclared = _brute_scan_referenced_fields(bad_logic) - declared
    assert oracle_undeclared == {"tumor_sized"}
    # The oracle agrees the golden logic references only declared fields.
    assert _brute_scan_referenced_fields(GOLDEN_LOGIC) <= declared


def test_plan_requires_prompt_per_subtask(plan):
    with pytest.raises(ValueError, match="prompts"):
        Plan(subtasks=plan.subtasks, prompts=plan.prompts[:1],
             logic_source=plan.logic_source, labels=plan.labels)


def test_golden_task_fixture_is_valid():
    task = golden_task()
    assert task.preferences.max_subtasks == 4
