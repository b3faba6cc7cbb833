"""Planner operations against scripted cloud backends."""

from __future__ import annotations

import json
import threading
import warnings

import pytest

from orchkit.errors import (
    CoverageIncompleteWarning,
    CoverageUnreachableWarning,
    PhaseViolationError,
    PlannerError,
)
from orchkit.gateway import PHASE_CLOUD, PHASE_LOCAL, BackendProfile, Gateway, ScriptedBackend
from orchkit.model import FeatureSet, SubtaskRun, validate_plan
from orchkit.parsing import format_block
from orchkit.planner import (
    build_plan,
    decompose,
    generate_synthetic,
    refine_prompt,
    task_digest,
)

from conftest import golden_subtasks

PLAN_REPLY = {
    "subtasks": [
        {"id": "tumor_location", "name": "Primary tumor location",
         "description": "Locate the primary tumor within the organ.",
         "fields": [{"name": "tumor_location", "kind": "categorical",
                     "values": ["head", "body", "tail"], "required": True}],
         "prompt": "Report the primary tumor location. The guideline divides the "
                   "organ into head, body, and tail."},
        {"id": "distant_spread", "name": "Distant spread",
         "description": "Detect statements of distant metastatic disease.",
         "fields": [{"name": "distant_metastasis", "kind": "categorical",
                     "values": ["present", "absent"], "required": True,
                     "aliases": {"mets": "present"}}],
         "prompt": "Decide whether distant metastasis is stated. The guideline "
                   "treats any distant lesion as metastatic disease."},
        {"id": "vessel_involvement", "name": "Vessel involvement",
         "description": "Grade vessel contact.",
         "fields": [{"name": "smv_contact", "kind": "categorical",
                     "values": ["none", "abutment", "encasement"], "required": True},
                    {"name": "celiac_contact", "kind": "boolean", "required": True}],
         "prompt": "Grade contact with the SMV and the celiac axis per the guideline."},
    ],
    "logic": ("when distant_metastasis == present -> Metastatic; "
              'when smv_contact == encasement or celiac_contact == true -> "Locally Advanced"; '
              'when smv_contact == abutment -> "Borderline Resectable"; '
              "default -> Resectable"),
}


class Harness:
    """Scripted cloud backend that records requests and can misbehave first."""

    def __init__(self, good_reply: str, *, bad_first: str | None = None,
                 always_bad: str | None = None):
        self.requests = []
        self.good_reply = good_reply
        self.bad_first = bad_first
        self.always_bad = always_bad

    def __call__(self, request) -> str:
        self.requests.append(request)
        if self.always_bad is not None:
            return self.always_bad
        is_repair = "Your previous reply could not be used" in request.system_prompt
        if self.bad_first is not None and not is_repair:
            return self.bad_first
        return self.good_reply

    def gateway(self, phase=PHASE_CLOUD) -> Gateway:
        backend = ScriptedBackend(self)
        return Gateway(BackendProfile.scripted(backend, model="scripted-planner"),
                       phase, sleep=lambda _s: None)


def test_decompose_three_subtask_fixture(task):
    harness = Harness(json.dumps(PLAN_REPLY))
    plan = decompose(task, harness.gateway())
    assert len(plan.subtasks) == 3
    assert len(plan.prompts) == 3
    assert [s.id for s in plan.subtasks] == ["tumor_location", "distant_spread",
                                             "vessel_involvement"]
    assert validate_plan(plan, min_cases=0) == []
    for subtask, prompt in zip(plan.subtasks, plan.prompts):
        assert task.task_description.strip() in prompt.system_prompt
        assert format_block(subtask.output_schema) in prompt.system_prompt
        assert prompt.revision == 0 and prompt.status == "draft"
    assert plan.provenance["planner_model"] == "scripted-planner"
    assert plan.provenance["task_digest"] == task_digest(task)
    assert "created_at" not in plan.provenance
    assert len(harness.requests) == 1


def test_decompose_repairs_undeclared_logic_field(task):
    bad = dict(PLAN_REPLY, logic=PLAN_REPLY["logic"].replace(
        "distant_metastasis ==", "tumor_sized =="))
    harness = Harness(json.dumps(PLAN_REPLY), bad_first=json.dumps(bad))
    plan = decompose(task, harness.gateway())
    assert len(harness.requests) == 2  # one repair round-trip
    assert "Your previous reply could not be used" in harness.requests[1].system_prompt
    assert "tumor_sized" in harness.requests[1].system_prompt
    assert validate_plan(plan, min_cases=0) == []


@pytest.mark.parametrize("key, value", [
    ("values", [1, 2]), ("values", "abc"), ("required", "no"), ("id", ["a"]),
    ("name", 5), ("description", None), ("prompt", {"text": "x"}),
], ids=["values-numbers", "values-a-string", "required-a-string", "id-a-list",
        "name-a-number", "description-null", "prompt-an-object"])
def test_decompose_repairs_a_mistyped_subtask_value(task, key, value):
    """A wrongly typed value is reported to the repair loop, not coerced."""
    bad = json.loads(json.dumps(PLAN_REPLY))
    entry = bad["subtasks"][0]
    (entry["fields"][0] if key in ("values", "required") else entry)[key] = value
    harness = Harness(json.dumps(PLAN_REPLY), bad_first=json.dumps(bad))
    plan = decompose(task, harness.gateway())
    assert len(harness.requests) == 2  # one repair round-trip
    assert plan == decompose(task, Harness(json.dumps(PLAN_REPLY)).gateway())


def test_decompose_unparseable_after_all_attempts(task):
    harness = Harness("", always_bad="I cannot answer in JSON, sorry.")
    with pytest.raises(PlannerError, match="reply unusable after 2 repair round-trips"):
        decompose(task, harness.gateway())
    assert len(harness.requests) == 3  # initial + 2 repairs


def test_decompose_semantic_failure_exhausts_budget(task):
    too_many = dict(PLAN_REPLY)
    too_many["subtasks"] = PLAN_REPLY["subtasks"] * 3  # duplicates, over limit
    harness = Harness("", always_bad=json.dumps(too_many))
    with pytest.raises(PlannerError, match="reply still invalid after 2 repair round-trips"):
        decompose(task, harness.gateway())


def _shared_field_reply() -> str:
    """PLAN_REPLY with its last subtask also declaring the first one's field."""
    reply = json.loads(json.dumps(PLAN_REPLY))
    reply["subtasks"][-1]["fields"].append(reply["subtasks"][0]["fields"][0])
    return json.dumps(reply)


def test_decompose_repairs_subtasks_that_share_a_field(task):
    harness = Harness(json.dumps(PLAN_REPLY), bad_first=_shared_field_reply())
    plan = decompose(task, harness.gateway())
    assert len(harness.requests) == 2  # one repair round-trip
    assert ("field 'tumor_location' declared by both 'tumor_location' and "
            "'vessel_involvement'") in harness.requests[1].system_prompt
    assert plan == decompose(task, Harness(json.dumps(PLAN_REPLY)).gateway())


def test_decompose_shared_field_exhausts_budget_exit_3(task):
    harness = Harness("", always_bad=_shared_field_reply())
    with pytest.raises(PlannerError, match="reply still invalid after 2 repair round-trips: "
                                           ".*declared by both") as failure:
        decompose(task, harness.gateway())
    assert failure.value.exit_code == 3
    assert len(harness.requests) == 3  # initial + 2 repairs


def test_decompose_requires_cloud_phase(task):
    harness = Harness(json.dumps(PLAN_REPLY))
    with pytest.raises(PhaseViolationError):
        decompose(task, harness.gateway(phase=PHASE_LOCAL))


def test_decompose_idempotent_under_scripted_backend(task):
    harness = Harness(json.dumps(PLAN_REPLY))
    first = decompose(task, harness.gateway())
    second = decompose(task, harness.gateway())
    assert first == second


# --- synthetic cases ---------------------------------------------------------

def _spread_cases_reply(n: int, values=("present", "absent", "unknown")) -> str:
    cases = [{"input": f"synthetic report {i}",
              "expected": {"distant_metastasis": values[i % len(values)]}}
             for i in range(n)]
    return json.dumps({"cases": cases})


def test_generate_synthetic_happy_path(task):
    spread = golden_subtasks()[0]
    harness = Harness(_spread_cases_reply(10))
    cases = generate_synthetic(spread, task.guideline, harness.gateway(), count=10)
    assert len(cases) == 10
    for case in cases:
        assert case.subtask_id == spread.id
        assert FeatureSet.from_raw(spread.output_schema, case.expected.values) == case.expected


def test_generate_synthetic_repairs_schema_violation(task):
    spread = golden_subtasks()[0]
    bad = json.loads(_spread_cases_reply(10))
    bad["cases"][3]["expected"]["distant_metastasis"] = "everywhere"
    harness = Harness(_spread_cases_reply(10), bad_first=json.dumps(bad))
    cases = generate_synthetic(spread, task.guideline, harness.gateway(), count=10)
    assert len(cases) == 10
    assert len(harness.requests) == 2


def test_generate_synthetic_truncates_extras(task):
    spread = golden_subtasks()[0]
    harness = Harness(_spread_cases_reply(12))
    cases = generate_synthetic(spread, task.guideline, harness.gateway(), count=10)
    assert len(cases) == 10


def test_generate_synthetic_pigeonhole_warns_unreachable(task):
    import orchkit.model as m
    wide = m.Subtask("wide", "Wide", "too many values to cover",
                     m.FeatureSchema((m.FieldSpec(
                         "code", "categorical",
                         tuple(f"c{i}" for i in range(15))),)))
    cases_reply = json.dumps({"cases": [
        {"input": f"text {i}", "expected": {"code": f"c{i % 15}"}} for i in range(10)]})
    harness = Harness(cases_reply)
    with pytest.warns(CoverageUnreachableWarning):
        cases = generate_synthetic(wide, task.guideline, harness.gateway(), count=10)
    assert len(cases) == 10
    assert len(harness.requests) == 1  # no pointless coverage re-prompt


def test_generate_synthetic_coverage_reprompt(task):
    spread = golden_subtasks()[0]
    lopsided = _spread_cases_reply(10, values=("present",))

    class CoverageHarness(Harness):
        def __call__(self, request):
            self.requests.append(request)
            if "left these values uncovered" in request.system_prompt:
                return _spread_cases_reply(10)
            return lopsided

    harness = CoverageHarness("")
    cases = generate_synthetic(spread, task.guideline, harness.gateway(), count=10)
    assert len(harness.requests) == 2
    covered = {c.expected.get("distant_metastasis") for c in cases}
    assert covered >= {"present", "absent"}


def test_generate_synthetic_coverage_gap_warns_after_retry(task):
    spread = golden_subtasks()[0]
    harness = Harness(_spread_cases_reply(10, values=("present",)))
    with pytest.warns(CoverageIncompleteWarning, match="absent"):
        cases = generate_synthetic(spread, task.guideline, harness.gateway(), count=10)
    assert len(cases) == 10


def _vessel_gateway(first: str, retry: str) -> Gateway:
    """A cloud model that answers `retry` to the coverage re-prompt (and its
    repairs) and `first` to everything else."""
    def cloud(request):
        return retry if "left these values uncovered" in request.system_prompt else first

    return Gateway(BackendProfile.scripted(ScriptedBackend(cloud)), PHASE_CLOUD,
                   sleep=lambda _s: None)


def _vessel_cases_reply(smv_values) -> str:
    cases = [{"input": f"synthetic report {i}",
              "expected": {"smv_contact": smv_values[i % len(smv_values)],
                           "celiac_contact": ("true", "false")[i % 2]}}
             for i in range(10)]
    return json.dumps({"cases": cases})


def test_generate_synthetic_keeps_a_retry_that_covers_more(task):
    gateway = _vessel_gateway(_vessel_cases_reply(("none",)),
                              _vessel_cases_reply(("none", "abutment")))
    with pytest.warns(CoverageIncompleteWarning) as caught:
        cases = generate_synthetic(golden_subtasks()[1], task.guideline, gateway, count=10)
    assert [str(w.message) for w in caught] == [
        "subtask 'vessel_involvement': values still uncovered after retry: "
        "smv_contact=encasement"]
    assert {c.expected.get("smv_contact") for c in cases} == {"none", "abutment"}


def test_generate_synthetic_keeps_the_first_set_when_the_retry_fails(task):
    gateway = _vessel_gateway(_vessel_cases_reply(("none",)), "no json here")
    with pytest.warns(CoverageIncompleteWarning) as caught:
        cases = generate_synthetic(golden_subtasks()[1], task.guideline, gateway, count=10)
    assert [str(w.message) for w in caught] == [
        "subtask 'vessel_involvement': values still uncovered after retry: "
        "smv_contact=abutment, smv_contact=encasement"]
    assert {c.expected.get("smv_contact") for c in cases} == {"none"}


def test_generate_synthetic_malformed_everywhere(task):
    spread = golden_subtasks()[0]
    harness = Harness("", always_bad="no json here")
    with pytest.raises(PlannerError, match="reply unusable after"):
        generate_synthetic(spread, task.guideline, harness.gateway(), count=10)


# --- refinement ----------------------------------------------------------------

def _failures_for(subtask):
    case_values = {"distant_metastasis": "present"}
    run_values = {"distant_metastasis": "absent"}
    from orchkit.model import SyntheticCase
    case = SyntheticCase(subtask.id, "lesions in the liver",
                         FeatureSet(case_values))
    run = SubtaskRun(subtask.id, "synthetic-validation",
                     "No metastasis mentioned, I think.", FeatureSet(run_values))
    return [(case, run), (case, run)]


def test_refine_prompt_bumps_revision(task):
    spread = golden_subtasks()[0]
    draft = __import__("orchkit.model", fromlist=["PromptSpec"]).PromptSpec.draft(
        spread.id, "old prompt\n\n" + format_block(spread.output_schema))
    harness = Harness(json.dumps({"system_prompt": "much improved prompt"}))
    revised = refine_prompt(draft, _failures_for(spread), harness.gateway(),
                            schema=spread.output_schema)
    assert revised.revision == 1 and revised.status == "draft"
    assert revised.system_prompt != draft.system_prompt
    assert format_block(spread.output_schema) in revised.system_prompt  # re-appended
    meta = harness.requests[0].system_prompt
    assert "lesions in the liver" in meta           # failing input
    assert '"distant_metastasis": "present"' in meta  # expected
    assert '"distant_metastasis": "absent"' in meta   # actual
    assert "No metastasis mentioned" in meta          # reasoning trace


def test_refine_prompt_requires_failures(task):
    spread = golden_subtasks()[0]
    from orchkit.model import PromptSpec
    draft = PromptSpec.draft(spread.id, "p")
    harness = Harness(json.dumps({"system_prompt": "x"}))
    with pytest.raises(ValueError, match="non-empty"):
        refine_prompt(draft, [], harness.gateway(), schema=spread.output_schema)


# --- full planning pass -----------------------------------------------------------

def _covering_cases_reply(system: str) -> str:
    """A three-case set covering every value of the PLAN_REPLY subtask whose
    schema block is in `system` (the block is unique per subtask)."""
    if "- tumor_location (" in system:
        return json.dumps({"cases": [
            {"input": f"case {i}", "expected": {"tumor_location": v}}
            for i, v in enumerate(("head", "body", "tail"))]})
    if "- distant_metastasis (" in system:
        return _spread_cases_reply(3)
    return json.dumps({"cases": [
        {"input": "case a", "expected": {"smv_contact": "none", "celiac_contact": "false"}},
        {"input": "case b", "expected": {"smv_contact": "abutment", "celiac_contact": "true"}},
        {"input": "case c", "expected": {"smv_contact": "encasement",
                                         "celiac_contact": "unknown"}}]})


def _planning_gateway(synthetic, plan_reply=PLAN_REPLY) -> Gateway:
    """A cloud gateway answering the decompose request with `plan_reply` and
    every synthetic-set request with `synthetic(system_prompt)`."""
    def handler(request):
        if "Decompose the task" in request.system_prompt:
            return json.dumps(plan_reply)
        return synthetic(request.system_prompt)

    return Gateway(BackendProfile.scripted(ScriptedBackend(handler)), PHASE_CLOUD,
                   sleep=lambda _s: None)


def test_build_plan_attaches_synthetic_sets(task):
    plan = build_plan(task, _planning_gateway(_covering_cases_reply))
    assert set(plan.synthetic_sets) == {s.id for s in plan.subtasks}
    assert validate_plan(plan, min_cases=3) == []


def test_build_plan_requests_every_synthetic_set_at_once(task):
    """Every subtask's first request waits until all of them are in flight;
    requested one at a time, the first wait breaks the barrier."""
    barrier = threading.Barrier(len(PLAN_REPLY["subtasks"]), timeout=5)

    def synthetic(system):
        barrier.wait()
        return _covering_cases_reply(system)

    plan = build_plan(task, _planning_gateway(synthetic))
    assert [s.id for s in plan.subtasks] == list(plan.synthetic_sets)
    assert plan == build_plan(task, _planning_gateway(_covering_cases_reply))


def test_build_plan_raises_the_first_failing_subtask_in_subtask_order(task):
    """Subtask 1 replies only once subtask 2's request is in, and exhausts its
    repairs while subtask 2 succeeds; subtask 3 fails with another error.
    Subtask 1's error, the first in subtask order, is the one raised."""
    spread_done = threading.Event()
    location_requests = []

    def synthetic(system):
        if "- tumor_location (" in system:
            location_requests.append(system)
            assert spread_done.wait(timeout=5), "subtask 2 was not requested concurrently"
            return "no json here"
        if "- distant_metastasis (" in system:
            spread_done.set()
            return _spread_cases_reply(3)
        return json.dumps({"cases": [{"input": "case", "expected": {"smv_contact": "wide"}}]})

    with pytest.raises(PlannerError, match="^reply unusable after 2 repair round-trips"):
        build_plan(task, _planning_gateway(synthetic))
    assert len(location_requests) == 3  # initial + 2 repairs


def test_build_plan_records_every_lanes_coverage_warning(task):
    """Coverage warnings raised in lanes reach the caller, one per subtask."""
    two = dict(PLAN_REPLY, subtasks=PLAN_REPLY["subtasks"][:2],
               logic="when distant_metastasis == present -> Metastatic; default -> Resectable")
    barrier = threading.Barrier(2, timeout=5)

    def synthetic(system):
        barrier.wait()  # the first requests, then the coverage retries, meet
        if "- tumor_location (" in system:
            return json.dumps({"cases": [{"input": f"case {i}",
                                          "expected": {"tumor_location": "head"}}
                                         for i in range(3)]})
        return _spread_cases_reply(3, values=("present",))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_plan(task, _planning_gateway(synthetic, two))
    incomplete = sorted(str(w.message) for w in caught
                        if issubclass(w.category, CoverageIncompleteWarning))
    assert incomplete == [
        "subtask 'distant_spread': values still uncovered after retry: "
        "distant_metastasis=absent",
        "subtask 'tumor_location': values still uncovered after retry: "
        "tumor_location=body, tumor_location=tail",
    ]
