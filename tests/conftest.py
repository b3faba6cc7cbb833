"""Shared fixtures: a small staging-style golden plan and helpers.

The fixture domain is a four-label ordinal staging task with two subtasks
(distant spread, vessel involvement); everything else in the suite derives
from it so plan/bundle/executor tests agree on one source of truth.
"""

from __future__ import annotations

import pytest

from orchkit.model import (
    FeatureSchema,
    FeatureSet,
    FieldSpec,
    Plan,
    PromptSpec,
    Subtask,
    SyntheticCase,
    TaskSpec,
    UserPrefs,
    make_labels,
)

try:
    from hypothesis import settings
except ImportError:  # the property-based modules skip themselves without it
    pass
else:
    # Property-based tests replay the same examples on every run and keep no
    # example database; each test sets its own max_examples.
    settings.register_profile("orchkit", derandomize=True, database=None, deadline=None)
    settings.load_profile("orchkit")

LABEL_NAMES = ("Resectable", "Borderline Resectable", "Locally Advanced", "Metastatic")

GOLDEN_LOGIC = (
    'when distant_metastasis == present -> Metastatic;\n'
    'when smv_contact == encasement or celiac_contact == true -> "Locally Advanced";\n'
    'when smv_contact == abutment -> "Borderline Resectable";\n'
    'default -> Resectable'
)


def spread_schema() -> FeatureSchema:
    return FeatureSchema((
        FieldSpec("distant_metastasis", "categorical", ("present", "absent"),
                  aliases={"mets": "present"}),
    ))


def vessel_schema() -> FeatureSchema:
    return FeatureSchema((
        FieldSpec("smv_contact", "categorical", ("none", "abutment", "encasement")),
        FieldSpec("celiac_contact", "boolean"),
    ))


def golden_subtasks() -> tuple[Subtask, Subtask]:
    return (
        Subtask("distant_spread", "Distant spread",
                "Decide whether the report states distant metastatic disease.",
                spread_schema()),
        Subtask("vessel_involvement", "Vessel involvement",
                "Grade contact with the main vessels named in the guideline.",
                vessel_schema()),
    )


def golden_cases(per_subtask: int = 3) -> dict[str, tuple[SyntheticCase, ...]]:
    """Case inputs carry token markers so the fake extractor can 'read' them."""
    spread, vessel = golden_subtasks()
    spread_values = ["present", "absent", "unknown"]
    vessel_values = [("none", "false"), ("abutment", "true"), ("encasement", "unknown")]
    sets: dict[str, tuple[SyntheticCase, ...]] = {}
    sets[spread.id] = tuple(
        SyntheticCase(spread.id,
                      f"synthetic spread case {i}: mets={spread_values[i % 3]}",
                      FeatureSet({"distant_metastasis": spread_values[i % 3]}))
        for i in range(per_subtask))
    sets[vessel.id] = tuple(
        SyntheticCase(vessel.id,
                      f"synthetic vessel case {i}: smv={vessel_values[i % 3][0]} "
                      f"celiac={vessel_values[i % 3][1]}",
                      FeatureSet({"smv_contact": vessel_values[i % 3][0],
                                  "celiac_contact": vessel_values[i % 3][1]}))
        for i in range(per_subtask))
    return sets


def fake_local_extractor(request) -> str:
    """Perfect scripted extractor: reads mets=/smv=/celiac= tokens from the
    input text and answers for whichever subtask the system prompt names."""
    import json
    import re

    def token(name: str) -> str:
        m = re.search(rf"{name}=(\w+)", request.user_content)
        return m.group(1) if m else "unknown"

    if "Distant spread" in request.system_prompt:
        values = {"distant_metastasis": token("mets")}
    else:
        values = {"smv_contact": token("smv"), "celiac_contact": token("celiac")}
    return json.dumps({"reasoning": f"tokens say {values}", "values": values})


def fixture_documents():
    from orchkit.model import Document

    return [
        Document("d1", "Report one. mets=present smv=none celiac=false"),
        Document("d2", "Report two. mets=absent smv=encasement celiac=false"),
        Document("d3", "Report three. mets=absent smv=abutment celiac=false"),
        Document("d4", "Report four. mets=absent smv=none celiac=false"),
        Document("d5", "Report five. mets=absent smv=none celiac=true",
                 format_tag="structured"),
    ]


# Labels the fixture documents synthesize to, in document order.
FIXTURE_DOC_LABELS = ("Metastatic", "Locally Advanced", "Borderline Resectable",
                      "Resectable", "Locally Advanced")


def golden_plan(per_subtask_cases: int = 3) -> Plan:
    subtasks = golden_subtasks()
    prompts = tuple(
        PromptSpec.draft(s.id, f"Extract {s.name} fields as instructed. "
                               f"Reply with the JSON contract.")
        for s in subtasks)
    return Plan(subtasks=subtasks, prompts=prompts, logic_source=GOLDEN_LOGIC,
                labels=make_labels(LABEL_NAMES),
                synthetic_sets=golden_cases(per_subtask_cases),
                provenance={"planner_model": "fixture", "task_digest": "0" * 64,
                            "guideline_digest": "1" * 64})


def golden_task() -> TaskSpec:
    return TaskSpec(
        task_description="Assign one staging label to each report using the guideline.",
        guideline=("Staging rules: distant metastasis means Metastatic. "
                   "Encasement of the SMV or any celiac contact means Locally Advanced. "
                   "Abutment of the SMV means Borderline Resectable. "
                   "Otherwise Resectable."),
        preferences=UserPrefs(output_labels=make_labels(LABEL_NAMES),
                              max_subtasks=4, synthetic_cases_per_subtask=3))


def refined_plan(per_subtask_cases: int = 3) -> Plan:
    """Golden plan with every prompt refined via a hand-built passing report."""
    from orchkit.model import SubtaskRun
    from orchkit.validator import CaseResult, ValidationReport

    base = golden_plan(per_subtask_cases)
    new_prompts = []
    for subtask in base.subtasks:
        cases = base.synthetic_sets[subtask.id]
        results = tuple(
            CaseResult(i, case,
                       SubtaskRun(subtask.id, "synthetic-validation",
                                  f"looked at case {i}", case.expected),
                       passed=True)
            for i, case in enumerate(cases))
        report = ValidationReport(subtask_id=subtask.id, revision=0,
                                  results=results, passes=len(results),
                                  total=len(results), verdict="passed")
        new_prompts.append(base.prompt_for(subtask.id).refined(report))
    return base.with_prompts(new_prompts)


@pytest.fixture
def plan() -> Plan:
    return golden_plan()


@pytest.fixture
def task() -> TaskSpec:
    return golden_task()


# ---------------------------------------------------------------------------
# End-to-end workspace: files plus recorded sessions for both channels
# ---------------------------------------------------------------------------

E2E_PLAN_REPLY = {
    "subtasks": [
        {"id": "distant_spread", "name": "Distant spread",
         "description": "Decide whether the report states distant metastatic disease.",
         "fields": [{"name": "distant_metastasis", "kind": "categorical",
                     "values": ["present", "absent"], "required": True,
                     "aliases": {"mets": "present"}}],
         "prompt": "Distant spread: read the report and decide whether distant "
                   "metastasis is stated. The guideline treats any distant lesion "
                   "as metastatic disease."},
        {"id": "vessel_involvement", "name": "Vessel involvement",
         "description": "Grade contact with the major vessels.",
         "fields": [{"name": "smv_contact", "kind": "categorical",
                     "values": ["none", "abutment", "encasement"], "required": True},
                    {"name": "celiac_contact", "kind": "boolean", "required": True}],
         "prompt": "Vessel involvement: grade SMV contact and celiac contact as "
                   "the guideline defines them."},
    ],
    "logic": GOLDEN_LOGIC,
}


def e2e_cloud_handler(request) -> str:
    """Scripted planning model for the end-to-end fixture."""
    import json

    system = request.system_prompt
    if "Decompose the task" in system:
        return json.dumps(E2E_PLAN_REPLY)
    if "Rewrite the system prompt" in system:
        return json.dumps({"system_prompt": "Distant spread: improved instructions."})
    if "- distant_metastasis (" in system:
        cases = golden_cases()["distant_spread"]
    else:
        cases = golden_cases()["vessel_involvement"]
    return json.dumps({"cases": [
        {"input": c.input_text, "expected": dict(c.expected.values)} for c in cases]})


def stuck_local_handler(request) -> str:
    """Extractor that is hopeless on the spread subtask, fine on vessels."""
    import json

    if "Distant spread" in request.system_prompt:
        return json.dumps({"reasoning": "always the same guess",
                           "values": {"distant_metastasis": "absent"}})
    return fake_local_extractor(request)


def build_e2e_workspace(root, *, rounds: int = 3, stuck: bool = False,
                        max_iters: int = 5) -> dict:
    """Write task inputs, documents, ground truth, config, and record the
    cloud/local sessions that a CLI run over those files will replay."""
    import json

    from orchkit.gateway import (
        PHASE_CLOUD,
        PHASE_LOCAL,
        BackendProfile,
        Gateway,
        RecordingBackend,
        ScriptedBackend,
    )
    from orchkit import executor, planner, validator

    root.mkdir(parents=True, exist_ok=True)
    task_path = root / "task.txt"
    guideline_path = root / "guideline.txt"
    prefs_path = root / "prefs.json"
    docs_path = root / "docs.jsonl"
    gt_path = root / "gt.csv"
    config_path = root / "orch.cfg"
    cloud_session = root / "cloud.jsonl"
    local_session = root / "local.jsonl"

    fixture_task = golden_task()
    task_path.write_text(fixture_task.task_description, encoding="utf-8")
    guideline_path.write_text(fixture_task.guideline, encoding="utf-8")
    prefs_path.write_text(json.dumps({
        "output_labels": list(LABEL_NAMES),
        "max_subtasks": 4,
        "synthetic_cases_per_subtask": 3,
    }), encoding="utf-8")
    with docs_path.open("w", encoding="utf-8") as fh:
        for doc in fixture_documents():
            fh.write(json.dumps({"id": doc.id, "body": doc.body,
                                 "format_tag": doc.format_tag}) + "\n")
    gt_rows = ["id,label", "d1,Metastatic", "d2,Locally Advanced",
               "d3,Resectable", "d4,Resectable", "d5,indeterminate"]
    gt_path.write_text("\n".join(gt_rows) + "\n", encoding="utf-8")
    config_path.write_text(
        f"cloud.kind = scripted\ncloud.session = {cloud_session}\n"
        f"cloud.model = scripted-cloud\n"
        f"local.kind = scripted\nlocal.session = {local_session}\n"
        f"rounds = {rounds}\nthreshold = 0.8\nmax_iters = {max_iters}\n"
        f"synthetic_cases_per_subtask = 3\n", encoding="utf-8")

    # Record both sessions by replaying the exact CLI flow programmatically,
    # reading the inputs back from disk the way the CLI will.
    task_spec = TaskSpec(
        task_description=task_path.read_text(encoding="utf-8"),
        guideline=guideline_path.read_text(encoding="utf-8"),
        preferences=UserPrefs(output_labels=make_labels(LABEL_NAMES),
                              max_subtasks=4, synthetic_cases_per_subtask=3))
    cloud_backend = RecordingBackend(ScriptedBackend(e2e_cloud_handler), cloud_session)
    cloud_gw = Gateway(BackendProfile.scripted(cloud_backend, model="scripted-cloud",
                                               temperature=0.8), PHASE_CLOUD,
                       sleep=lambda _s: None)
    local_handler = stuck_local_handler if stuck else fake_local_extractor
    local_backend = RecordingBackend(ScriptedBackend(local_handler), local_session)
    local_gw = Gateway(BackendProfile.scripted(local_backend, temperature=0.2),
                       PHASE_LOCAL, sleep=lambda _s: None)

    recorded_plan = planner.build_plan(task_spec, cloud_gw)
    prompts = []
    for subtask in recorded_plan.subtasks:
        outcome = validator.run_refinement_loop(
            subtask, recorded_plan.prompt_for(subtask.id),
            list(recorded_plan.synthetic_sets[subtask.id]), local_gw,
            lambda p, f, _s=subtask: planner.refine_prompt(
                p, f, cloud_gw, schema=_s.output_schema),
            max_iters=max_iters, threshold=0.8)
        prompts.append(outcome.prompt)
    validated = recorded_plan.with_prompts(prompts)
    if not stuck:
        executor.run_documents(local_gw, validated, fixture_documents(), rounds=rounds)
    return {"task": task_path, "guideline": guideline_path, "prefs": prefs_path,
            "docs": docs_path, "gt": gt_path, "config": config_path,
            "cloud_session": cloud_session, "local_session": local_session,
            "root": root}
