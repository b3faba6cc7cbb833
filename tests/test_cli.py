"""CLI commands over recorded scripted sessions, including exit codes."""

from __future__ import annotations

import argparse
import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from orchkit import bundle, cli, errors, executor
from orchkit.bundle import load_plan, pack, plan_to_dict, read_bundle, write_bundle
from orchkit.cli import main
from orchkit.config import template_files
from orchkit.gateway import (
    PHASE_CLOUD,
    BackendProfile,
    Gateway,
    RecordingBackend,
    ScriptedBackend,
)
from orchkit.jsonio import digest
from orchkit.model import FeatureSchema, FeatureSet, record_fields, replace

from conftest import (
    E2E_PLAN_REPLY,
    LABEL_NAMES,
    build_e2e_workspace,
    e2e_cloud_handler,
    fake_local_extractor,
    fixture_documents,
    golden_plan,
    refined_plan,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return build_e2e_workspace(tmp_path_factory.mktemp("e2e"))


def run_cli(*argv: str) -> int:
    return main(list(argv))


def plan_cmd(ws, out, *extra) -> int:
    return run_cli("plan", "--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
                   "--prefs", str(ws["prefs"]), "--out", str(out),
                   "--config", str(ws["config"]), "--deterministic", *extra)


def test_plan_command_writes_plan(workspace, tmp_path):
    out = tmp_path / "plan.json"
    assert plan_cmd(workspace, out) == 0
    plan = load_plan(out)
    assert [s.id for s in plan.subtasks] == ["distant_spread", "vessel_involvement"]
    assert all(len(v) == 3 for v in plan.synthetic_sets.values())


def test_plan_refuses_a_config_setting_the_case_count_exit_2(workspace, tmp_path, monkeypatch,
                                                              capsys):
    """The case count is the prefs file's alone: a config line naming it is
    an unknown key."""
    config = tmp_path / "seven.cfg"
    text = workspace["config"].read_text(encoding="utf-8")
    config.write_text(text + "synthetic_cases_per_subtask = 7\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda gw, request: calls.append(request))
    out = tmp_path / "plan.json"
    capsys.readouterr()
    assert plan_cmd({**workspace, "config": config}, out) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: config line {len(text.splitlines()) + 1}: "
        "unknown key 'synthetic_cases_per_subtask'\n")
    assert calls == [] and not out.exists()


def test_plan_refuses_an_unknown_prefs_key_exit_2(workspace, tmp_path, capsys):
    """A misspelt key would otherwise leave its setting at the default."""
    prefs = {**json.loads(workspace["prefs"].read_text(encoding="utf-8")), "max_subtask": 2}
    bad = tmp_path / "prefs.json"
    bad.write_text(json.dumps(prefs), encoding="utf-8")
    out = tmp_path / "plan.json"
    capsys.readouterr()
    assert run_cli("plan", "--task", str(workspace["task"]),
                   "--guideline", str(workspace["guideline"]), "--prefs", str(bad),
                   "--out", str(out), "--config", str(workspace["config"]),
                   "--deterministic") == 2
    assert capsys.readouterr().err == f"error: {bad}: unknown key 'max_subtask'\n"
    assert not out.exists()


def test_plan_missing_guideline_is_exit_2(workspace, tmp_path):
    code = run_cli("plan", "--task", str(workspace["task"]),
                   "--guideline", str(tmp_path / "nope.txt"),
                   "--prefs", str(workspace["prefs"]),
                   "--out", str(tmp_path / "plan.json"),
                   "--config", str(workspace["config"]))
    assert code == 2


def test_plan_scripted_failure_is_exit_3(workspace, tmp_path):
    bad_session = tmp_path / "bad_cloud.jsonl"
    backend = RecordingBackend(ScriptedBackend(lambda r: "no json, ever"), bad_session)
    gw = Gateway(BackendProfile.scripted(backend, model="scripted-cloud",
                                         temperature=0.8), PHASE_CLOUD,
                 sleep=lambda _s: None)
    from orchkit.errors import PlannerError
    from orchkit.planner import decompose
    from conftest import golden_task
    import orchkit.model as m

    task_text = workspace["task"].read_text(encoding="utf-8")
    guide_text = workspace["guideline"].read_text(encoding="utf-8")
    base = golden_task()
    task = m.TaskSpec(task_description=task_text, guideline=guide_text,
                      preferences=m.UserPrefs(
                          output_labels=base.preferences.output_labels,
                          max_subtasks=4, synthetic_cases_per_subtask=3))
    with pytest.raises(PlannerError, match="reply unusable after"):
        decompose(task, gw)  # records the failing exchange

    config = tmp_path / "bad.cfg"
    config.write_text(
        f"cloud.kind = scripted\ncloud.session = {bad_session}\n"
        f"cloud.model = scripted-cloud\n"
        f"local.kind = scripted\nlocal.session = {workspace['local_session']}\n",
        encoding="utf-8")
    code = run_cli("plan", "--task", str(workspace["task"]),
                   "--guideline", str(workspace["guideline"]),
                   "--prefs", str(workspace["prefs"]),
                   "--out", str(tmp_path / "plan.json"),
                   "--config", str(config), "--deterministic")
    assert code == 3


def test_plan_prefs_below_min_synthetic_cases_exits_2_before_any_cloud_call(
        workspace, tmp_path, monkeypatch, capsys):
    """Every subtask gets exactly the prefs file's count, so a count below the
    config's floor is refused where the two meet, not after the plan is built."""
    config = tmp_path / "strict.cfg"
    config.write_text(workspace["config"].read_text(encoding="utf-8")
                      + "min_synthetic_cases = 50\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda gw, request: calls.append(request))
    out = tmp_path / "plan.json"
    capsys.readouterr()
    assert plan_cmd({**workspace, "config": config}, out) == 2
    assert capsys.readouterr().err == (
        f"error: {workspace['prefs']}: synthetic_cases_per_subtask is 3, below the config's "
        "min_synthetic_cases of 50\n")
    assert calls == [] and not out.exists()


MALFORMED_FIELDS = {
    "fields a string": "oops",
    "field without kind": [{"name": "distant_metastasis", "values": ["present", "absent"]}],
}


def _plan_with_malformed_fields(workspace, tmp_path, monkeypatch, fields, bad_replies):
    """`orchkit plan` with a cloud model whose first `bad_replies` decompose
    replies carry `fields` in their first subtask. Returns the exit code and
    the decompose requests."""
    bad = json.loads(json.dumps(E2E_PLAN_REPLY))
    bad["subtasks"][0]["fields"] = fields
    decompose_requests = []

    def cloud(request):
        if "Decompose the task" not in request.system_prompt:
            return e2e_cloud_handler(request)
        decompose_requests.append(request)
        return json.dumps(bad if len(decompose_requests) <= bad_replies else E2E_PLAN_REPLY)

    monkeypatch.setattr("orchkit.gateway.Gateway", lambda profile, phase: Gateway(
        BackendProfile.scripted(ScriptedBackend(cloud), model=profile.model), phase))
    code = plan_cmd(workspace, tmp_path / "plan.json")
    return code, decompose_requests


@pytest.mark.parametrize("fields", list(MALFORMED_FIELDS.values()), ids=list(MALFORMED_FIELDS))
def test_plan_reply_with_malformed_fields_exits_3_after_every_repair(workspace, tmp_path,
                                                                     monkeypatch, capsys,
                                                                     fields):
    capsys.readouterr()
    code, requests = _plan_with_malformed_fields(workspace, tmp_path, monkeypatch, fields, 3)
    assert code == 3 and len(requests) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: reply unusable after 2 repair round-trips: "
                             "subtask 'distant_spread': \"fields\" must be a list")
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("fields", list(MALFORMED_FIELDS.values()), ids=list(MALFORMED_FIELDS))
def test_plan_reply_with_malformed_fields_is_repaired(workspace, tmp_path, monkeypatch,
                                                      fields):
    code, requests = _plan_with_malformed_fields(workspace, tmp_path, monkeypatch, fields, 1)
    assert code == 0 and len(requests) == 2
    assert '"fields" must be a list' in requests[1].system_prompt
    assert [s.id for s in load_plan(tmp_path / "plan.json").subtasks] == [
        "distant_spread", "vessel_involvement"]


# The README's exit-code table, one row per error class.
EXIT_CODES = [
    (errors.PhaseViolationError("refused"), 7),
    (errors.BundleError("tampered"), 6),
    (errors.ModelCallError("cut off", "truncation"), 4),
    (errors.TransportError("down"), 4),
    (errors.UnseenRequestError("not recorded"), 4),
    (errors.PlannerError("reply unusable"), 3),
    (errors.DslError("unknown field 'x'", 1, 6), 2),
    (errors.OutputParseError("no JSON"), 2),
    (errors.OrchError("bad input"), 2),
    (ValueError("bad value"), 2),
]


def test_exit_code_table_names_every_error_class():
    defined = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.OrchError)}
    assert defined == {type(exc) for exc, _ in EXIT_CODES if isinstance(exc, errors.OrchError)}


@pytest.mark.parametrize("exc, code", EXIT_CODES, ids=[type(e).__name__ for e, _ in EXIT_CODES])
def test_each_error_class_exits_with_its_code(tmp_path, monkeypatch, capsys, exc, code):
    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_unpack", failing)
    assert main(["unpack", "--bundle", str(tmp_path / "a.orchb"),
                 "--out", str(tmp_path / "plan.json")]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_validate_pack_infer_evaluate_chain(workspace, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    history = tmp_path / "history.json"
    bundle_file = tmp_path / "artifact.orchb"
    preds = tmp_path / "preds.jsonl"
    summary = tmp_path / "summary.json"
    report = tmp_path / "report.json"

    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(workspace["config"]),
                   "--emit-history", str(history)) == 0
    refined = load_plan(validated)
    assert all(p.status == "refined" for p in refined.prompts)
    entries = json.loads(history.read_text(encoding="utf-8"))
    assert {e["subtask_id"] for e in entries} == {"distant_spread", "vessel_involvement"}
    assert all(e["verdict"] == "passed" for e in entries)
    # Each revision's report is written as the plan stores a prompt's report.
    stored = json.loads(validated.read_text(encoding="utf-8"))["plan"]["prompts"]
    assert [p["report"] for p in stored] == [
        [e for e in entries if e["subtask_id"] == p["subtask_id"]][-1] for p in stored]

    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(workspace["config"]), "--deterministic") == 0
    artifact = read_bundle(bundle_file)
    assert artifact.runtime.rounds == 3

    assert run_cli("infer", "--bundle", str(bundle_file), "--docs",
                   str(workspace["docs"]), "--out", str(preds),
                   "--summary", str(summary),
                   "--config", str(workspace["config"]), "--deterministic",
                   "--revalidate") == 0
    lines = [json.loads(x) for x in preds.read_text(encoding="utf-8").splitlines()]
    assert [x["document_id"] for x in lines] == ["d1", "d2", "d3", "d4", "d5"]
    assert lines[0]["final_label"] == "Metastatic"
    assert len(lines[0]["rounds"]) == 3

    confusion_csv = tmp_path / "confusion.csv"
    assert run_cli("evaluate", "--pred", str(preds), "--gt", str(workspace["gt"]),
                   "--labels-from-summary", str(summary),
                   "--out", str(report), "--confusion-csv", str(confusion_csv)) == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["n_scored"] == 4 and payload["n_excluded"] == 1
    assert payload["accuracy_percent"] == 75.0
    rows = confusion_csv.read_text(encoding="utf-8").splitlines()
    assert rows[0].startswith("gt\\pred,Resectable")
    assert len(rows) == 5
    out = capsys.readouterr().out
    assert "75.00%" in out


def test_validate_refuses_to_replace_its_plan_exit_2(workspace, tmp_path, monkeypatch, capsys):
    plan_file = tmp_path / "plan.json"
    assert plan_cmd(workspace, plan_file) == 0
    before = plan_file.read_bytes()
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda gw, request: calls.append(request))
    capsys.readouterr()
    assert run_cli("validate", "--plan", str(plan_file), "--out", f"{tmp_path}/./plan.json",
                   "--config", str(workspace["config"])) == 2
    assert capsys.readouterr().err == (
        f"error: validate: --plan and --out name the same file, {tmp_path}/./plan.json\n")
    assert calls == [] and plan_file.read_bytes() == before


@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_a_failed_second_write_leaves_no_second_file_of_the_previous_run(
        workspace, tmp_path, monkeypatch, command):
    """validate writes --out, then --emit-history; evaluate writes --out, then
    --confusion-csv. A run that fails between the two leaves its own first
    file and no second one, never a pair from two runs."""
    first, second = tmp_path / "first", tmp_path / "second"
    if command == "validate":
        plan_file = tmp_path / "plan.json"
        assert plan_cmd(workspace, plan_file) == 0
        argv = ["validate", "--plan", str(plan_file), "--config", str(workspace["config"]),
                "--out", str(first), "--emit-history", str(second)]
        target, name = cli, "write_json"
    else:
        argv = ["evaluate", "--pred", str(workspace["gt"]), "--gt", str(workspace["gt"]),
                "--out", str(first), "--confusion-csv", str(second)]
        from orchkit import evalkit
        target, name = evalkit, "confusion_to_csv"
    assert run_cli(*argv) == 0
    assert second.exists()
    first.write_text("the previous run's", encoding="utf-8")

    def failing(path, *_args):
        raise OSError(f"{path}: no space left on device")

    monkeypatch.setattr(target, name, failing)
    assert run_cli(*argv) == 2
    assert first.read_text(encoding="utf-8") != "the previous run's"
    assert not second.exists()


def test_pack_rejects_draft_plan_exit_2(workspace, tmp_path):
    plan_file = tmp_path / "plan.json"
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("pack", "--plan", str(plan_file),
                   "--out", str(tmp_path / "x.orchb"),
                   "--config", str(workspace["config"])) == 2


def test_unpack_round_trip_and_tamper_exit_6(workspace, tmp_path):
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    bundle_file = tmp_path / "artifact.orchb"
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(workspace["config"])) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(workspace["config"]), "--deterministic") == 0

    extracted = tmp_path / "extracted.json"
    assert run_cli("unpack", "--bundle", str(bundle_file), "--out", str(extracted)) == 0
    assert load_plan(extracted) == load_plan(validated)

    data = bytearray(bundle_file.read_bytes())
    data[len(data) // 2] ^= 0x01
    tampered = tmp_path / "tampered.orchb"
    tampered.write_bytes(bytes(data))
    assert run_cli("unpack", "--bundle", str(tampered),
                   "--out", str(tmp_path / "y.json")) == 6


@pytest.mark.parametrize("command", ["infer", "unpack"])
def test_infer_and_unpack_build_the_plan_once(workspace, tmp_path, monkeypatch, command):
    # unpack builds the plan while it verifies the bundle; the command uses that plan.
    plan_file, validated = tmp_path / "plan.json", tmp_path / "validated.json"
    bundle_file, out = tmp_path / "a.orchb", tmp_path / "out"
    config = ["--config", str(workspace["config"])]
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated), *config) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file), *config,
                   "--deterministic") == 0
    built = []
    plan_from_dict = bundle.plan_from_dict
    monkeypatch.setattr(bundle, "plan_from_dict",
                        lambda data: built.append(data) or plan_from_dict(data))
    argv = {"infer": ["--docs", str(workspace["docs"]), *config, "--revalidate"],
            "unpack": []}[command]
    assert run_cli(command, "--bundle", str(bundle_file), "--out", str(out), *argv) == 0
    assert len(built) == 1
    assert out.exists()


def test_validate_stuck_prompt_exit_5(tmp_path):
    ws = build_e2e_workspace(tmp_path / "stuck", stuck=True, max_iters=1)
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    history = tmp_path / "history.json"
    assert plan_cmd(ws, plan_file) == 0
    code = run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(ws["config"]), "--max-iters", "1",
                   "--emit-history", str(history))
    assert code == 5
    refined = load_plan(validated)
    statuses = {p.subtask_id: p.status for p in refined.prompts}
    assert statuses == {"distant_spread": "failed", "vessel_involvement": "refined"}
    entries = json.loads(history.read_text(encoding="utf-8"))
    spread_entries = [e for e in entries if e["subtask_id"] == "distant_spread"]
    assert len(spread_entries) == 2  # revision 0 plus exactly one refinement

    # Packing a plan with a failed prompt is gated behind --allow-failed.
    bundle_file = tmp_path / "failed.orchb"
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(ws["config"]), "--deterministic") == 2
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(ws["config"]), "--deterministic",
                   "--allow-failed") == 0
    assert read_bundle(bundle_file).sections["meta"]["allow_failed"] is True


def test_validate_subtask_without_prompt_exit_2(tmp_path, monkeypatch, capsys):
    plan = golden_plan()
    first, second = plan.subtasks
    plan_file = tmp_path / "plan.json"
    _plan_file(plan_file, lambda p: p["plan"]["prompts"][0].update(subtask_id=second.id),
               plan)
    session = tmp_path / "empty.jsonl"
    session.write_text("", encoding="utf-8")
    config = tmp_path / "orch.cfg"
    config.write_text(f"cloud.kind = scripted\ncloud.session = {session}\n"
                      f"local.kind = scripted\nlocal.session = {session}\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda gw, request: calls.append(request))
    code = run_cli("validate", "--plan", str(plan_file), "--out", str(tmp_path / "v.json"),
                   "--config", str(config))
    assert code == 2
    assert repr(first.id) in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("edit, violation", [
    (lambda p: p["plan"]["synthetic_sets"].update(distant_spread=[]),
     "subtask 'distant_spread' has 0 synthetic cases, minimum is 1"),
    (lambda p: p["plan"].update(logic_source="when ghost == x -> Metastatic; default -> "
                                             "Resectable"),
     "synthesis logic: unknown field 'ghost' (line 1, column 6)"),
], ids=["too few cases", "rule program does not parse"])
def test_validate_refuses_a_plan_pack_refuses_before_any_model_call_exit_2(
        workspace, tmp_path, monkeypatch, capsys, edit, violation):
    plan_file = tmp_path / "plan.json"
    _plan_file(plan_file, edit, golden_plan())
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda gw, request: calls.append(request))
    out = tmp_path / "v.json"
    capsys.readouterr()
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(out),
                   "--config", str(workspace["config"])) == 2
    assert capsys.readouterr().err == f"error: {plan_file}: {violation}\n"
    assert calls == [] and not out.exists()


def _same_fields(subtask, other):
    """`subtask` also declaring the first field of `other`."""
    schema = FeatureSchema((*subtask.output_schema.fields, other.output_schema.fields[0]))
    return replace(subtask, output_schema=schema)


def _with_expected(plan, subtask_id, index, values):
    """`plan`'s synthetic sets with one case's expected values replaced."""
    cases = list(plan.synthetic_sets[subtask_id])
    cases[index] = replace(cases[index], expected=FeatureSet(values))
    return {"synthetic_sets": {**plan.synthetic_sets, subtask_id: tuple(cases)}}


# A change to the refined fixture plan that breaks its structure, and the
# message every reader reports for it.
STRUCTURE_VIOLATIONS = {
    "duplicate subtask id": (
        lambda p: {"subtasks": (p.subtasks[0],
                                replace(p.subtasks[1], id=p.subtasks[0].id))},
        "Plan.subtasks: duplicate subtask id 'distant_spread'"),
    "missing prompt": (
        lambda p: {"prompts": p.prompts[:1]},
        "Plan.prompts: subtask 'vessel_involvement' has 0 prompts, expected exactly 1"),
    "extra prompt": (
        lambda p: {"prompts": (*p.prompts, p.prompts[0])},
        "Plan.prompts: subtask 'distant_spread' has 2 prompts, expected exactly 1"),
    "prompt for an unknown subtask": (
        lambda p: {"prompts": (*p.prompts, replace(p.prompts[0],
                                                               subtask_id="ghost"))},
        "Plan.prompts: prompt for unknown subtask 'ghost'"),
    "set for an unknown subtask": (
        lambda p: {"synthetic_sets": {**p.synthetic_sets, "ghost": ()}},
        "Plan.synthetic_sets: synthetic set for unknown subtask 'ghost'"),
    "mis-tagged case": (
        lambda p: {"synthetic_sets": {**p.synthetic_sets,
                                      "distant_spread": p.synthetic_sets["vessel_involvement"]}},
        "Plan.synthetic_sets: case 0 in set 'distant_spread' is tagged for subtask "
        "'vessel_involvement'"),
    "shared field": (
        lambda p: {"subtasks": (p.subtasks[0], _same_fields(p.subtasks[1], p.subtasks[0]))},
        "Plan.subtasks: field 'distant_metastasis' declared by both 'distant_spread' and "
        "'vessel_involvement'"),
    "illegal case value": (
        lambda p: _with_expected(p, "distant_spread", 0, {"distant_metastasis": "Nonsense"}),
        "Plan.synthetic_sets: case 0 in set 'distant_spread': field 'distant_metastasis' "
        "has illegal value 'Nonsense'"),
    "undeclared case field": (
        lambda p: _with_expected(p, "distant_spread", 1, {"distant_metastasis": "absent",
                                                          "smv_contact": "none"}),
        "Plan.synthetic_sets: case 1 in set 'distant_spread': undeclared field 'smv_contact'"),
    "required case field missing": (
        lambda p: _with_expected(p, "vessel_involvement", 2, {"smv_contact": "encasement"}),
        "Plan.synthetic_sets: case 2 in set 'vessel_involvement': required field "
        "'celiac_contact' missing"),
    "case value not canonical": (
        lambda p: _with_expected(p, "vessel_involvement", 0, {"smv_contact": "None",
                                                              "celiac_contact": "false"}),
        "Plan.synthetic_sets: case 0 in set 'vessel_involvement': field 'smv_contact' has "
        "non-canonical value 'None', expected 'none'"),
    "case value an alias": (
        lambda p: _with_expected(p, "distant_spread", 0, {"distant_metastasis": "mets"}),
        "Plan.synthetic_sets: case 0 in set 'distant_spread': field 'distant_metastasis' "
        "has non-canonical value 'mets', expected 'present'"),
}


@pytest.mark.parametrize("case", list(STRUCTURE_VIOLATIONS))
def test_plan_structure_is_refused_by_the_constructor_a_plan_file_and_a_bundle(
        workspace, tmp_path, monkeypatch, capsys, case):
    change, message = STRUCTURE_VIOLATIONS[case]
    plan = refined_plan()
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(plan, **change(plan))
    if case == "mis-tagged case":
        return  # a file holds no tag: a case is read as tagged for its set
    fields = {name: getattr(plan, name) for name in record_fields(type(plan))}
    raw = plan_to_dict(SimpleNamespace(**{**fields, **change(plan)}))
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda gw, request: calls.append(request))
    out = tmp_path / "out"
    config = ["--config", str(workspace["config"]), "--out", str(out)]

    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"format": "orchkit-plan/1", "plan": raw}),
                         encoding="utf-8")
    capsys.readouterr()
    assert run_cli("validate", "--plan", str(plan_file), *config) == 2
    assert capsys.readouterr().err == f"error: {plan_file}: {message}\n"

    bundle_file = tmp_path / "a.orchb"
    _rerendered_bundle(bundle_file, lambda s: s.update(
        subtasks=raw["subtasks"], prompts=raw["prompts"], synthetic=raw["synthetic_sets"]))
    refusal = f"error: {bundle_file}: bundle does not hold a usable plan: {message}\n"
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                   *config) == 6
    assert capsys.readouterr().err == refusal
    assert run_cli("unpack", "--bundle", str(bundle_file), "--out", str(out)) == 6
    assert capsys.readouterr().err == refusal
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("status", ["draft", "failed"])
def test_infer_refuses_a_bundle_whose_prompt_status_pack_refuses_exit_6(
        workspace, tmp_path, monkeypatch, capsys, status):
    bundle_file = tmp_path / "a.orchb"
    _rerendered_bundle(bundle_file, lambda s: s["prompts"][1].update(status=status))
    read = []
    monkeypatch.setattr(executor, "load_documents", read.append)
    out = tmp_path / "p.jsonl"
    capsys.readouterr()
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                   "--out", str(out), "--config", str(workspace["config"])) == 6
    assert ("bundle does not hold a usable plan: prompts not refined for subtasks: "
            "vessel_involvement") in capsys.readouterr().err
    assert read == [] and not out.exists()


@pytest.mark.parametrize("edit", [lambda s: s["synthetic"].pop("vessel_involvement"),
                                  lambda s: s["synthetic"].update(vessel_involvement=[])],
                         ids=["set removed", "set empty"])
@pytest.mark.parametrize("command", ["unpack", "infer"])
def test_a_bundle_subtask_without_synthetic_cases_exits_6(workspace, tmp_path, monkeypatch,
                                                         capsys, edit, command):
    bundle_file, out = tmp_path / "a.orchb", tmp_path / "out"
    _rerendered_bundle(bundle_file, edit)
    read = []
    monkeypatch.setattr(executor, "load_documents", read.append)
    argv = {"unpack": ["unpack", "--bundle", str(bundle_file)],
            "infer": ["infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                      "--config", str(workspace["config"]), "--revalidate"]}[command]
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == 6
    assert capsys.readouterr() == ("", (
        f"error: {bundle_file}: bundle does not hold a usable plan: "
        "subtask 'vessel_involvement' has 0 synthetic cases, minimum is 1\n"))
    assert read == [] and not out.exists()


def test_revalidate_checks_every_subtask_so_a_bundle_packed_without_a_set_exits_6(
        workspace, tmp_path, capsys):
    """A validated plan without vessel_involvement's cases, packed with min_cases 0: its
    revalidation once checked distant_spread alone, passed, and labelled every document."""
    plan_file, validated = tmp_path / "plan.json", tmp_path / "validated.json"
    bundle_file, preds = tmp_path / "a.orchb", tmp_path / "preds.jsonl"
    config = ["--config", str(workspace["config"])]
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated), *config) == 0
    plan = load_plan(validated)
    sparse = replace(plan, synthetic_sets={"distant_spread": plan.synthetic_sets["distant_spread"]})
    write_bundle(pack(sparse, min_cases=0), bundle_file)
    capsys.readouterr()
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                   "--out", str(preds), *config, "--revalidate") == 6
    captured = capsys.readouterr()
    assert "revalidate" not in captured.out
    assert captured.err.endswith("subtask 'vessel_involvement' has 0 synthetic cases, "
                                 "minimum is 1\n")
    assert not preds.exists()


def test_each_command_parses_the_rule_program_as_often_as_before(workspace, tmp_path,
                                                                 monkeypatch):
    # A Plan parses its rule program when it is built, and nothing else does:
    # plan builds the reply's plan and its copy with synthetic sets, validate
    # the loaded plan and its copy with refined prompts; pack, unpack and
    # infer each build one plan from a file, and revalidation builds none.
    from orchkit import planner, ruledsl

    parses = []
    for module in (ruledsl, planner):
        monkeypatch.setattr(module, "parse_logic", lambda *args, _parse=module.parse_logic,
                            **kwargs: parses.append(1) or _parse(*args, **kwargs))
    plan_file, validated = tmp_path / "plan.json", tmp_path / "validated.json"
    bundle_file, out = tmp_path / "a.orchb", tmp_path / "out"
    config = ["--config", str(workspace["config"])]
    commands = {
        "plan": lambda: plan_cmd(workspace, plan_file),
        "validate": lambda: run_cli("validate", "--plan", str(plan_file),
                                    "--out", str(validated), *config),
        "pack": lambda: run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                                *config, "--deterministic"),
        "unpack": lambda: run_cli("unpack", "--bundle", str(bundle_file),
                                  "--out", str(tmp_path / "unpacked.json")),
        "infer": lambda: run_cli("infer", "--bundle", str(bundle_file), "--docs",
                                 str(workspace["docs"]), "--out", str(out), *config,
                                 "--revalidate"),
    }
    counts = {}
    for command, run in commands.items():
        before = len(parses)
        assert run() == 0
        counts[command] = len(parses) - before
    assert counts == {"plan": 2, "validate": 2, "pack": 1, "unpack": 1, "infer": 1}


def _local_only(config, tmp_path):
    """`config` with its cloud channel left out."""
    path = tmp_path / "local-only.cfg"
    path.write_text("".join(line for line in config.read_text(encoding="utf-8")
                            .splitlines(keepends=True) if not line.startswith("cloud.")),
                    encoding="utf-8")
    return path


def test_validate_without_a_cloud_channel_passes_when_no_prompt_needs_a_rewrite(
        workspace, tmp_path):
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(_local_only(workspace["config"], tmp_path))) == 0
    assert [(p.status, p.revision) for p in load_plan(validated).prompts] == \
        [("refined", 0), ("refined", 0)]


def test_validate_without_a_cloud_channel_exits_2_when_a_prompt_needs_a_rewrite(
        tmp_path, capsys):
    ws = build_e2e_workspace(tmp_path / "stuck", stuck=True, max_iters=1)
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    assert plan_cmd(ws, plan_file) == 0
    capsys.readouterr()
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(_local_only(ws["config"], tmp_path))) == 2
    assert "config: cloud.kind is not configured" in capsys.readouterr().err
    assert not validated.exists()


def test_infer_privacy_guard_exit_7(workspace, tmp_path):
    guarded = tmp_path / "guarded.cfg"
    guarded.write_text(
        "cloud.kind = cloud_http\ncloud.endpoint = https://api.example\n"
        f"local.kind = scripted\nlocal.session = {workspace['local_session']}\n"
        "rounds = 3\n", encoding="utf-8")
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    bundle_file = tmp_path / "a.orchb"
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(workspace["config"])) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(workspace["config"]), "--deterministic") == 0

    refused = run_cli("infer", "--bundle", str(bundle_file),
                      "--docs", str(workspace["docs"]),
                      "--out", str(tmp_path / "p.jsonl"),
                      "--config", str(guarded), "--deterministic")
    assert refused == 7

    allowed = run_cli("infer", "--bundle", str(bundle_file),
                      "--docs", str(workspace["docs"]),
                      "--out", str(tmp_path / "p.jsonl"),
                      "--config", str(guarded), "--deterministic",
                      "--i-know-this-is-scripted")
    assert allowed == 0


def test_infer_local_settings_from_bundle_unless_configured(workspace, tmp_path,
                                                          monkeypatch):
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    bundle_file = tmp_path / "a.orchb"
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(workspace["config"])) == 0
    base_config = workspace["config"].read_text(encoding="utf-8")
    packing = tmp_path / "packing.cfg"
    packing.write_text(base_config + "local.temperature = 0.35\nlocal.context = 4096\n",
                       encoding="utf-8")
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(packing), "--deterministic") == 0

    profiles = []

    def capture(gateway, plan, docs, **kwargs):
        profiles.append(gateway.profile)
        return []

    monkeypatch.setattr(executor, "iter_documents", capture)
    overriding = tmp_path / "overriding.cfg"
    overriding.write_text(base_config + "local.temperature = 0.5\n", encoding="utf-8")
    for config in (workspace["config"], overriding):
        assert run_cli("infer", "--bundle", str(bundle_file),
                       "--docs", str(workspace["docs"]),
                       "--out", str(tmp_path / "p.jsonl"),
                       "--config", str(config), "--deterministic") == 0
    assert [(p.default_temperature, p.default_context) for p in profiles] == \
        [(0.35, 4096), (0.5, 4096)]


def test_revalidate_twice_over_one_session_prints_and_writes_the_same(workspace, tmp_path,
                                                                      capsys):
    plan_file, validated = tmp_path / "plan.json", tmp_path / "validated.json"
    bundle_file, preds = tmp_path / "artifact.orchb", tmp_path / "preds.jsonl"
    config = tmp_path / "orch.cfg"
    config.write_text(workspace["config"].read_text(encoding="utf-8") + "workers = 3\n",
                      encoding="utf-8")
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(config)) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(config), "--deterministic") == 0
    runs = []
    for _ in range(2):
        capsys.readouterr()
        assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                       "--out", str(preds), "--config", str(config), "--revalidate") == 0
        runs.append((capsys.readouterr().out, preds.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0].count("(passed)") == 2


def test_infer_single_round_no_vote(workspace, tmp_path):
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    bundle_file = tmp_path / "a.orchb"
    preds = tmp_path / "preds.jsonl"
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(workspace["config"])) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(workspace["config"]), "--deterministic") == 0
    assert run_cli("infer", "--bundle", str(bundle_file),
                   "--docs", str(workspace["docs"]), "--out", str(preds),
                   "--config", str(workspace["config"]), "--deterministic",
                   "--rounds", "1") == 0
    lines = [json.loads(x) for x in preds.read_text(encoding="utf-8").splitlines()]
    assert all(len(x["rounds"]) == 1 and not x["tie"] for x in lines)


def test_infer_unseen_replay_request_exit_4(workspace, tmp_path):
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    bundle_file = tmp_path / "a.orchb"
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(workspace["config"])) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(workspace["config"]), "--deterministic") == 0
    empty_session = tmp_path / "empty.jsonl"
    empty_session.write_text("", encoding="utf-8")
    config = tmp_path / "empty.cfg"
    config.write_text(
        f"cloud.kind = scripted\ncloud.session = {workspace['cloud_session']}\n"
        f"local.kind = scripted\nlocal.session = {empty_session}\nrounds = 3\n",
        encoding="utf-8")
    code = run_cli("infer", "--bundle", str(bundle_file),
                   "--docs", str(workspace["docs"]),
                   "--out", str(tmp_path / "p.jsonl"),
                   "--config", str(config), "--deterministic")
    assert code == 4


def test_infer_over_session_recorded_before_seeds_exit_4(workspace, tmp_path, capsys):
    # The recorded local session as it was written before requests carried
    # seeds: each inference round's request unseeded and keyed without one.
    old_session = tmp_path / "pre-seed.jsonl"
    with old_session.open("w", encoding="utf-8") as fh:
        for line in workspace["local_session"].read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record["request"].pop("seed", None)
            record["digest"] = digest(record["request"])
            fh.write(json.dumps(record) + "\n")
    config = tmp_path / "pre-seed.cfg"
    config.write_text(workspace["config"].read_text(encoding="utf-8").replace(
        str(workspace["local_session"]), str(old_session)), encoding="utf-8")
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    bundle_file = tmp_path / "a.orchb"
    assert plan_cmd(workspace, plan_file) == 0
    # Validation sends seeds too, so it validates over the seeded session.
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(workspace["config"])) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(config), "--deterministic") == 0
    capsys.readouterr()
    code = run_cli("infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                   "--out", str(tmp_path / "p.jsonl"), "--config", str(config),
                   "--deterministic")
    assert code == 4
    err = capsys.readouterr().err
    assert f"replay session {old_session} records no seeded request" in err
    assert "recorded before per-round seeds must be re-recorded" in err
    assert not (tmp_path / "p.jsonl").exists()


def test_validate_over_session_recorded_before_seeds_exit_4(workspace, tmp_path, capsys):
    # Validation repeat k sends seed k, so a session recorded before requests
    # carried seeds serves validation no more than it serves infer.
    old_session = tmp_path / "pre-seed.jsonl"
    records = [json.loads(line) for line in
               workspace["local_session"].read_text(encoding="utf-8").splitlines()]
    for record in records:
        record["request"].pop("seed", None)
        record["digest"] = digest(record["request"])
    old_session.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    config = tmp_path / "pre-seed.cfg"
    config.write_text(workspace["config"].read_text(encoding="utf-8").replace(
        str(workspace["local_session"]), str(old_session)), encoding="utf-8")
    plan_file = tmp_path / "plan.json"
    assert plan_cmd(workspace, plan_file) == 0
    capsys.readouterr()
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(tmp_path / "v.json"),
                   "--config", str(config)) == 4
    err = capsys.readouterr().err
    assert f"replay session {old_session} records no seeded request" in err
    assert not (tmp_path / "v.json").exists()


def test_infer_with_a_missing_replay_session_exits_2_naming_it(workspace, tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    config = tmp_path / "missing.cfg"
    config.write_text(workspace["config"].read_text(encoding="utf-8").replace(
        str(workspace["local_session"]), str(missing)), encoding="utf-8")
    bundle_file = tmp_path / "a.orchb"
    write_bundle(pack(refined_plan()), bundle_file)
    out = tmp_path / "p.jsonl"
    capsys.readouterr()
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                   "--out", str(out), "--config", str(config)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]
    assert not out.exists()


def test_evaluate_missing_id_exit_2(workspace, tmp_path):
    pred = tmp_path / "partial.csv"
    pred.write_text("d1,Metastatic\n", encoding="utf-8")
    assert run_cli("evaluate", "--pred", str(pred), "--gt", str(workspace["gt"]),
                   "--labels", "Resectable,Borderline Resectable,"
                               "Locally Advanced,Metastatic") == 2


def test_evaluate_bad_gt_record_names_file_and_line(workspace, tmp_path, capsys):
    gt = tmp_path / "gt.jsonl"
    gt.write_text('{"id": "d1", "label": "Metastatic"}\n\n{"id": "d2"}\n', encoding="utf-8")
    assert run_cli("evaluate", "--pred", str(workspace["gt"]), "--gt", str(gt)) == 2
    assert f"{gt}:3: missing key 'label'" in capsys.readouterr().err


def test_infer_bad_docs_record_names_file_and_line(workspace, tmp_path, capsys):
    bundle_file = tmp_path / "a.orchb"
    write_bundle(pack(refined_plan()), bundle_file)
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "d1", "body": "text"}\n{"id": "d2"}\n', encoding="utf-8")
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(docs),
                   "--out", str(tmp_path / "p.jsonl"),
                   "--config", str(workspace["config"]), "--deterministic") == 2
    assert f"{docs}:2: missing key 'body'" in capsys.readouterr().err


def test_infer_repeated_document_id_exits_2_before_any_model_call(workspace, tmp_path,
                                                                 monkeypatch, capsys):
    bundle_file = tmp_path / "a.orchb"
    write_bundle(pack(refined_plan()), bundle_file)
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "d1", "body": "one"}\n{"id": "d2", "body": "two"}\n'
                    '{"id": "d1", "body": "three"}\n', encoding="utf-8")
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda self, request: calls.append(request))
    out = tmp_path / "p.jsonl"
    capsys.readouterr()
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(docs),
                   "--out", str(out), "--config", str(workspace["config"])) == 2
    assert capsys.readouterr().err == f"error: {docs}:3: duplicate document id 'd1'\n"
    assert calls == [] and not out.exists()


NOT_UTF8 = {  # input: (file written, its bytes with a 0xff byte on line 2)
    "config": ("orch.cfg", b"rounds = 3\nthreshold = \xff\n"),
    "task": ("task.txt", b"Stage each report.\n\xff\n"),
    "guideline": ("guideline.txt", b"Staging guideline.\n\xff\n"),
    "prefs": ("prefs.json", b'{"max_subtasks":\n\xff}\n'),
    "template": ("templates/refine.txt", b"Refine the prompt.\n\xff\n"),
    "gt csv": ("gt.csv", b"id,label\nd1,\xff\n"),
    "gt json lines": ("gt.jsonl", b'{"id": "d1", "label": "Metastatic"}\n{"id": "\xff"}\n'),
    "docs json lines": ("docs.jsonl", b'{"id": "d1", "body": "one"}\n{"id": "\xff"}\n'),
    "docs directory": ("docs/d2.txt", b"Report two.\n\xff\n"),
}


@pytest.mark.parametrize("kind", list(NOT_UTF8))
def test_input_not_utf8_exits_2_naming_file_and_line(workspace, tmp_path, capsys, kind):
    name, data = NOT_UTF8[kind]
    bad = tmp_path / name
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(data)
    files = {key: str(workspace[key])
             for key in ("config", "task", "guideline", "prefs", "gt", "docs")}
    key = kind.split()[0]
    if key == "template":
        for other in ("decompose", "synthetic", "repair"):
            (bad.parent / f"{other}.txt").write_text(other, encoding="utf-8")
        config = tmp_path / "templated.cfg"
        config.write_text(workspace["config"].read_text(encoding="utf-8")
                          + f"templates_dir = {bad.parent}\n", encoding="utf-8")
        files["config"] = str(config)
    elif kind == "docs directory":
        (bad.parent / "d1.txt").write_text("Report one.", encoding="utf-8")
        files["docs"] = str(bad.parent)
    else:
        files[key] = str(bad)
    bundle_file = tmp_path / "a.orchb"
    write_bundle(pack(refined_plan()), bundle_file)
    if key == "gt":
        argv = ["evaluate", "--pred", str(workspace["gt"]), "--gt", files["gt"]]
    elif key in ("config", "docs"):
        argv = ["infer", "--bundle", str(bundle_file), "--docs", files["docs"],
                "--out", str(tmp_path / "p.jsonl"), "--config", files["config"]]
    else:
        argv = ["plan", "--task", files["task"], "--guideline", files["guideline"],
                "--prefs", files["prefs"], "--out", str(tmp_path / "plan.json"),
                "--config", files["config"], "--deterministic"]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}:2: 'utf-8' codec can't decode byte 0xff in position ")


SESSION_LINE_EDITS = {
    "raw_text a number": lambda r: r["response"].update(raw_text=5),
    "response a list": lambda r: r.update(response=[1]),
    "no raw_text": lambda r: r["response"].pop("raw_text"),
}


@pytest.mark.parametrize("edit", list(SESSION_LINE_EDITS.values()), ids=list(SESSION_LINE_EDITS))
def test_malformed_session_line_exits_2_naming_it_before_documents_are_read(
        workspace, tmp_path, monkeypatch, capsys, edit):
    lines = workspace["local_session"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    session = tmp_path / "local.jsonl"
    session.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "orch.cfg"
    config.write_text(workspace["config"].read_text(encoding="utf-8").replace(
        str(workspace["local_session"]), str(session)), encoding="utf-8")
    bundle_file = tmp_path / "a.orchb"
    write_bundle(pack(refined_plan()), bundle_file)
    read = []
    monkeypatch.setattr(executor, "load_documents", read.append)
    out = tmp_path / "p.jsonl"
    capsys.readouterr()
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                   "--out", str(out), "--config", str(config)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {session}:2: ")
    assert read == [] and not out.exists()


def _rerendered_bundle(path, edit):
    """A bundle whose sections `edit` changed, with every hash recomputed."""
    from orchkit import bundle

    sections = json.loads(json.dumps(bundle.unpack(pack(refined_plan())).sections))
    edit(sections)
    path.write_bytes(bundle._render(sections))


def _plan_file(path, edit, plan=None):
    from orchkit.bundle import plan_to_dict

    payload = {"format": "orchkit-plan/1", "plan": plan_to_dict(plan or refined_plan())}
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


_PREFS = {"output_labels": ["Resectable", "Metastatic"]}

# (input file written by the case, how it is written, command, exit code)
BAD_INPUTS = {
    "prefs not an object": ("prefs.json", [_PREFS], "plan", 2),
    "output_labels null": ("prefs.json", {"output_labels": None}, "plan", 2),
    "output_labels a string": ("prefs.json", {"output_labels": "AB"}, "plan", 2),
    "max_subtasks null": ("prefs.json", {**_PREFS, "max_subtasks": None}, "plan", 2),
    "max_subtasks a fraction": ("prefs.json", {**_PREFS, "max_subtasks": 2.9}, "plan", 2),
    "include_entities a string": ("prefs.json", {**_PREFS, "include_entities": "liver"},
                                  "plan", 2),
    "output_format_notes a list": ("prefs.json", {**_PREFS, "output_format_notes": ["x"]},
                                   "plan", 2),
    "plan not an object": ("plan.json", lambda p: p.update(plan=[]), "validate", 2),
    "subtasks not a list": ("plan.json", lambda p: p["plan"].update(subtasks=5),
                            "validate", 2),
    "labels not a list": ("plan.json", lambda p: p["plan"].update(labels=None),
                          "validate", 2),
    "synthetic sets not an object": (
        "plan.json", lambda p: p["plan"].update(synthetic_sets=[]), "validate", 2),
    "summary not an object": ("summary.json", ["Resectable"], "evaluate", 2),
    "summary without label_order": ("summary.json", {"documents": 5}, "evaluate", 2),
    "runtime rounds a string": ("a.orchb", lambda s: s["runtime"].update(rounds="5"),
                                "infer", 6),
    "runtime temperature above 2": (
        "a.orchb", lambda s: s["runtime"].update(local_temperature=9.0), "infer", 6),
    "runtime context 0": ("a.orchb", lambda s: s["runtime"].update(local_context=0),
                          "infer", 6),
    "allow_failed a string": ("a.orchb", lambda s: s["meta"].update(allow_failed="false"),
                              "infer", 6),
    "prompt for no subtask": ("a.orchb", lambda s: s["prompts"][0].update(subtask_id="ghost"),
                              "infer", 6),
    "rounds 0": (None, None, "infer", 2),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_error_line_before_any_model_call(workspace, tmp_path, monkeypatch,
                                                           capsys, case):
    name, content, command, code = BAD_INPUTS[case]
    bad = tmp_path / (name or "a.orchb")
    if name is None:
        write_bundle(pack(refined_plan()), bad)
    elif name.endswith(".orchb"):
        _rerendered_bundle(bad, content)
    elif name == "plan.json":
        _plan_file(bad, content)
    else:
        bad.write_text(json.dumps(content), encoding="utf-8")
    calls = []
    complete = Gateway.complete
    monkeypatch.setattr(Gateway, "complete",
                        lambda self, request: calls.append(request) or complete(self, request))
    out = tmp_path / "out"
    config = ["--config", str(workspace["config"])]
    argv = {
        "plan": ["plan", "--task", str(workspace["task"]),
                 "--guideline", str(workspace["guideline"]), "--prefs", str(bad), *config],
        "validate": ["validate", "--plan", str(bad), *config],
        "evaluate": ["evaluate", "--pred", str(workspace["gt"]), "--gt", str(workspace["gt"]),
                     "--labels-from-summary", str(bad)],
        "infer": ["infer", "--bundle", str(bad), "--docs", str(workspace["docs"]),
                  "--revalidate", *config, *(["--rounds", "0"] if name is None else [])],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert ("--rounds" if name is None else str(bad)) in err[0]
    assert calls == []
    assert not out.exists()


UTC_STAMP = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


def test_plan_pack_and_infer_without_deterministic_stamp_utc_times(workspace, tmp_path):
    plan_file = tmp_path / "plan.json"
    validated = tmp_path / "validated.json"
    bundle_file = tmp_path / "a.orchb"
    summary = tmp_path / "summary.json"
    config = ["--config", str(workspace["config"])]
    assert run_cli("plan", "--task", str(workspace["task"]),
                   "--guideline", str(workspace["guideline"]),
                   "--prefs", str(workspace["prefs"]), "--out", str(plan_file), *config) == 0
    assert UTC_STAMP.match(load_plan(plan_file).provenance["created_at"])
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated), *config) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file), *config) == 0
    assert UTC_STAMP.match(read_bundle(bundle_file).sections["meta"]["created_at"])
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                   "--out", str(tmp_path / "p.jsonl"), "--summary", str(summary),
                   *config) == 0
    assert UTC_STAMP.match(json.loads(summary.read_text(encoding="utf-8"))["completed_at"])


def _refusals(ws, tmp):
    """Case -> (the input file it writes, that file's text, its command line,
    the one error line it prints)."""
    cfg, docs, gt = tmp / "orch.cfg", tmp / "docs.jsonl", tmp / "gt.csv"
    summary = tmp / "summary.json"
    plan_file, bundle_file = tmp / "plan.json", tmp / "a.orchb"
    sparse_file = tmp / "sparse.json"  # no synthetic case for distant_spread
    write_bundle(pack(refined_plan()), bundle_file)
    sparse = replace(refined_plan(), synthetic_sets={
        **refined_plan().synthetic_sets, "distant_spread": ()})
    for path, plan in ((plan_file, refined_plan()), (sparse_file, sparse)):
        path.write_text(json.dumps({"format": "orchkit-plan/1", "plan": plan_to_dict(plan)}),
                        encoding="utf-8")
    unparseable = plan_to_dict(refined_plan())
    unparseable["logic_source"] = "when ghost == x -> Metastatic; default -> Resectable"

    def infer(config=ws["config"], documents=ws["docs"]):
        return ["infer", "--bundle", str(bundle_file), "--docs", str(documents),
                "--config", str(config)]

    def evaluate(truth, *extra):
        return ["evaluate", "--pred", str(ws["gt"]), "--gt", str(truth), *extra]

    too_few = "synthetic cases, minimum is 50"
    return {
        "config line without '='": (
            cfg, "rounds 5\n", infer(config=cfg),
            f"{cfg}: config line 1: expected key = value, got 'rounds 5'"),
        "local_http without an endpoint": (
            cfg, "local.kind = local_http\nlocal.model = small-extractor\n", infer(config=cfg),
            "config: local.endpoint required for local_http"),
        "docs file with no document": (
            docs, "", infer(documents=docs), f"no documents in {docs}"),
        "ground-truth row with one field": (
            gt, "id,label\nd1,Resectable\nb\n", evaluate(gt),
            f"{gt}: row ['b'] needs id,label"),
        "pack below min_synthetic_cases": (
            cfg, ws["config"].read_text(encoding="utf-8") + "min_synthetic_cases = 50\n",
            ["pack", "--plan", str(plan_file), "--config", str(cfg)],
            f"subtask 'distant_spread' has 3 {too_few}; "
            f"subtask 'vessel_involvement' has 3 {too_few}"),
        "pack a rule program that does not parse": (
            plan_file, json.dumps({"format": "orchkit-plan/1", "plan": unparseable}),
            ["pack", "--plan", str(plan_file), "--config", str(ws["config"])],
            f"{plan_file}: synthesis logic: unknown field 'ghost' (line 1, column 6)"),
        "--labels naming no label": (
            None, None, evaluate(ws["gt"], "--labels", " , "),
            "evaluate: --labels names no label"),
        "--labels empty": (
            None, None, evaluate(ws["gt"], "--labels", ""),
            "evaluate: --labels names no label"),
        "--labels-from-summary empty": (
            None, None, evaluate(ws["gt"], "--labels-from-summary", ""),
            "evaluate: --labels-from-summary names no file"),
        "--max-iters 0": (
            None, None, ["validate", "--plan", str(plan_file), "--config", str(ws["config"]),
                         "--max-iters", "0"],
            "validate: --max-iters must be >= 1, got 0"),
        "validate with an empty synthetic set": (
            cfg, ws["config"].read_text(encoding="utf-8") + "min_synthetic_cases = 0\n",
            ["validate", "--plan", str(sparse_file), "--config", str(cfg)],
            f"{cfg}: config: min_synthetic_cases must be >= 1, got 0"),
        "--labels with --labels-from-summary": (
            summary, json.dumps({"label_order": list(LABEL_NAMES)}),
            evaluate(ws["gt"], "--labels", ",".join(reversed(LABEL_NAMES)),
                     "--labels-from-summary", str(summary)),
            "evaluate: give --labels or --labels-from-summary, not both"),
        # Two outputs of one command naming one file: the later write would
        # leave only itself.
        "infer --summary naming --out": (
            None, None, [*infer(), "--summary", str(tmp / "out")],
            f"infer: --out and --summary name the same file, {tmp / 'out'}"),
        "validate --emit-history naming --out": (
            None, None, ["validate", "--plan", str(plan_file), "--config", str(ws["config"]),
                         "--emit-history", str(tmp / "out")],
            f"validate: --out and --emit-history name the same file, {tmp / 'out'}"),
        "evaluate --confusion-csv naming --out": (
            None, None, evaluate(ws["gt"], "--confusion-csv", str(tmp / "out")),
            f"evaluate: --out and --confusion-csv name the same file, {tmp / 'out'}"),
        # An output naming an input: the write would replace what was read.
        "validate --emit-history naming --plan": (
            None, None, ["validate", "--plan", str(plan_file), "--config", str(ws["config"]),
                         "--emit-history", str(plan_file)],
            f"validate: --plan and --emit-history name the same file, {plan_file}"),
        "evaluate --confusion-csv naming --pred": (
            gt, ws["gt"].read_text(encoding="utf-8"),
            evaluate(gt, "--confusion-csv", str(ws["gt"])),
            f"evaluate: --pred and --confusion-csv name the same file, {ws['gt']}"),
        "evaluate --confusion-csv naming --gt": (
            gt, ws["gt"].read_text(encoding="utf-8"), evaluate(gt, "--confusion-csv", str(gt)),
            f"evaluate: --gt and --confusion-csv name the same file, {gt}"),
        "evaluate --confusion-csv naming --labels-from-summary": (
            summary, json.dumps({"label_order": list(LABEL_NAMES)}),
            evaluate(ws["gt"], "--labels-from-summary", str(summary),
                     "--confusion-csv", str(summary)),
            "evaluate: --labels-from-summary and --confusion-csv name the same file, "
            f"{summary}"),
        # --out named by the row itself, not by the test's trailing --out.
        "plan --out naming --prefs": (
            tmp / "prefs.json", ws["prefs"].read_text(encoding="utf-8"),
            ["plan", "--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
             "--prefs", str(tmp / "prefs.json"), "--config", str(ws["config"]),
             "--out", str(tmp / "prefs.json")],
            f"plan: --prefs and --out name the same file, {tmp / 'prefs.json'}"),
        "pack --out naming --plan": (
            plan_file, plan_file.read_text(encoding="utf-8"),
            ["pack", "--plan", str(plan_file), "--config", str(ws["config"]),
             "--out", str(plan_file)],
            f"pack: --plan and --out name the same file, {plan_file}"),
        "unpack --out naming --bundle": (
            bundle_file, bundle_file.read_text(encoding="utf-8"),
            ["unpack", "--bundle", str(bundle_file), "--out", str(bundle_file)],
            f"unpack: --bundle and --out name the same file, {bundle_file}"),
        "pack --out naming --include-guideline": (
            tmp / "guideline.txt", ws["guideline"].read_text(encoding="utf-8"),
            ["pack", "--plan", str(plan_file), "--config", str(ws["config"]),
             "--include-guideline", str(tmp / "guideline.txt"),
             "--out", str(tmp / "guideline.txt")],
            f"pack: --include-guideline and --out name the same file, {tmp / 'guideline.txt'}"),
        "validate --out naming --config": (
            cfg, ws["config"].read_text(encoding="utf-8"),
            ["validate", "--plan", str(plan_file), "--config", str(cfg), "--out", str(cfg)],
            f"validate: --config and --out name the same file, {cfg}"),
        "infer --summary naming --config": (
            cfg, ws["config"].read_text(encoding="utf-8"),
            [*infer(config=cfg), "--summary", str(cfg)],
            f"infer: --config and --summary name the same file, {cfg}"),
    }


@pytest.mark.parametrize("case", ["config line without '='", "local_http without an endpoint",
                                  "docs file with no document", "ground-truth row with one field",
                                  "pack below min_synthetic_cases",
                                  "pack a rule program that does not parse",
                                  "--labels naming no label",
                                  "--labels empty", "--labels-from-summary empty",
                                  "--max-iters 0",
                                  "validate with an empty synthetic set",
                                  "--labels with --labels-from-summary",
                                  "infer --summary naming --out",
                                  "validate --emit-history naming --out",
                                  "evaluate --confusion-csv naming --out",
                                  "validate --emit-history naming --plan",
                                  "evaluate --confusion-csv naming --pred",
                                  "evaluate --confusion-csv naming --gt",
                                  "evaluate --confusion-csv naming --labels-from-summary",
                                  "plan --out naming --prefs", "pack --out naming --plan",
                                  "unpack --out naming --bundle",
                                  "pack --out naming --include-guideline",
                                  "validate --out naming --config",
                                  "infer --summary naming --config"])
def test_refused_input_exits_2_with_one_error_line_and_no_output(workspace, tmp_path, capsys,
                                                                  case):
    path, text, argv, message = _refusals(workspace, tmp_path)[case]
    if path is not None:
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    if "--out" not in argv:
        argv = [*argv, "--out", str(out)]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    if path is not None:
        assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("command", ["plan", "validate", "pack", "infer"])
def test_an_output_naming_the_orch_config_file_exits_2_before_any_model_call(
        workspace, tmp_path, monkeypatch, capsys, command):
    """Without --config, the file $ORCH_CONFIG names is the config input."""
    cfg, plan_file = tmp_path / "orch.cfg", tmp_path / "plan.json"
    cfg.write_bytes(workspace["config"].read_bytes())
    plan_file.write_text(json.dumps({"format": "orchkit-plan/1",
                                     "plan": plan_to_dict(refined_plan())}), encoding="utf-8")
    write_bundle(pack(refined_plan()), tmp_path / "a.orchb")
    monkeypatch.setenv("ORCH_CONFIG", str(cfg))
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda gw, request: calls.append(request))
    argv = {
        "plan": ["--task", str(workspace["task"]), "--guideline", str(workspace["guideline"]),
                 "--prefs", str(workspace["prefs"])],
        "validate": ["--plan", str(plan_file)],
        "pack": ["--plan", str(plan_file)],
        "infer": ["--bundle", str(tmp_path / "a.orchb"), "--docs", str(workspace["docs"])],
    }[command]
    capsys.readouterr()
    assert run_cli(command, *argv, "--out", str(cfg)) == 2
    assert capsys.readouterr().err == (
        f"error: {command}: --config and --out name the same file, {cfg}\n")
    assert cfg.read_bytes() == workspace["config"].read_bytes()
    assert calls == []


@pytest.mark.parametrize("command, channel", [
    ("plan", "cloud"), ("validate", "cloud"), ("pack", "local"), ("infer", "local")])
def test_an_output_naming_a_session_the_config_sets_exits_2_before_any_model_call(
        tmp_path, monkeypatch, capsys, command, channel):
    """A <channel>.session the config sets is an input of the command that
    reads the config: an output naming it would replace the recording."""
    ws = build_e2e_workspace(tmp_path / "ws")
    session = ws[f"{channel}_session"]
    recorded = session.read_bytes()
    plan_file, validated = tmp_path / "plan.json", tmp_path / "validated.json"
    bundle_file, config = tmp_path / "a.orchb", ["--config", str(ws["config"])]
    assert plan_cmd(ws, plan_file) == 0  # the replayed chain each row's input comes from
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated), *config) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file), *config,
                   "--deterministic") == 0
    calls, complete = [], Gateway.complete
    monkeypatch.setattr(Gateway, "complete",
                        lambda gw, request: calls.append(request) or complete(gw, request))
    argv = {
        "plan": ["--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
                 "--prefs", str(ws["prefs"]), "--deterministic"],
        "validate": ["--plan", str(plan_file)],
        "pack": ["--plan", str(validated), "--deterministic"],
        "infer": ["--bundle", str(bundle_file), "--docs", str(ws["docs"]), "--deterministic"],
    }[command]
    capsys.readouterr()
    assert run_cli(command, *argv, "--config", str(ws["config"]), "--out", str(session)) == 2
    assert capsys.readouterr().err == (
        f"error: {command}: {channel}.session and --out name the same file, {session}\n")
    assert session.read_bytes() == recorded
    assert calls == []


@pytest.mark.parametrize("command, flag, template", [
    ("plan", "--out", "decompose"), ("validate", "--out", "refine"),
    ("validate", "--emit-history", "repair")])
def test_an_output_naming_a_template_the_config_points_at_exits_2_before_any_model_call(
        tmp_path, monkeypatch, capsys, command, flag, template):
    """The meta-prompts in a config's templates_dir are inputs of `plan` and
    `validate`: an output naming one would replace the prompt that plan
    provenance records by digest."""
    ws = build_e2e_workspace(tmp_path / "ws")
    templates = tmp_path / "templates"
    templates.mkdir()
    for packaged in template_files().values():
        shutil.copy(packaged, templates)
    before = {path.name: path.read_bytes() for path in templates.iterdir()}
    config = tmp_path / "templated.cfg"
    config.write_text(ws["config"].read_text(encoding="utf-8")
                      + f"templates_dir = {templates}\n", encoding="utf-8")
    plan_file, path = tmp_path / "plan.json", templates / f"{template}.txt"
    assert plan_cmd(ws, plan_file) == 0  # validate's input
    calls, complete = [], Gateway.complete
    monkeypatch.setattr(Gateway, "complete",
                        lambda gw, request: calls.append(request) or complete(gw, request))
    argv = {
        "plan": ["--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
                 "--prefs", str(ws["prefs"]), "--deterministic"],
        "validate": ["--plan", str(plan_file)],
    }[command]
    outputs = {"--out": str(tmp_path / "out.json"), flag: str(path)}
    capsys.readouterr()
    assert run_cli(command, *argv, "--config", str(config),
                   *(arg for item in outputs.items() for arg in item)) == 2
    assert capsys.readouterr().err == (
        f"error: {command}: templates_dir and {flag} name the same file, {path}\n")
    assert {path.name: path.read_bytes() for path in templates.iterdir()} == before
    assert calls == [] and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command, flag", [
    ("plan", "--out"), ("validate", "--emit-history"), ("infer", "--summary"),
    ("evaluate", "--confusion-csv")])
def test_an_output_naming_a_directory_exits_2_before_any_model_call(
        tmp_path, monkeypatch, capsys, command, flag):
    """No write can replace a directory: the command stops before it calls a
    model or removes a previous run's outputs, not after."""
    ws = build_e2e_workspace(tmp_path / "ws")
    plan_file, validated = tmp_path / "plan.json", tmp_path / "validated.json"
    bundle_file, config = tmp_path / "a.orchb", ["--config", str(ws["config"])]
    assert plan_cmd(ws, plan_file) == 0  # the replayed chain each row's input comes from
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated), *config) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file), *config,
                   "--deterministic") == 0
    directory = tmp_path / "dir"
    directory.mkdir()
    (directory / "kept.txt").write_bytes(b"kept\n")
    calls, complete = [], Gateway.complete
    monkeypatch.setattr(Gateway, "complete",
                        lambda gw, request: calls.append(request) or complete(gw, request))
    argv, writes = {
        "plan": (["--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
                  "--prefs", str(ws["prefs"]), *config, "--deterministic"], ["--out"]),
        "validate": (["--plan", str(plan_file), *config], ["--out", "--emit-history"]),
        "infer": (["--bundle", str(bundle_file), "--docs", str(ws["docs"]), *config,
                   "--deterministic"], ["--out", "--summary"]),
        "evaluate": (["--pred", str(ws["gt"]), "--gt", str(ws["gt"])],
                     ["--out", "--confusion-csv"]),
    }[command]
    outputs = {output: tmp_path / f"previous{output}" for output in writes}
    for path in outputs.values():
        path.write_bytes(b"a previous run's output\n")
    outputs[flag] = directory
    before = {path: path.read_bytes() for path in [*tmp_path.iterdir(), *directory.iterdir()]
              if path.is_file()}
    capsys.readouterr()
    assert run_cli(command, *argv,
                   *(arg for item in outputs.items() for arg in map(str, item))) == 2
    assert capsys.readouterr().err == (
        f"error: {command}: {flag} names a directory, {directory}\n")
    assert {path: path.read_bytes() for path in [*tmp_path.iterdir(), *directory.iterdir()]
            if path.is_file()} == before
    assert calls == []


def test_an_output_naming_a_file_that_is_not_regular_is_written(workspace, tmp_path):
    """/dev/null is no directory: the refusal above leaves it to write_whole,
    which writes such a file in place."""
    assert run_cli("evaluate", "--pred", str(workspace["gt"]), "--gt", str(workspace["gt"]),
                   "--out", "/dev/null", "--confusion-csv", str(tmp_path / "c.csv")) == 0
    assert (tmp_path / "c.csv").is_file()


NOT_FILES = {"--max-iters", "--rounds", "--labels"}


def test_every_option_that_takes_a_value_is_a_declared_file_or_not_a_file():
    """A file flag left out of its command's `reads` and `writes` would escape
    the check that no output replaces another output or an input."""
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for name, command in commands.items():
        declared = [*command.get_default("reads"), *command.get_default("writes")]
        options = {action.option_strings[0] for action in command._actions
                   if action.option_strings and action.nargs != 0}
        assert sorted(options - NOT_FILES) == sorted(declared), name


@pytest.mark.parametrize("output", ["--out", "--summary"])
@pytest.mark.parametrize("source", ["--docs", "--bundle"])
def test_infer_refuses_an_output_naming_its_input_before_any_model_call_exit_2(
        workspace, tmp_path, monkeypatch, capsys, source, output):
    docs, bundle_file = tmp_path / "docs.jsonl", tmp_path / "a.orchb"
    docs.write_bytes(workspace["docs"].read_bytes())
    write_bundle(pack(refined_plan()), bundle_file)
    inputs = {path: path.read_bytes() for path in (docs, bundle_file)}
    monkeypatch.chdir(tmp_path)
    paths = {"--docs": str(docs), "--bundle": str(bundle_file),
             "--out": str(tmp_path / "p.jsonl"), "--summary": str(tmp_path / "s.json")}
    paths[output] = Path(paths[source]).name  # relative: one file once resolved
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda gw, request: calls.append(request))
    capsys.readouterr()
    assert run_cli("infer", *(arg for flag, path in paths.items() for arg in (flag, path)),
                   "--config", str(workspace["config"])) == 2
    assert capsys.readouterr().err == (
        f"error: infer: {source} and {output} name the same file, {paths[output]}\n")
    assert {path: path.read_bytes() for path in inputs} == inputs
    assert calls == [] and sorted(tmp_path.iterdir()) == sorted(inputs)


def _document_directory(tmp_path):
    """The fixture documents as reports/d1.txt ... reports/d5.txt."""
    reports = tmp_path / "reports"
    reports.mkdir()
    for doc in fixture_documents():
        (reports / f"{doc.id}.txt").write_text(doc.body, encoding="utf-8")
    return reports


@pytest.mark.parametrize("flag, path", [
    ("--out", "reports/d5.txt"),
    ("--summary", "reports/s.txt"),
    ("--out", "reports/../reports/new.txt"),
    ("--summary", "link"),  # a link to reports/linked.txt, not there yet
    ("--out", "reports/link.txt"),  # a link to elsewhere.jsonl, read as a document
], ids=["--out naming a document", "--summary naming a new .txt", "--out through ..",
        "--summary through a link", "--out naming a link in the directory"])
def test_infer_refuses_an_output_its_docs_directory_would_read_exit_2(
        workspace, tmp_path, monkeypatch, capsys, flag, path):
    reports = _document_directory(tmp_path)
    (tmp_path / "link").symlink_to(reports / "linked.txt")
    (tmp_path / "elsewhere.jsonl").write_text("", encoding="utf-8")
    (reports / "link.txt").symlink_to(tmp_path / "elsewhere.jsonl")
    bundle_file = tmp_path / "a.orchb"
    write_bundle(pack(refined_plan()), bundle_file)
    before = {f.name: f.read_bytes() for f in reports.iterdir()}
    monkeypatch.chdir(tmp_path)
    paths = {"--out": "p.jsonl", "--summary": "s.json", flag: path}
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda gw, request: calls.append(request))
    capsys.readouterr()
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", "reports",
                   *(arg for item in paths.items() for arg in item),
                   "--config", str(workspace["config"])) == 2
    assert capsys.readouterr().err == (
        f"error: infer: --docs would read {flag} as a document, {path}\n")
    assert {f.name: f.read_bytes() for f in reports.iterdir()} == before
    assert calls == [] and not (tmp_path / "p.jsonl").exists()
    assert (tmp_path / "elsewhere.jsonl").read_text(encoding="utf-8") == ""


def test_infer_outputs_in_its_docs_directory_under_other_names_are_not_documents(
        workspace, tmp_path):
    reports = _document_directory(tmp_path)
    plan_file, validated = tmp_path / "plan.json", tmp_path / "validated.json"
    bundle_file = tmp_path / "a.orchb"
    config = ["--config", str(workspace["config"])]
    assert plan_cmd(workspace, plan_file) == 0
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated), *config) == 0
    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file), *config) == 0
    for _ in range(2):  # the second run reads the first one's outputs' directory
        assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(reports),
                       "--out", str(reports / "p.jsonl"),
                       "--summary", str(reports / "s.json"), *config) == 0
        preds = (reports / "p.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["document_id"] for line in preds] == [
            doc.id for doc in fixture_documents()]


# JSON nested far deeper than the decoder recurses, yet far under any size
# limit: about 200 KB.
_DEEP = '{"a":' * 100_000 + "0" + "}" * 100_000


def test_a_completion_nested_too_deeply_is_an_unparseable_run(workspace, tmp_path, monkeypatch):
    def local(request):
        if "Report one." in request.user_content and "Distant spread" in request.system_prompt:
            return _DEEP
        return fake_local_extractor(request)

    monkeypatch.setattr("orchkit.gateway.Gateway", lambda profile, phase: Gateway(
        BackendProfile.scripted(ScriptedBackend(local)), phase, sleep=lambda _s: None))
    bundle_file, preds = tmp_path / "a.orchb", tmp_path / "preds.jsonl"
    write_bundle(pack(refined_plan()), bundle_file)
    assert run_cli("infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                   "--out", str(preds), "--config", str(workspace["config"]),
                   "--deterministic") == 0
    runs = {(line["document_id"], run["subtask_id"]): run
            for line in map(json.loads, preds.read_text(encoding="utf-8").splitlines())
            for round_ in line["rounds"] for run in round_["runs"]}
    deep = runs.pop(("d1", "distant_spread"))
    assert deep["parse_status"] == "unparseable"
    assert deep["reasoning"] == ("unparseable after repair: reply nests JSON too deeply "
                                 "to parse")
    assert {run["parse_status"] for run in runs.values()} == {"ok"}


def test_a_labels_line_nested_too_deeply_names_its_file_and_line(workspace, tmp_path, capsys):
    gt = tmp_path / "gt.jsonl"
    gt.write_text('{"id": "d1", "label": "Metastatic"}\n' + _DEEP + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("evaluate", "--pred", str(gt), "--gt", str(workspace["gt"])) == 2
    assert capsys.readouterr().err == (
        f"error: {gt}:2: JSON nested too deeply to parse\n")


def _rehashed_bundle(path, body: str) -> None:
    """A bundle file of `body` and its whole-file hash trailer."""
    from orchkit.jsonio import sha256_text

    path.write_bytes((body + "#sha256:" + sha256_text(body) + "\n").encode("utf-8"))


def _packed_body() -> str:
    return pack(refined_plan()).decode("utf-8").rpartition("#sha256:")[0]


_MALFORMED_BODIES = {
    "nested too deeply": lambda body: _DEEP + "\n",
    "NaN": lambda body: body.replace('"threshold":0.8', '"threshold":NaN'),
    "Infinity": lambda body: body.replace('"threshold":0.8', '"threshold":Infinity'),
    "1e999": lambda body: body.replace('"threshold":0.8', '"threshold":1e999'),
}


@pytest.mark.parametrize("case", list(_MALFORMED_BODIES))
@pytest.mark.parametrize("command", ["unpack", "infer"])
def test_a_bundle_body_canonical_json_cannot_hold_exits_6_naming_the_file(
        workspace, tmp_path, capsys, case, command):
    body = _packed_body()
    assert body.count('"threshold":0.8') == 1
    bundle_file, out = tmp_path / "a.orchb", tmp_path / "out"
    _rehashed_bundle(bundle_file, _MALFORMED_BODIES[case](body))
    argv = {"unpack": ["unpack", "--bundle", str(bundle_file)],
            "infer": ["infer", "--bundle", str(bundle_file), "--docs", str(workspace["docs"]),
                      "--config", str(workspace["config"])]}[command]
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == 6
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bundle_file}: bundle body is not JSON: ")
    assert not out.exists()
