"""CLI commands over recorded scripted sessions, including exit codes."""

from __future__ import annotations

import dataclasses
import json

import pytest

from orchkit import cli, errors, executor
from orchkit.bundle import load_plan, pack, read_bundle, save_plan, write_bundle
from orchkit.cli import main
from orchkit.gateway import (
    PHASE_CLOUD,
    BackendProfile,
    Gateway,
    RecordingBackend,
    ScriptedBackend,
)
from orchkit.jsonio import digest

from conftest import (
    E2E_PLAN_REPLY,
    build_e2e_workspace,
    e2e_cloud_handler,
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


def test_plan_case_count_from_config_unless_prefs_set_it(workspace, tmp_path):
    # The recorded cloud session asks for 3 cases per subtask; another count
    # would be an unseen request.
    prefs = json.loads(workspace["prefs"].read_text(encoding="utf-8"))
    assert prefs.pop("synthetic_cases_per_subtask") == 3
    bare_prefs = tmp_path / "prefs.json"
    bare_prefs.write_text(json.dumps(prefs), encoding="utf-8")
    out = tmp_path / "plan.json"
    assert run_cli("plan", "--task", str(workspace["task"]),
                   "--guideline", str(workspace["guideline"]),
                   "--prefs", str(bare_prefs), "--out", str(out),
                   "--config", str(workspace["config"]), "--deterministic") == 0
    assert all(len(v) == 3 for v in load_plan(out).synthetic_sets.values())

    other_count = tmp_path / "seven.cfg"
    other_count.write_text(workspace["config"].read_text(encoding="utf-8")
                           + "synthetic_cases_per_subtask = 7\n", encoding="utf-8")
    out = tmp_path / "plan-prefs.json"
    assert plan_cmd({**workspace, "config": other_count}, out) == 0
    assert all(len(v) == 3 for v in load_plan(out).synthetic_sets.values())


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
        f"local.kind = scripted\nlocal.session = {workspace['local_session']}\n"
        "synthetic_cases_per_subtask = 3\n", encoding="utf-8")
    code = run_cli("plan", "--task", str(workspace["task"]),
                   "--guideline", str(workspace["guideline"]),
                   "--prefs", str(workspace["prefs"]),
                   "--out", str(tmp_path / "plan.json"),
                   "--config", str(config), "--deterministic")
    assert code == 3


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

    monkeypatch.setattr(cli, "Gateway", lambda profile, phase: Gateway(
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
    (errors.DslError("unknown field 'x'", 1, 6), 3),
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

    assert run_cli("pack", "--plan", str(validated), "--out", str(bundle_file),
                   "--config", str(workspace["config"]), "--deterministic") == 0
    artifact = read_bundle(bundle_file)
    assert artifact.runtime().rounds == 3

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
    assert read_bundle(bundle_file).allow_failed is True


def test_validate_subtask_without_prompt_exit_2(tmp_path, monkeypatch, capsys):
    plan = golden_plan()
    first, second = plan.subtasks
    plan_file = tmp_path / "plan.json"
    save_plan(dataclasses.replace(plan, prompts=(
        dataclasses.replace(plan.prompts[0], subtask_id=second.id), plan.prompts[1])),
        plan_file)
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
    assert run_cli("validate", "--plan", str(plan_file), "--out", str(validated),
                   "--config", str(config)) == 0  # validation sends no seed
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


def _plan_file(path, edit):
    from orchkit.bundle import plan_to_dict

    payload = {"format": "orchkit-plan/1", "plan": plan_to_dict(refined_plan())}
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
