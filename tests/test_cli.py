"""CLI commands over recorded scripted sessions, including exit codes."""

from __future__ import annotations

import dataclasses
import json

import pytest

from orchkit import executor
from orchkit.bundle import load_plan, pack, read_bundle, save_plan, write_bundle
from orchkit.cli import main
from orchkit.gateway import (
    PHASE_CLOUD,
    BackendProfile,
    Gateway,
    RecordingBackend,
    ScriptedBackend,
)

from conftest import build_e2e_workspace, golden_plan, refined_plan


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
    from orchkit.errors import MalformedPlanError
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
    with pytest.raises(MalformedPlanError):
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
