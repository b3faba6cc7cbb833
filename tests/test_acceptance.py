"""Acceptance gate: one test per criterion, each printing a PASS line and
holding to its stated runtime bound.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every expected value here is either arithmetic pinned by hand or the
output of an independent oracle implemented in this suite; nothing is copied
from the implementation under test.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from orchkit.bundle import pack, unpack
from orchkit.errors import BundleError
from orchkit.evalkit import INDETERMINATE, LabeledSet, evaluate_report, kappa_from_matrix
from orchkit.executor import majority_vote
from orchkit.gateway import PHASE_LOCAL, BackendProfile, Gateway, ScriptedBackend
from orchkit.model import make_labels, merge_schemas
from orchkit.ruledsl import evaluate, parse_logic
from orchkit.validator import run_refinement_loop

from conftest import build_e2e_workspace, golden_plan, refined_plan
from dslgen import LABELS, all_inputs, oracle_evaluate, random_program_source, random_schema
from test_evalkit import STAGES, build_sets
from test_validator import SPREAD, LocalScript, bump_revision, draft_prompt, make_cases


class Timer:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.budget:.0f}s budget")
        return False


def test_criterion_1_metric_arithmetic():
    with Timer(1.0) as t:
        pred, gt = build_sets(n_scored=47, n_correct=33, n_indeterminate=3)
        free_text = evaluate_report(pred, gt)
        assert free_text.n_total == 50 and free_text.n_scored == 47
        assert abs(free_text.accuracy_percent - 70.21) <= 0.01

        pred, gt = build_sets(n_scored=48, n_correct=41, n_indeterminate=2)
        structured = evaluate_report(pred, gt)
        assert structured.n_total == 50 and structured.n_scored == 48
        assert abs(structured.accuracy_percent - 85.42) <= 0.01
    print(f"\nPASS criterion 1: 33/47 -> {free_text.accuracy_percent}%, "
          f"41/48 -> {structured.accuracy_percent}% ({t.elapsed:.2f}s)")


def test_criterion_2_refinement_loop_semantics():
    with Timer(10.0) as t:
        cases = make_cases(10)
        for p in range(0, 11):
            gw = Gateway(BackendProfile.scripted(ScriptedBackend(LocalScript(lambda rev, p=p: p))),
                         PHASE_LOCAL, sleep=lambda _s: None)
            outcome = run_refinement_loop(SPREAD, draft_prompt(), cases, gw,
                                          bump_revision, max_iters=3, threshold=0.8)
            if p >= 8:  # the loop condition is strictly "< 80%"
                assert outcome.refinements_used == 0, p
                assert outcome.prompt.status == "refined", p
                assert outcome.prompt.revision == 0, p
            else:
                assert outcome.refinements_used == 3, p
                assert outcome.prompt.status == "failed", p
            assert outcome.history[0].passes == p

        stuck_gw = Gateway(BackendProfile.scripted(ScriptedBackend(LocalScript(lambda rev: 5))),
                           PHASE_LOCAL, sleep=lambda _s: None)
        stuck = run_refinement_loop(SPREAD, draft_prompt(), cases, stuck_gw,
                                    bump_revision, max_iters=5, threshold=0.8)
        assert stuck.refinements_used == 5
        assert stuck.prompt.status == "failed"
        assert len(stuck.history) == 6
    print(f"\nPASS criterion 2: p in 0..10 exhaustive, strict <80% boundary, "
          f"stuck stops after exactly max_iters ({t.elapsed:.2f}s)")


def test_criterion_3_majority_vote_oracle_equivalence():
    labels = make_labels(("1", "2", "3", "4"))  # ordinal == stage - 1

    def brute(sequence):
        counts = Counter(sequence)
        top = max(counts.values())
        return max((lbl for lbl, n in counts.items() if n == top),
                   key=lambda lbl: lbl.ordinal)

    with Timer(1.0) as t:
        checked = 0
        for combo in itertools.product(labels, repeat=5):
            assert majority_vote(list(combo)) == brute(combo)
            checked += 1
        assert checked == 4 ** 5 == 1024
        tie_case = [labels[0], labels[0], labels[3], labels[3], labels[2]]
        assert majority_vote(tie_case).name == "4"
    print(f"\nPASS criterion 3: 1024/1024 sequences agree with the brute counter, "
          f"[1,1,4,4,3] -> 4 ({t.elapsed:.2f}s)")


FIXTURE_PROGRAMS = []


def _fixture_programs():
    if FIXTURE_PROGRAMS:
        return FIXTURE_PROGRAMS
    plan = golden_plan()
    FIXTURE_PROGRAMS.append((plan.parsed_logic(),
                             merge_schemas([s.output_schema for s in plan.subtasks])))

    from orchkit.model import FeatureSchema, FieldSpec
    wide = FeatureSchema(tuple(
        FieldSpec(f"g{i}", "categorical", tuple(f"v{j}" for j in range(9)))
        for i in range(4)))  # domains of 10 with unknown: exactly 10^4 inputs
    source = ("when g0 == v0 and g1 != v3 -> L1;"
              "when g1 in {v1, v2} or is_unknown(g2) -> L2;"
              "when not (g2 == v4 or g3 == v8) -> L3;"
              "default -> L0")
    FIXTURE_PROGRAMS.append((parse_logic(source, [wide], LABELS), wide))
    return FIXTURE_PROGRAMS


def test_criterion_4_rule_dsl_oracle_and_properties():
    with Timer(30.0) as t:
        total_inputs = 0
        for logic, schema in _fixture_programs():
            space = 1
            for f in schema.fields:
                space *= len(f.legal_values()) + 1
            assert space <= 10_000
            for features in all_inputs(schema):
                assert evaluate(logic, features) == oracle_evaluate(logic, features)
                total_inputs += 1

        rng = random.Random(424242)
        label_names = {lbl.name for lbl in LABELS}
        programs = 0
        for _ in range(1000):
            schema = random_schema(rng)
            logic = parse_logic(random_program_source(rng, schema), [schema], LABELS)
            programs += 1
            inputs = [
                {f.name: rng.choice(list(f.legal_values()) + ["unknown"])
                 for f in schema.fields}
                for _ in range(20)
            ]
            inputs.append({f.name: "unknown" for f in schema.fields})  # totality probe
            field = schema.fields[0]
            value = field.legal_values()[0]
            never = (f"when {field.name} == {value} and "
                     f"not ({field.name} == {value}) -> L3;\n")
            shadowed = parse_logic(never + logic.source, [schema], LABELS)
            for features in inputs:
                outcome = evaluate(logic, features)
                assert outcome == oracle_evaluate(logic, features)   # oracle agreement
                assert outcome.name in label_names                    # totality
                assert evaluate(shadowed, features) == outcome        # first-match
                for f in schema.fields:                               # unknown semantics
                    if features[f.name] == "unknown":
                        probe = parse_logic(
                            f"when {f.name} == {f.legal_values()[0]} -> L1; "
                            f"when is_unknown({f.name}) -> L2; default -> L0",
                            [schema], LABELS)
                        assert evaluate(probe, features).name == "L2"
                        break
    print(f"\nPASS criterion 4: fixtures exhaustive over {total_inputs} inputs, "
          f"{programs} randomized programs hold all properties ({t.elapsed:.2f}s)")


def test_criterion_5_cohen_kappa():
    with Timer(5.0) as t:
        pred, gt = build_sets(n_scored=20, n_correct=20)
        assert evaluate_report(pred, gt, STAGES).kappa == 1.0
        assert kappa_from_matrix([[1, 1], [1, 1]]) == (0.0, False)

        matrix = [[10, 2, 0, 0], [3, 8, 1, 0], [0, 2, 9, 1], [0, 0, 1, 10]]
        expected = Fraction(593, 828)  # derived by hand in test_evalkit
        assert abs(kappa_from_matrix(matrix)[0] - float(expected)) < 1e-9

        rng = random.Random(31415)
        for _ in range(1000):
            n = rng.randint(1, 40)
            n_ind = rng.randint(0, 4)
            gt_pairs = [(f"d{i}", STAGES[rng.randrange(4)]) for i in range(n)]
            gt_pairs += [(f"i{j}", INDETERMINATE) for j in range(n_ind)]
            pred_pairs = [(f"d{i}", STAGES[rng.randrange(4)]) for i in range(n)]
            pred_pairs += [(f"i{j}", STAGES[rng.randrange(4)]) for j in range(n_ind)]
            report = evaluate_report(LabeledSet("p", dict(pred_pairs)),
                                     LabeledSet("gt", dict(gt_pairs)), STAGES)
            matches = sum(1 for (_, g), (_, p) in zip(gt_pairs[:n], pred_pairs) if g == p)
            trace = sum(report.matrix[i][i] for i in range(len(STAGES)))
            assert report.n_scored == n and report.n_unmatched_pred == 0
            assert Fraction(matches, n) == Fraction(trace, sum(map(sum, report.matrix)))
            assert report.accuracy == float(Fraction(matches, n))
    print(f"\nPASS criterion 5: kappa oracle to 1e-9, trace identity on 1000 "
          f"random sets ({t.elapsed:.2f}s)")


def test_criterion_6_bundle_integrity():
    with Timer(1.0) as t:
        plan = refined_plan(per_subtask_cases=2)
        data = pack(plan)
        assert pack(refined_plan(per_subtask_cases=2)) == data  # byte-determinism
        bundle = unpack(data)
        assert bundle.to_plan() == plan                          # lossless
        meta = bundle.sections["meta"]
        assert pack(bundle.plan, bundle.runtime, created_at=meta["created_at"],
                    allow_failed=meta["allow_failed"],
                    guideline_body=meta.get("guideline_body")) == data

        detected = 0
        for pos in range(len(data)):
            mutated = bytearray(data)
            mutated[pos] ^= 0x01
            with pytest.raises(BundleError):
                unpack(bytes(mutated))
            detected += 1
        assert detected == len(data)
    print(f"\nPASS criterion 6: round-trip lossless, deterministic bytes, "
          f"{detected}/{len(data)} single-byte mutations detected ({t.elapsed:.2f}s)")


def test_criterion_7_privacy_boundary(tmp_path):
    with Timer(1.0) as t:
        # (a) No planner operation accepts a Document.
        import inspect
        import typing

        import orchkit.model
        import orchkit.planner as planner_module
        for name, fn in inspect.getmembers(planner_module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != "orchkit.planner":
                continue
            hints = typing.get_type_hints(fn)
            hints.pop("return", None)
            assert orchkit.model.Document not in hints.values(), name
            for param in inspect.signature(fn).parameters:
                assert "doc" not in param.lower(), (name, param)

        # (b) infer refuses to start while a cloud profile is configured.
        ws = build_e2e_workspace(tmp_path / "guard")
        from orchkit.cli import main
        assert main(["plan", "--task", str(ws["task"]), "--guideline",
                     str(ws["guideline"]), "--prefs", str(ws["prefs"]),
                     "--out", str(tmp_path / "plan.json"),
                     "--config", str(ws["config"]), "--deterministic"]) == 0
        assert main(["validate", "--plan", str(tmp_path / "plan.json"),
                     "--out", str(tmp_path / "validated.json"),
                     "--config", str(ws["config"])]) == 0
        assert main(["pack", "--plan", str(tmp_path / "validated.json"),
                     "--out", str(tmp_path / "a.orchb"),
                     "--config", str(ws["config"]), "--deterministic"]) == 0
        guarded = tmp_path / "guarded.cfg"
        guarded.write_text(
            "cloud.kind = cloud_http\ncloud.endpoint = https://api.example\n"
            f"local.kind = scripted\nlocal.session = {ws['local_session']}\n",
            encoding="utf-8")
        assert main(["infer", "--bundle", str(tmp_path / "a.orchb"),
                     "--docs", str(ws["docs"]),
                     "--out", str(tmp_path / "p.jsonl"),
                     "--config", str(guarded)]) == 7

        # (c) A bundle packed in a process that never loaded a document
        # contains no document bytes. The child process even instruments the
        # Document constructor to prove zero instantiations.
        script = f"""
import sys
import orchkit.model as m
count = {{"n": 0}}
original = m.Document.__post_init__
def spy(self):
    count["n"] += 1
    original(self)
m.Document.__post_init__ = spy
from orchkit.cli import main
ws = {str({k: str(v) for k, v in ws.items()})}
base = {str(str(tmp_path))!r}
assert main(["plan", "--task", ws["task"], "--guideline", ws["guideline"],
             "--prefs", ws["prefs"], "--out", base + "/cplan.json",
             "--config", ws["config"], "--deterministic"]) == 0
assert main(["validate", "--plan", base + "/cplan.json",
             "--out", base + "/cvalidated.json", "--config", ws["config"]]) == 0
assert main(["pack", "--plan", base + "/cvalidated.json",
             "--out", base + "/clean.orchb", "--config", ws["config"],
             "--deterministic"]) == 0
assert count["n"] == 0, f"process instantiated {{count['n']}} documents"
print("documents-instantiated:", count["n"])
"""
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run([sys.executable, "-c", script],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                capture_output=True, text=True, check=False)
        assert result.returncode == 0, result.stderr
        assert "documents-instantiated: 0" in result.stdout
        bundle_bytes = (tmp_path / "clean.orchb").read_bytes()
        doc_lines = Path(ws["docs"]).read_text(encoding="utf-8").splitlines()
        for line in doc_lines:
            body = json.loads(line)["body"]
            assert body.encode("utf-8") not in bundle_bytes
            assert body.split(".")[0].encode("utf-8") not in bundle_bytes
    print(f"\nPASS criterion 7: planner surface document-free, infer refused "
          f"(exit 7), clean-process bundle holds no document bytes ({t.elapsed:.2f}s)")


def _run_pipeline(ws, out_dir: Path) -> dict[str, bytes]:
    from orchkit.cli import main

    out_dir.mkdir(parents=True, exist_ok=True)
    plan = out_dir / "plan.json"
    validated = out_dir / "validated.json"
    bundle = out_dir / "artifact.orchb"
    preds = out_dir / "preds.jsonl"
    summary = out_dir / "summary.json"
    report = out_dir / "report.json"
    assert main(["plan", "--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
                 "--prefs", str(ws["prefs"]), "--out", str(plan),
                 "--config", str(ws["config"]), "--deterministic"]) == 0
    assert main(["validate", "--plan", str(plan), "--out", str(validated),
                 "--config", str(ws["config"])]) == 0
    assert main(["pack", "--plan", str(validated), "--out", str(bundle),
                 "--config", str(ws["config"]), "--deterministic"]) == 0
    assert main(["infer", "--bundle", str(bundle), "--docs", str(ws["docs"]),
                 "--out", str(preds), "--summary", str(summary),
                 "--config", str(ws["config"]), "--deterministic"]) == 0
    assert main(["evaluate", "--pred", str(preds), "--gt", str(ws["gt"]),
                 "--labels-from-summary", str(summary), "--out", str(report)]) == 0
    return {p.name: p.read_bytes()
            for p in (plan, validated, bundle, preds, summary, report)}


def test_criterion_8_end_to_end_scripted_pipeline(tmp_path):
    with Timer(30.0) as t:
        ws = build_e2e_workspace(tmp_path / "ws", rounds=3)
        first = _run_pipeline(ws, tmp_path / "run1")
        second = _run_pipeline(ws, tmp_path / "run2")
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"

        preds = [json.loads(line)
                 for line in first["preds.jsonl"].decode("utf-8").splitlines()]
        assert len(preds) == 5
        assert [p["final_label"] for p in preds] == [
            "Metastatic", "Locally Advanced", "Borderline Resectable",
            "Resectable", "Locally Advanced"]
        report = json.loads(first["report.json"].decode("utf-8"))
        assert report["n_scored"] == 4 and report["accuracy_percent"] == 75.0
    print(f"\nPASS criterion 8: plan->validate->pack->infer->evaluate "
          f"byte-identical across two runs, 5 documents ({t.elapsed:.2f}s)")
