"""Validation scoring and refinement-loop semantics.

The scripted local backend here is parameterized by a pass count per prompt
revision: each synthetic case carries its expected value in the input text,
and the backend answers the first p cases correctly and the rest wrongly,
so threshold arithmetic can be pinned exactly.
"""

from __future__ import annotations

import json
import re
import threading
from collections import Counter
from fractions import Fraction

import pytest

from orchkit.errors import UnseenRequestError
from orchkit.executor import run_document, run_subtask
from orchkit.gateway import (
    PHASE_LOCAL,
    BackendProfile,
    Gateway,
    ScriptedBackend,
    request_digest,
)
from orchkit.model import Document, FeatureSet, PromptSpec, SyntheticCase, replace
from orchkit.validator import (
    run_refinement_loop,
    run_refinement_loops,
    validate_prompt,
)

from conftest import fake_local_extractor, golden_cases, golden_plan, golden_subtasks

SPREAD = golden_subtasks()[0]
OTHER = replace(SPREAD, id="other_spread")
VALUES = ("present", "absent", "unknown")


def make_cases(n: int = 10) -> list[SyntheticCase]:
    return [SyntheticCase(SPREAD.id, f"case {i} expects {VALUES[i % 3]}",
                          FeatureSet({"distant_metastasis": VALUES[i % 3]}))
            for i in range(n)]


def draft_prompt() -> PromptSpec:
    return PromptSpec.draft(SPREAD.id, "extract the field. [[rev=0]]")


def bump_revision(prompt: PromptSpec, failures) -> PromptSpec:
    assert failures, "refinement must only run with failures in hand"
    return prompt.with_revision(
        prompt.system_prompt.replace(f"[[rev={prompt.revision}]]",
                                     f"[[rev={prompt.revision + 1}]]"))


class LocalScript:
    """Answers correctly for the first `passes_for(revision)` case indices."""

    def __init__(self, passes_by_rev):
        self.passes_by_rev = passes_by_rev

    def passes_for(self, revision: int) -> int:
        if callable(self.passes_by_rev):
            return self.passes_by_rev(revision)
        return self.passes_by_rev[revision]

    def __call__(self, request) -> str:
        rev = int(re.search(r"\[\[rev=(\d+)\]\]", request.system_prompt).group(1))
        idx = int(re.search(r"case (\d+)", request.user_content).group(1))
        expected = request.user_content.split("expects ")[1].strip()
        if idx < self.passes_for(rev):
            value = expected
        else:
            value = "absent" if expected != "absent" else "present"
        return json.dumps({"reasoning": f"revision {rev} on case {idx}",
                           "values": {"distant_metastasis": value}})


def local_gateway(script) -> Gateway:
    return Gateway(BackendProfile.scripted(ScriptedBackend(script)), PHASE_LOCAL,
                   sleep=lambda _s: None)


# --- threshold arithmetic -------------------------------------------------------

@pytest.mark.parametrize("passes,verdict", [(9, "passed"), (7, "refine"), (8, "passed")])
def test_threshold_examples(passes, verdict):
    gw = local_gateway(LocalScript(lambda rev: passes))
    [report] = validate_prompt([(SPREAD, draft_prompt(), make_cases(10))], gw)
    assert report.passes == passes
    assert report.exact_rate() == Fraction(passes, 10)
    assert report.verdict == verdict


def test_threshold_is_exact_rational():
    gw = local_gateway(LocalScript(lambda rev: 4))
    [report] = validate_prompt([(SPREAD, draft_prompt(), make_cases(5))], gw, threshold=0.8)
    assert report.exact_rate() == Fraction(4, 5)
    assert report.verdict == "passed"  # 4/5 == 0.8 exactly, loop is strictly <


def test_each_case_runs_exactly_once():
    calls = {"n": 0}

    class Counting(LocalScript):
        def __call__(self, request):
            calls["n"] += 1
            return super().__call__(request)

    gw = local_gateway(Counting(lambda rev: 10))
    validate_prompt([(SPREAD, draft_prompt(), make_cases(10))], gw)
    assert calls["n"] == 10


def test_unparseable_output_counts_as_failure():
    def script(request):
        idx = int(re.search(r"case (\d+)", request.user_content).group(1))
        if idx == 0:
            return "I will not produce JSON."
        expected = request.user_content.split("expects ")[1].strip()
        return json.dumps({"reasoning": "ok", "values": {"distant_metastasis": expected}})

    gw = local_gateway(script)
    [report] = validate_prompt([(SPREAD, draft_prompt(), make_cases(10))], gw)
    assert report.passes == 9
    failed = [r for r in report.results if not r.passed]
    assert len(failed) == 1 and failed[0].run.parse_status == "unparseable"
    assert failed[0].run.output.get("distant_metastasis") == "unknown"


def test_transport_failure_marks_case_and_report_survives():
    from orchkit.errors import TransportError

    def script(request):
        idx = int(re.search(r"case (\d+)", request.user_content).group(1))
        if idx == 3:
            raise TransportError("wire fell out")
        expected = request.user_content.split("expects ")[1].strip()
        return json.dumps({"reasoning": "ok", "values": {"distant_metastasis": expected}})

    gw = Gateway(BackendProfile.scripted(ScriptedBackend(script)), PHASE_LOCAL,
                 sleep=lambda _s: None)
    [report] = validate_prompt([(SPREAD, draft_prompt(), make_cases(10))], gw)
    assert report.passes == 9
    failed = [r for r in report.results if not r.passed][0]
    assert "transport" in failed.reason


def test_empty_reply_and_overlong_case_mark_cases_and_report_survives():
    def script(request):
        idx = int(re.search(r"case (\d+)", request.user_content).group(1))
        if idx == 2:
            return "   "
        expected = request.user_content.split("expects ")[1].split()[0]
        return json.dumps({"reasoning": "ok", "values": {"distant_metastasis": expected}})

    cases = make_cases(10)
    cases[5] = SyntheticCase(SPREAD.id, "case 5 expects " + VALUES[5 % 3] + " x" * 200,
                             cases[5].expected)
    gw = Gateway(BackendProfile.scripted(ScriptedBackend(script), context=64),
                 PHASE_LOCAL, sleep=lambda _s: None)
    [report] = validate_prompt([(SPREAD, draft_prompt(), cases)], gw)
    assert report.total == 10 and report.passes == 8
    failed = [r for r in report.results if not r.passed]
    assert [r.case_index for r in failed] == [2, 5]
    assert "empty completion" in failed[0].reason
    assert "token window" in failed[1].reason
    assert not any("transport" in r.reason for r in failed)
    assert all(r.run.parse_status == "unparseable" for r in failed)


def test_validation_repeats_demand_consistency():
    calls = {"n": 0}

    def flipflop(request):
        calls["n"] += 1
        expected = request.user_content.split("expects ")[1].strip()
        value = expected if calls["n"] % 2 else "present"
        return json.dumps({"reasoning": "coin", "values": {"distant_metastasis": value}})

    gw = local_gateway(flipflop)
    case = SyntheticCase(SPREAD.id, "case 0 expects absent",
                         FeatureSet({"distant_metastasis": "absent"}))
    [single] = validate_prompt([(SPREAD, draft_prompt(), [case])], gw)
    assert single.passes == 1  # first call answers correctly
    calls["n"] = 0
    [doubled] = validate_prompt([(SPREAD, draft_prompt(), [case])], gw, repeats=2)
    assert doubled.passes == 0  # second run flips to a wrong answer
    assert doubled.total == 1   # repeats do not inflate the case count


def test_repeats_run_in_order_in_each_case_lane_with_every_case_in_flight():
    # Every case's first call waits at a barrier only all of them together
    # can pass, so the test fails rather than passes if cases run in fewer
    # lanes. Cases 1 and 4 answer wrongly on their first call.
    cases = make_cases(6)
    barrier = threading.Barrier(len(cases), timeout=10)
    seen: Counter = Counter()
    lock = threading.Lock()

    def script(request):
        idx = int(re.search(r"case (\d+)", request.user_content).group(1))
        with lock:
            seen[idx] += 1
            first = seen[idx] == 1
        if first:
            barrier.wait()
        expected = request.user_content.split("expects ")[1].strip()
        value = expected if not (first and idx in (1, 4)) else (
            "absent" if expected != "absent" else "present")
        return json.dumps({"reasoning": "ok", "values": {"distant_metastasis": value}})

    [report] = validate_prompt([(SPREAD, draft_prompt(), cases)], local_gateway(script),
                               repeats=2, width=len(cases))
    assert seen == {0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 5: 2}  # no second call after a failure
    assert [r.passed for r in report.results] == [True, False, True, True, False, True]
    assert (report.passes, report.total) == (4, 6)


def test_normalization_accepts_alias_case_and_whitespace():
    def script(request):
        return json.dumps({"reasoning": "alias", "values": {"distant_metastasis": "  METS "}})

    gw = local_gateway(script)
    case = SyntheticCase(SPREAD.id, "case 0 expects present",
                         FeatureSet({"distant_metastasis": "present"}))
    [report] = validate_prompt([(SPREAD, draft_prompt(), [case])], gw)
    assert report.passes == 1  # "METS" -> alias -> "present"


# --- the same runner as infer ------------------------------------------------------

def test_validation_passes_the_cases_infer_repairs():
    # The model answers prose until the repair note is in its system prompt.
    # Validation gives each reply infer's repair round-trip, repeat k sending
    # seed k, so it passes every case that infer's runs repair.
    seeds = []

    def prose_until_repaired(request):
        seeds.append(request.seed)
        if "could not be parsed against the output contract" not in request.system_prompt:
            return "The report states the spread plainly."
        return fake_local_extractor(request)

    plan = golden_plan()
    spread, prompt = plan.subtasks[0], plan.prompt_for(SPREAD.id)
    cases = golden_cases()[SPREAD.id]
    gw = local_gateway(prose_until_repaired)
    [report] = validate_prompt([(spread, prompt, cases)], gw, repeats=2)
    assert (report.passes, report.total, report.verdict) == (3, 3, "passed")
    assert [r.run.parse_status for r in report.results] == ["repaired"] * 3
    assert sorted(seeds) == [1] * 6 + [2] * 6  # a failed parse and its repair per repeat
    for case in cases:
        run = run_subtask(gw, spread, prompt, Document("d", case.input_text), seed=2)
        assert (run.parse_status, run.output) == ("repaired", case.expected)


def test_a_case_failing_only_seed_2_fails_on_infer_round_2s_request():
    requests = []

    def wrong_on_seed_2(request):
        requests.append(request)
        reply = json.loads(fake_local_extractor(request))
        if request.seed == 2 and "distant_metastasis" in reply["values"]:
            reply["values"]["distant_metastasis"] = "absent"
        return json.dumps(reply)

    plan = golden_plan()
    spread, prompt = plan.subtasks[0], plan.prompt_for(SPREAD.id)
    case = golden_cases()[SPREAD.id][0]  # mets=present
    gw = local_gateway(wrong_on_seed_2)
    [report] = validate_prompt([(spread, prompt, [case])], gw, repeats=2)
    assert (report.passes, report.verdict) == (0, "refine")
    assert report.results[0].reason == "distant_metastasis: expected 'present', got 'absent'"
    assert [r.seed for r in requests] == [1, 2]
    repeat_2 = request_digest(requests[1])
    requests.clear()
    run_document(gw, plan, Document("d", case.input_text), rounds=2)
    round_2 = [request_digest(r) for r in requests
               if r.seed == 2 and r.system_prompt == prompt.system_prompt]
    assert round_2 == [repeat_2]


# --- refinement loop ---------------------------------------------------------------

def test_loop_improves_and_terminates_at_revision_one():
    gw = local_gateway(LocalScript({0: 6, 1: 9}))
    outcome = run_refinement_loop(SPREAD, draft_prompt(), make_cases(10), gw,
                                  bump_revision, max_iters=5)
    assert outcome.prompt.status == "refined"
    assert outcome.prompt.revision == 1
    assert len(outcome.history) == 2
    assert [r.passes for r in outcome.history] == [6, 9]
    assert outcome.refinements_used == 1


def test_loop_stuck_backend_fails_after_budget():
    gw = local_gateway(LocalScript(lambda rev: 5))
    outcome = run_refinement_loop(SPREAD, draft_prompt(), make_cases(10), gw,
                                  bump_revision, max_iters=3)
    assert outcome.prompt.status == "failed"
    assert len(outcome.history) == 4  # revisions 0..3
    assert outcome.refinements_used == 3
    # Equal scores tie toward the earliest revision.
    assert outcome.prompt.revision == 0
    assert outcome.prompt.report.passes == 5


def test_loop_failed_prompt_carries_best_report():
    gw = local_gateway(LocalScript({0: 3, 1: 7, 2: 6, 3: 7}))
    outcome = run_refinement_loop(SPREAD, draft_prompt(), make_cases(10), gw,
                                  bump_revision, max_iters=3)
    assert outcome.prompt.status == "failed"
    assert outcome.prompt.revision == 1  # 7/10 first reached at revision 1
    assert outcome.prompt.report.passes == max(r.passes for r in outcome.history)


def test_loop_immediate_pass_never_refines():
    refine_calls = {"n": 0}

    def refine(prompt, failures):
        refine_calls["n"] += 1
        return bump_revision(prompt, failures)

    gw = local_gateway(LocalScript(lambda rev: 10))
    outcome = run_refinement_loop(SPREAD, draft_prompt(), make_cases(10), gw,
                                  refine, max_iters=5)
    assert refine_calls["n"] == 0
    assert outcome.prompt.revision == 0
    assert outcome.prompt.status == "refined"
    assert outcome.prompt.report.verdict == "passed"
    assert len(outcome.history) == 1


def test_loop_honors_max_iters_one():
    gw = local_gateway(LocalScript(lambda rev: 0))
    outcome = run_refinement_loop(SPREAD, draft_prompt(), make_cases(10), gw,
                                  bump_revision, max_iters=1)
    assert len(outcome.history) == 2
    assert outcome.prompt.status == "failed"


def test_loop_passes_failures_with_reasoning_to_refiner():
    captured = {}

    def refine(prompt, failures):
        captured["failures"] = failures
        return bump_revision(prompt, failures)

    gw = local_gateway(LocalScript({0: 8 - 1, 1: 10}))  # 7/10 then perfect
    run_refinement_loop(SPREAD, draft_prompt(), make_cases(10), gw, refine)
    cases, runs = zip(*captured["failures"])
    assert len(cases) == 3
    assert all("revision 0" in run.reasoning for run in runs)


# --- several checks at once --------------------------------------------------------

def test_checks_get_reports_in_check_order_each_with_its_own_counts():
    gw = local_gateway(LocalScript({0: 6, 1: 4}))
    revised = PromptSpec.draft(OTHER.id, "extract the field. [[rev=0]]").with_revision(
        "extract the field. [[rev=1]]")
    reports = validate_prompt([(SPREAD, draft_prompt(), make_cases(10)),
                               (OTHER, revised, make_cases(5))], gw, width=2)
    assert [(r.subtask_id, r.revision, r.passes, r.total, r.verdict) for r in reports] == [
        ("distant_spread", 0, 6, 10, "refine"), ("other_spread", 1, 4, 5, "passed")]
    assert [[r.case_index for r in report.results] for report in reports] == [
        list(range(10)), list(range(5))]


def test_a_case_error_starts_no_case_of_another_check_and_no_rewrite():
    # width 2 keeps two lanes in flight. Every call waits at a two-party
    # barrier, so the two lanes in flight leave it together.
    barrier = threading.Barrier(2, timeout=10)
    lock = threading.Lock()
    started: list[tuple[str, int]] = []
    rewrites = []

    def script(request):
        kind = request.system_prompt.split()[0]
        with lock:
            started.append((kind, int(re.search(r"case (\d+)", request.user_content)[1])))
        barrier.wait()
        if kind == "raising":
            raise UnseenRequestError("no recorded response")
        return json.dumps({"reasoning": "wrong", "values": {"distant_metastasis": "absent"}})

    def refine(subtask, prompt, failures):
        rewrites.append(subtask.id)
        return bump_revision(prompt, failures)

    raising = PromptSpec.draft(SPREAD.id, "raising prompt [[rev=0]]")
    wrong = PromptSpec.draft(OTHER.id, "wrong prompt [[rev=0]]")
    gw = local_gateway(script)

    # Both lanes in flight are the first check's, and both raise, so each
    # thread records its failure before it could take a later lane: none of
    # the second check's cases starts.
    with pytest.raises(UnseenRequestError):
        run_refinement_loops([(SPREAD, raising, make_cases(2)),
                              (OTHER, wrong, make_cases(3))], gw, refine, width=2)
    assert sorted(started) == [("raising", 0), ("raising", 1)]

    # The first check's only case fails while the second's raises: its loop
    # would refine, but no rewrite starts after the error.
    started.clear()
    with pytest.raises(UnseenRequestError):
        run_refinement_loops([(OTHER, wrong, make_cases(1)),
                              (SPREAD, raising, make_cases(1))], gw, refine, width=2)
    assert sorted(started) == [("raising", 0), ("wrong", 0)]
    assert rewrites == []


def test_waves_refine_each_check_on_its_own_budget():
    # The spread check passes at revision 1, the other at revision 3; each
    # keeps its own history and only the failing checks are rewritten.
    spread_script, other_script = LocalScript({0: 0, 1: 9}), LocalScript({0: 0, 1: 0, 2: 0, 3: 9})
    gw = local_gateway(lambda request: (other_script if request.system_prompt.startswith("other")
                                        else spread_script)(request))
    rewrites = []

    def refine(subtask, prompt, failures):
        rewrites.append((subtask.id, prompt.revision))
        return bump_revision(prompt, failures)

    other = PromptSpec.draft(OTHER.id, "other field. [[rev=0]]")
    spread, late = run_refinement_loops(
        [(SPREAD, draft_prompt(), make_cases(10)), (OTHER, other, make_cases(10))],
        gw, refine, max_iters=5)
    assert [r.passes for r in spread.history] == [0, 9]
    assert [r.passes for r in late.history] == [0, 0, 0, 9]
    assert (spread.prompt.status, spread.prompt.revision) == ("refined", 1)
    assert (late.prompt.status, late.prompt.revision) == ("refined", 3)
    assert sorted(rewrites) == [("distant_spread", 0), ("other_spread", 0),
                                ("other_spread", 1), ("other_spread", 2)]
