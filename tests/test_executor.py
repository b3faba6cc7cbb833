"""Executor: subtask runs, document rounds, majority voting, document IO."""

from __future__ import annotations

import itertools
import json
import random
import sys
import threading
import time
from collections import Counter

import pytest

from orchkit.errors import PhaseViolationError, TransportError, UnseenRequestError
from orchkit.executor import (
    Tally,
    load_documents,
    majority_vote,
    prediction_to_dict,
    run_document,
    run_documents,
    run_subtask,
    summarize,
    write_predictions,
)
from orchkit.gateway import (
    PHASE_CLOUD,
    PHASE_LOCAL,
    BackendProfile,
    Gateway,
    RetryPolicy,
    ScriptedBackend,
)
from orchkit.model import Document, make_labels
from orchkit.parsing import format_block

from conftest import (
    FIXTURE_DOC_LABELS,
    fake_local_extractor,
    fixture_documents,
    refined_plan,
)

LABELS4 = make_labels(("one", "two", "three", "four"))


def local_gateway(handler) -> Gateway:
    return Gateway(BackendProfile.scripted(ScriptedBackend(handler)), PHASE_LOCAL,
                   retry=RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0),
                   sleep=lambda _s: None)


# --- majority vote ---------------------------------------------------------------

def brute_vote(labels):
    """Independent oracle: count, then walk candidates preferring higher ordinal."""
    counts = Counter(labels)
    top = max(counts.values())
    winner = None
    for lbl in labels:
        if counts[lbl] == top and (winner is None or lbl.ordinal > winner.ordinal):
            winner = lbl
    return winner


@pytest.mark.parametrize("ordinals,expected", [
    ([3, 3, 3, 3, 3], 3),   # unanimity
    ([0, 1, 2, 3, 1], 1),   # plurality
    ([1, 1, 2, 1, 2], 1),   # strict majority
    ([0, 0, 3, 3, 2], 3),   # two-way tie resolves to the higher stage
    ([0, 1, 2], 2),         # k-way tie generalizes to the maximum ordinal
])
def test_majority_vote_examples(ordinals, expected):
    labels = [LABELS4[i] for i in ordinals]
    assert majority_vote(labels).ordinal == expected
    assert brute_vote(labels).ordinal == expected  # oracle concurs


def test_majority_vote_matches_oracle_exhaustively():
    for combo in itertools.product(range(4), repeat=5):
        labels = [LABELS4[i] for i in combo]
        assert majority_vote(labels) == brute_vote(labels), combo


def test_majority_vote_permutation_invariant():
    rng = random.Random(11)
    for _ in range(200):
        labels = [LABELS4[rng.randrange(4)] for _ in range(rng.randint(1, 7))]
        shuffled = labels[:]
        rng.shuffle(shuffled)
        assert majority_vote(labels) == majority_vote(shuffled)


def test_majority_vote_rejects_empty():
    with pytest.raises(ValueError):
        majority_vote([])


# --- run_subtask -------------------------------------------------------------------

def test_run_subtask_happy_path():
    plan = refined_plan()
    spread = plan.subtasks[0]
    gw = local_gateway(fake_local_extractor)
    run = run_subtask(gw, spread, plan.prompt_for(spread.id),
                      Document("d9", "story. mets=present"))
    assert run.parse_status == "ok"
    assert run.output.get("distant_metastasis") == "present"
    assert run.document_id == "d9"


def test_run_subtask_repair_round_trip():
    plan = refined_plan()
    spread = plan.subtasks[0]

    def flaky(request):
        if "could not be parsed" in request.system_prompt:
            return fake_local_extractor(request)
        return "narrative nonsense, no json"

    gw = local_gateway(flaky)
    run = run_subtask(gw, spread, plan.prompt_for(spread.id),
                      Document("d9", "text mets=absent"))
    assert run.parse_status == "repaired"
    assert run.output.get("distant_metastasis") == "absent"


def test_run_subtask_repair_includes_format_contract():
    plan = refined_plan()
    spread = plan.subtasks[0]
    seen = []

    def flaky(request):
        seen.append(request.system_prompt)
        if len(seen) == 1:
            return "prose"
        return fake_local_extractor(request)

    run_subtask(local_gateway(flaky), spread, plan.prompt_for(spread.id),
                Document("d9", "text mets=absent"))
    assert format_block(spread.output_schema) in seen[1]


def test_run_subtask_unparseable_twice_degrades_to_unknown():
    plan = refined_plan()
    spread = plan.subtasks[0]
    gw = local_gateway(lambda request: "still prose")
    run = run_subtask(gw, spread, plan.prompt_for(spread.id), Document("d9", "text"))
    assert run.parse_status == "unparseable"
    assert run.output.get("distant_metastasis") == "unknown"


def test_run_subtask_failed_repair_call_names_its_class():
    plan = refined_plan()
    spread = plan.subtasks[0]

    def empty_repair(request):
        return "   " if "could not be parsed" in request.system_prompt else "prose"

    run = run_subtask(local_gateway(empty_repair), spread, plan.prompt_for(spread.id),
                      Document("d9", "text"))
    assert run.parse_status == "unparseable"
    assert run.reasoning == "empty reply after repair: backend returned an empty completion"
    assert run.output.get("distant_metastasis") == "unknown"


def test_run_subtask_transport_failure_degrades():
    plan = refined_plan()
    spread = plan.subtasks[0]

    def broken(request):
        raise TransportError("cable chewed")

    gw = local_gateway(broken)
    run = run_subtask(gw, spread, plan.prompt_for(spread.id), Document("d9", "text"))
    assert run.parse_status == "unparseable"
    assert "transport" in run.reasoning


def test_run_subtask_requires_usable_prompt_status():
    plan = refined_plan()
    spread = plan.subtasks[0]
    gw = local_gateway(fake_local_extractor)
    draft = plan.prompt_for(spread.id)
    from orchkit.model import PromptSpec
    with pytest.raises(ValueError, match="draft"):
        run_subtask(gw, spread, PromptSpec.draft(spread.id, "p"),
                    Document("d9", "text"))
    failed = PromptSpec(spread.id, "Distant spread, best effort", revision=1,
                        status="failed")
    with pytest.raises(ValueError, match="failed"):
        run_subtask(gw, spread, failed, Document("d9", "text"))
    assert run_subtask(gw, spread, failed, Document("d9", "text mets=absent"),
                       allow_failed=True).parse_status == "ok"


# --- privacy boundary ----------------------------------------------------------------

def test_executor_refuses_cloud_phase_gateway():
    plan = refined_plan()
    spread = plan.subtasks[0]
    cloud_gw = Gateway(BackendProfile.scripted(ScriptedBackend(fake_local_extractor)),
                       PHASE_CLOUD, sleep=lambda _s: None)
    with pytest.raises(PhaseViolationError):
        run_subtask(cloud_gw, spread, plan.prompt_for(spread.id), Document("d", "t"))
    with pytest.raises(PhaseViolationError):
        run_document(cloud_gw, plan, Document("d", "t"))


def test_executor_refuses_cloud_http_profile_regardless_of_phase():
    class Impostor:
        profile = BackendProfile.cloud("https://elsewhere", "m")
        phase = PHASE_LOCAL

    plan = refined_plan()
    with pytest.raises(PhaseViolationError, match="cloud_http"):
        run_subtask(Impostor(), plan.subtasks[0],
                    plan.prompt_for("distant_spread"), Document("d", "t"))
    with pytest.raises(PhaseViolationError, match="cloud_http"):
        run_document(Impostor(), plan, Document("d", "t"))


# --- run_document -----------------------------------------------------------------------

def test_run_document_deterministic_backend_unanimous():
    plan = refined_plan()
    gw = local_gateway(fake_local_extractor)
    pred = run_document(gw, plan, fixture_documents()[0], rounds=5)
    assert pred.final.name == "Metastatic"
    assert len(pred.rounds) == 5
    assert all(r.label.name == "Metastatic" for r in pred.rounds)
    assert pred.tie is False
    assert pred.votes == {"Metastatic": 5}
    merged = pred.rounds[0].features
    assert set(merged.values) == {"distant_metastasis", "smv_contact", "celiac_contact"}


def test_run_document_votes_across_varying_rounds():
    plan = refined_plan()
    flips = {"n": 0}

    def wobbling(request):
        if "Distant spread" in request.system_prompt:
            flips["n"] += 1
            value = "present" if flips["n"] in (1, 4) else "absent"
            return json.dumps({"reasoning": "wobble",
                               "values": {"distant_metastasis": value}})
        return fake_local_extractor(request)

    gw = local_gateway(wobbling)
    pred = run_document(gw, plan, fixture_documents()[3], rounds=5)
    # Rounds 1 and 4 say Metastatic, rounds 2, 3, 5 say Resectable.
    assert [r.label.name for r in pred.rounds] == \
        ["Metastatic", "Resectable", "Resectable", "Metastatic", "Resectable"]
    assert pred.final.name == "Resectable"
    assert pred.votes == {"Resectable": 3, "Metastatic": 2}
    assert pred.tie is False


def test_run_document_tie_flag_and_upward_resolution():
    plan = refined_plan()
    flips = {"n": 0}

    def alternating(request):
        if "Distant spread" in request.system_prompt:
            flips["n"] += 1
            value = "present" if flips["n"] % 2 else "absent"
            return json.dumps({"reasoning": "alt",
                               "values": {"distant_metastasis": value}})
        return fake_local_extractor(request)

    gw = local_gateway(alternating)
    pred = run_document(gw, plan, fixture_documents()[3], rounds=4)
    assert pred.tie is True
    assert pred.final.name == "Metastatic"  # tie resolves to the higher stage


class OccurrenceWobble:
    """Flips distant_metastasis on the 2nd and 4th time the same request is
    seen, like a sequence-keyed scripted session, so the output bytes depend
    on each (document, subtask) seeing its rounds in order."""

    def __init__(self):
        self.seen: Counter = Counter()
        self.lock = threading.Lock()

    def __call__(self, request):
        with self.lock:
            self.seen[request.system_prompt, request.user_content] += 1
            n = self.seen[request.system_prompt, request.user_content]
        reply = fake_local_extractor(request)
        if "Distant spread" in request.system_prompt and n in (2, 4):
            value = json.loads(reply)["values"]["distant_metastasis"]
            flipped = "absent" if value == "present" else "present"
            reply = json.dumps({"reasoning": f"wobble {n}",
                                "values": {"distant_metastasis": flipped}})
        return reply


def test_run_documents_order_and_labels(tmp_path, monkeypatch):
    plan = refined_plan()
    gw = local_gateway(fake_local_extractor)
    preds = run_documents(gw, plan, fixture_documents(), rounds=2)
    assert [p.document_id for p in preds] == ["d1", "d2", "d3", "d4", "d5"]
    assert tuple(p.final.name for p in preds) == FIXTURE_DOC_LABELS

    started = Counter()
    original_start = threading.Thread.start

    def counting_start(thread):
        started["threads"] += 1
        return original_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    outputs = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave threads as often as possible
    try:
        for workers in (1, 2, 3, 8, 16):
            started.clear()
            preds = run_documents(local_gateway(OccurrenceWobble()), plan,
                                  fixture_documents(), rounds=5, workers=workers)
            assert started["threads"] <= workers * len(plan.subtasks)
            assert tuple(p.final.name for p in preds) == FIXTURE_DOC_LABELS
            out = tmp_path / f"preds-{workers}.jsonl"
            write_predictions(preds, out)
            outputs.add(out.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert len(outputs) == 1


def test_run_documents_raises_lane_error_and_cancels_unstarted_lanes():
    plan = refined_plan()
    docs = fixture_documents()
    seen = set()

    def first_document_unseen(request):
        doc = next(d.id for d in docs if d.body == request.user_content)
        seen.add(doc)
        if doc == "d1":
            raise UnseenRequestError("no recorded response")
        time.sleep(0.05)  # keep started lanes busy while the error is handled
        return fake_local_extractor(request)

    gw = local_gateway(first_document_unseen)
    with pytest.raises(UnseenRequestError):
        run_documents(gw, plan, docs, rounds=5, workers=2)
    # Four lanes start at once; the two freed by d1's failure take d3.
    assert seen <= {"d1", "d2", "d3"}


def test_unparseable_round_still_votes():
    plan = refined_plan()

    def half_broken(request):
        if "Distant spread" in request.system_prompt:
            return "never json"
        return fake_local_extractor(request)

    gw = local_gateway(half_broken)
    pred = run_document(gw, plan, fixture_documents()[1], rounds=3)
    # Distant spread degrades to unknown; vessel logic still stages the case.
    assert pred.final.name == "Locally Advanced"
    assert all(any(run.parse_status == "unparseable" for run in r.runs)
               for r in pred.rounds)


# --- document IO -----------------------------------------------------------------------

def test_load_documents_from_directory(tmp_path):
    (tmp_path / "b.txt").write_text("second body", encoding="utf-8")
    (tmp_path / "a.txt").write_text("first body", encoding="utf-8")
    docs = load_documents(tmp_path)
    assert [d.id for d in docs] == ["a", "b"]
    with pytest.raises(ValueError, match="no \\*.txt"):
        load_documents(tmp_path / "empty" if (tmp_path / "empty").mkdir() is None
                       else tmp_path / "empty")


def test_load_documents_from_jsonl(tmp_path):
    path = tmp_path / "docs.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for doc in fixture_documents():
            fh.write(json.dumps({"id": doc.id, "body": doc.body,
                                 "format_tag": doc.format_tag}) + "\n")
    docs = load_documents(path)
    assert len(docs) == 5
    assert docs[4].format_tag == "structured"


def test_write_predictions_and_summary(tmp_path):
    plan = refined_plan()
    gw = local_gateway(fake_local_extractor)
    preds = run_documents(gw, plan, fixture_documents(), rounds=2)
    out = tmp_path / "preds.jsonl"
    tally = Tally()
    write_predictions(tally.counted(preds), out)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 5
    assert lines[0]["final_label"] == "Metastatic"
    assert lines[0]["rounds"][0]["runs"][0]["subtask_id"] == "distant_spread"
    summary = summarize(tally, plan.labels, rounds=2)
    assert summary["documents"] == 5
    assert summary["final_label_histogram"]["Locally Advanced"] == 2
    assert summary["label_order"][0] == "Resectable"
    roundtrip = prediction_to_dict(preds[0])
    assert roundtrip["votes"] == {"Metastatic": 2}
