"""Executor: subtask runs, document rounds, majority voting, document IO."""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
import threading
import time
from collections import Counter

import pytest

from orchkit.errors import PhaseViolationError, TransportError, UnseenRequestError
from orchkit.executor import (
    Tally,
    iter_documents,
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
    KIND_CLOUD_HTTP,
    PHASE_CLOUD,
    PHASE_LOCAL,
    BackendProfile,
    Gateway,
    ScriptedBackend,
)
from orchkit.model import Document, PromptSpec, make_labels
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


def test_run_subtask_sends_its_seed_on_the_repair_too():
    plan = refined_plan()
    spread = plan.subtasks[0]
    seeds = []

    def flaky(request):
        seeds.append(request.seed)
        return "prose" if len(seeds) == 1 else fake_local_extractor(request)

    run = run_subtask(local_gateway(flaky), spread, plan.prompt_for(spread.id),
                      Document("d9", "text mets=absent"), seed=3)
    assert run.parse_status == "repaired"
    assert seeds == [3, 3]


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
    """Reading a bundle is what refuses a draft or failed prompt (see
    test_unpack_refuses_the_prompt_statuses_pack_refuses and
    test_infer_refuses_a_bundle_whose_prompt_status_pack_refuses_exit_6);
    run_subtask runs the prompt it is given, with no flag."""
    spread = refined_plan().subtasks[0]
    failed = PromptSpec(spread.id, "Distant spread, best effort", revision=1,
                        status="failed")
    run = run_subtask(local_gateway(fake_local_extractor), spread, failed,
                      Document("d9", "text mets=absent"))
    assert run.parse_status == "ok"
    assert run.output.values == {"distant_metastasis": "absent"}


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
        profile = BackendProfile(KIND_CLOUD_HTTP, "https://elsewhere", "m")
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

    def wobbling(request):
        if "Distant spread" in request.system_prompt:
            value = "present" if request.seed in (1, 4) else "absent"
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

    def alternating(request):
        if "Distant spread" in request.system_prompt:
            value = "present" if request.seed % 2 else "absent"
            return json.dumps({"reasoning": "alt",
                               "values": {"distant_metastasis": value}})
        return fake_local_extractor(request)

    gw = local_gateway(alternating)
    pred = run_document(gw, plan, fixture_documents()[3], rounds=4)
    assert pred.tie is True
    assert pred.final.name == "Metastatic"  # tie resolves to the higher stage
    tally = Tally()
    assert list(tally.counted([pred])) == [pred]
    assert summarize(tally, plan.labels, rounds=4)["ties"] == 1


class RoundWobble:
    """Flips distant_metastasis in the requests seeded 2 and 4, so the output
    bytes depend on each round's reply landing in its own round."""

    def __call__(self, request):
        reply = fake_local_extractor(request)
        if "Distant spread" in request.system_prompt and request.seed in (2, 4):
            value = json.loads(reply)["values"]["distant_metastasis"]
            flipped = "absent" if value == "present" else "present"
            reply = json.dumps({"reasoning": f"wobble {request.seed}",
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
            preds = run_documents(local_gateway(RoundWobble()), plan,
                                  fixture_documents(), rounds=5, workers=workers)
            assert started["threads"] <= workers * len(plan.subtasks) * 5
            assert tuple(p.final.name for p in preds) == FIXTURE_DOC_LABELS
            assert [run.reasoning.startswith("wobble") for r in preds[0].rounds
                    for run in r.runs if run.subtask_id == "distant_spread"] == [
                False, True, False, True, False]
            out = tmp_path / f"preds-{workers}.jsonl"
            write_predictions(preds, out)
            outputs.add(out.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert len(outputs) == 1


class WalkedOnce:
    """Documents that may be walked once: a second walk, or an index, raises.
    `read` counts the documents handed out so far."""

    def __init__(self, docs):
        self.docs = docs
        self.walked = False
        self.read = 0

    def __iter__(self):
        if self.walked:
            raise AssertionError("the documents were walked twice")
        self.walked = True
        for doc in self.docs:
            self.read += 1
            yield doc


@pytest.mark.parametrize("workers", [1, 3])
def test_documents_from_an_iterator_predict_as_the_list_does(workers):
    plan = refined_plan()
    docs = fixture_documents()
    expected = [prediction_to_dict(p) for p in run_documents(
        local_gateway(RoundWobble()), plan, docs, rounds=3, workers=workers)]
    assert [p["document_id"] for p in expected] == ["d1", "d2", "d3", "d4", "d5"]
    for source in (iter(docs), (doc for doc in docs), WalkedOnce(docs)):
        preds = iter_documents(local_gateway(RoundWobble()), plan, source, rounds=3,
                               workers=workers)
        assert [prediction_to_dict(p) for p in preds] == expected
    preds = run_documents(local_gateway(RoundWobble()), plan, WalkedOnce(docs), rounds=3,
                          workers=workers)
    assert [prediction_to_dict(p) for p in preds] == expected


def test_a_document_is_read_when_a_lane_for_it_can_start():
    # workers 1: one document's rounds x subtasks lanes run at once, so when
    # the first prediction arrives at most the next document has been read.
    docs = WalkedOnce(fixture_documents())
    preds = iter_documents(local_gateway(fake_local_extractor), refined_plan(), docs,
                           rounds=2, workers=1)
    assert docs.read == 0
    assert next(preds).document_id == "d1"
    assert docs.read <= 2
    assert [p.document_id for p in preds] == ["d2", "d3", "d4", "d5"]
    assert docs.read == 5


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
    # Twenty lanes (2 documents x 2 subtasks x 5 rounds) start at once; the
    # ten freed by d1's failures can take only d3's ten before the rest are
    # cancelled.
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


def test_load_documents_names_the_file_of_an_empty_document(tmp_path):
    (tmp_path / "a.txt").write_text("first body", encoding="utf-8")
    (tmp_path / "b.txt").write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / 'b.txt'}: Document.body: must be non-empty")):
        load_documents(tmp_path)


def test_load_documents_from_jsonl(tmp_path):
    path = tmp_path / "docs.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for doc in fixture_documents():
            fh.write(json.dumps({"id": doc.id, "body": doc.body,
                                 "format_tag": doc.format_tag}) + "\n")
    docs = load_documents(path)
    assert len(docs) == 5
    assert docs[4].format_tag == "structured"


@pytest.mark.parametrize("bad_id", [["d1"], True, 1.5, None, {"id": "d1"}],
                         ids=["list", "bool", "float", "null", "object"])
def test_load_documents_takes_string_and_integer_ids_only(tmp_path, bad_id):
    path = tmp_path / "docs.jsonl"
    path.write_text(json.dumps({"id": 7, "body": "seven"}) + "\n"
                    + json.dumps({"id": bad_id, "body": "bad"}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}:2: id must be a string or an integer")):
        load_documents(path)
    path.write_text(json.dumps({"id": 7, "body": "seven"}) + "\n", encoding="utf-8")
    assert [d.id for d in load_documents(path)] == ["7"]


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
