"""Local-phase inference: run refined prompts over documents for T rounds,
each round a distinct seeded sample, majority-vote the per-round labels, and
synthesize outcomes through the rule program.

This module is the only place documents meet a model, and it refuses cloud
profiles outright: a gateway must be local-phase and must not be cloud_http,
no matter what the configuration says. Unparseable subtask output degrades
to all-unknown features instead of aborting, so every round still yields a
label through the rule program's unknown handling.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TypeVar

from .errors import ModelCallError, OutputParseError, PhaseViolationError
from .gateway import KIND_CLOUD_HTTP, PHASE_LOCAL, Gateway
from .jsonio import jsonl_line, read_jsonl
from .model import (
    Document,
    FeatureSet,
    OutcomeLabel,
    Plan,
    PromptSpec,
    Subtask,
    SubtaskRun,
)
from .parsing import format_block, parse_subtask_output
from .ruledsl import SynthesisLogic, evaluate

DEFAULT_ROUNDS = 5

T = TypeVar("T")
R = TypeVar("R")

_REPAIR_NOTE = (
    "Your previous reply could not be parsed against the output contract. "
    "Respond again with only the JSON object, exactly as specified below.")


def _require_local(gateway: Gateway) -> None:
    if gateway.profile.kind == KIND_CLOUD_HTTP:
        raise PhaseViolationError("document inference refuses cloud_http profiles")
    if gateway.phase != PHASE_LOCAL:
        raise PhaseViolationError("document inference requires a local-phase gateway")


@dataclass(frozen=True)
class RoundRecord:
    index: int
    runs: tuple[SubtaskRun, ...]
    features: FeatureSet
    label: OutcomeLabel


@dataclass(frozen=True)
class DocumentPrediction:
    document_id: str
    rounds: tuple[RoundRecord, ...]
    candidates: tuple[OutcomeLabel, ...]
    final: OutcomeLabel
    votes: dict[str, int]
    tie: bool


def majority_vote(labels: Sequence[OutcomeLabel]) -> OutcomeLabel:
    """Most frequent label; ties resolve to the highest ordinal (the more
    severe outcome, by the conservative tie rule)."""
    if not labels:
        raise ValueError("majority_vote: labels must be non-empty")
    counts = Counter(labels)
    best = max(counts.values())
    return max(lbl for lbl, n in counts.items() if n == best)


def run_subtask(gateway: Gateway, subtask: Subtask, prompt: PromptSpec,
                doc: Document, *, allow_failed: bool = False,
                seed: int | None = None) -> SubtaskRun:
    """Execute one refined prompt over one document, sending `seed` (an
    inference round's number; validation sends none) with every call.

    Parse failure gets one repair round-trip, with the same seed and the
    format contract restated; a second failure, or a failed model call,
    yields an all-unknown run marked unparseable rather than an exception.
    """
    _require_local(gateway)
    schema = subtask.output_schema
    if prompt.status == "draft" or (prompt.status == "failed" and not allow_failed):
        raise ValueError(
            f"run_subtask: prompt for {subtask.id!r} has status {prompt.status!r}")

    def attempt(system_prompt: str) -> tuple[str, FeatureSet]:
        response = gateway.chat(system_prompt, doc.body, response_schema=schema, seed=seed)
        return parse_subtask_output(schema, response.raw_text)

    try:
        reasoning, output = attempt(prompt.system_prompt)
        return SubtaskRun(subtask_id=subtask.id, document_id=doc.id,
                          reasoning=reasoning, output=output, parse_status="ok")
    except OutputParseError:
        pass
    except ModelCallError as exc:
        return SubtaskRun(subtask_id=subtask.id, document_id=doc.id,
                          reasoning=f"{exc.failure}: {exc}",
                          output=FeatureSet.all_unknown(schema),
                          parse_status="unparseable")
    repair_system = f"{prompt.system_prompt}\n\n{_REPAIR_NOTE}\n\n{format_block(schema)}"
    try:
        reasoning, output = attempt(repair_system)
        return SubtaskRun(subtask_id=subtask.id, document_id=doc.id,
                          reasoning=reasoning, output=output, parse_status="repaired")
    except OutputParseError as exc:
        reason = f"unparseable after repair: {exc}"
    except ModelCallError as exc:
        reason = f"{exc.failure} after repair: {exc}"
    return SubtaskRun(subtask_id=subtask.id, document_id=doc.id, reasoning=reason,
                      output=FeatureSet.all_unknown(schema), parse_status="unparseable")


def run_document(gateway: Gateway, plan: Plan, doc: Document, *,
                 rounds: int = DEFAULT_ROUNDS, allow_failed: bool = False) -> DocumentPrediction:
    """T inference rounds over one document, majority-voted: run_documents
    over a one-document corpus."""
    return run_documents(gateway, plan, [doc], rounds=rounds, allow_failed=allow_failed)[0]


def _predict(logic: SynthesisLogic, doc: Document,
             rounds: Sequence[tuple[SubtaskRun, ...]]) -> DocumentPrediction:
    """Entry r of `rounds` holds round r's runs, in subtask order. Plan validation
    rejects cross-subtask field collisions, so the merge is a disjoint union."""
    round_records: list[RoundRecord] = []
    for index, runs in enumerate(rounds, start=1):
        merged: dict[str, str] = {}
        for run in runs:
            merged.update(run.output.values)
        features = FeatureSet(merged)
        round_records.append(RoundRecord(index=index, runs=runs, features=features,
                                         label=evaluate(logic, features)))
    candidates = tuple(r.label for r in round_records)
    final = majority_vote(candidates)
    counts = Counter(candidates)
    best = max(counts.values())
    votes = {lbl.name: counts[lbl] for lbl in sorted(counts)}
    return DocumentPrediction(document_id=doc.id, rounds=tuple(round_records),
                              candidates=candidates, final=final, votes=votes,
                              tie=sum(1 for n in counts.values() if n == best) > 1)


def iter_lanes(fn: Callable[[T], R], items: Sequence[T], *, width: int) -> Iterator[R]:
    """`fn` over every item, up to `width` at once; yields lane i's result
    once lanes 0..i are done, and keeps no future it has yielded.

    Lanes start in input order. A lane that raises records its index before
    its thread takes another lane, and a lane after the first failed one
    returns without calling `fn`; lanes already running finish. The error
    of the first failed lane in input order is raised after the results
    before it have been yielded. Closing the iterator early stops every
    lane not yet started the same way.
    """
    stop_after = [len(items)]  # lanes after this index do not call fn
    lock = threading.Lock()

    def lane(index: int, item: T) -> R | None:
        if index > stop_after[0]:
            return None  # never read: the reader raises at a failed lane first
        try:
            return fn(item)
        except BaseException:
            with lock:
                stop_after[0] = min(stop_after[0], index)
            raise

    pool = ThreadPoolExecutor(max_workers=max(width, 1))  # width 0: no items
    try:
        futures = deque(pool.submit(lane, i, item) for i, item in enumerate(items))
        while futures:
            yield futures.popleft().result()
    finally:
        with lock:
            stop_after[0] = -1
        pool.shutdown(cancel_futures=True)


def run_lanes(fn: Callable[[T], R], items: Sequence[T], *, width: int) -> list[R]:
    """iter_lanes, collected: every result in input order, or the first
    failed lane's error."""
    return list(iter_lanes(fn, items, width=width))


def iter_documents(gateway: Gateway, plan: Plan, docs: Sequence[Document], *,
                   rounds: int = DEFAULT_ROUNDS, allow_failed: bool = False,
                   workers: int = 1) -> Iterator[DocumentPrediction]:
    """T inference rounds over every document, majority-voted; yields each
    document's prediction in input order once it and every earlier document
    are voted.

    The gateway, rounds and prompts are checked, and the rule program parsed,
    when this is called, before any lane starts. iter_lanes runs a lane per
    (document, round, subtask), `workers` documents in flight with all their
    subtasks' rounds at once. Round r sends seed r, so each round is a
    distinct request and its reply cannot land in another round; only
    documents with identical text repeat a request. A lane's error is raised
    as iter_lanes raises it, after the documents before its own.
    """
    _require_local(gateway)
    if rounds < 1:
        raise ValueError("iter_documents: rounds must be >= 1")
    logic = plan.parsed_logic()
    pairs = [(s, plan.prompt_for(s.id)) for s in plan.subtasks]
    for subtask, prompt in pairs:
        if prompt is None:
            raise ValueError(f"iter_documents: no prompt for subtask {subtask.id!r}")

    def lane(item: tuple[Document, int, Subtask, PromptSpec]) -> SubtaskRun:
        doc, seed, subtask, prompt = item
        return run_subtask(gateway, subtask, prompt, doc, allow_failed=allow_failed,
                           seed=seed)

    seeds = range(1, rounds + 1)
    lanes = iter_lanes(lane, [(doc, seed, subtask, prompt) for doc in docs
                              for seed in seeds for subtask, prompt in pairs],
                       width=workers * rounds * len(pairs))
    return (_predict(logic, doc, [tuple(next(lanes) for _ in pairs) for _ in seeds])
            for doc in docs)


def run_documents(gateway: Gateway, plan: Plan, docs: Sequence[Document], *,
                  rounds: int = DEFAULT_ROUNDS, allow_failed: bool = False,
                  workers: int = 1) -> list[DocumentPrediction]:
    """iter_documents, collected: every document's prediction in input order,
    held until the last document is voted. `infer` streams iter_documents
    instead; this list form serves callers that need every prediction at once."""
    return list(iter_documents(gateway, plan, docs, rounds=rounds,
                               allow_failed=allow_failed, workers=workers))


# ---------------------------------------------------------------------------
# Document ingestion and prediction output
# ---------------------------------------------------------------------------

def load_documents(path: str | Path) -> list[Document]:
    """Directory of *.txt files (id = stem) or a JSON-lines file with
    {"id", "body", "format_tag"} per line; a line repeating an earlier
    line's id raises ValueError naming the file, the line and the id."""
    p = Path(path)
    if p.is_dir():
        docs = [Document(id=f.stem, body=f.read_text(encoding="utf-8"))
                for f in sorted(p.glob("*.txt"))]
        if not docs:
            raise ValueError(f"no *.txt documents in {p}")
        return docs
    seen: set[str] = set()

    def document(record: dict) -> Document:
        doc = Document(id=str(record["id"]), body=record["body"],
                       format_tag=record.get("format_tag", "free_text"))
        if doc.id in seen:
            raise ValueError(f"duplicate document id {doc.id!r}")
        seen.add(doc.id)
        return doc

    docs = read_jsonl(p, document)
    if not docs:
        raise ValueError(f"no documents in {p}")
    return docs


def prediction_to_dict(pred: DocumentPrediction) -> dict:
    return {
        "document_id": pred.document_id,
        "final_label": pred.final.name,
        "final_ordinal": pred.final.ordinal,
        "tie": pred.tie,
        "votes": pred.votes,
        "candidates": [lbl.name for lbl in pred.candidates],
        "rounds": [{
            "round": r.index,
            "label": r.label.name,
            "features": dict(r.features.values),
            "runs": [{"subtask_id": run.subtask_id,
                      "parse_status": run.parse_status,
                      "reasoning": run.reasoning} for run in r.runs],
        } for r in pred.rounds],
    }


def write_predictions(preds: Iterable[DocumentPrediction], path: str | Path) -> None:
    """One JSON line per prediction, written and flushed as `preds` yields it,
    so the file is always a well-formed prefix of the full output. The file
    is created when the first prediction arrives (empty if there is none), so
    an error raised before it leaves no file and an existing one untouched."""
    lines = (jsonl_line(prediction_to_dict(pred)) for pred in preds)
    first = next(lines, "")
    with Path(path).open("w", encoding="utf-8") as fh:
        for line in chain((first,), lines):
            fh.write(line)
            fh.flush()


class Tally:
    """Running counts over the predictions `counted` passes through: all that
    `summarize` needs, so no prediction is kept for the summary."""

    def __init__(self) -> None:
        self.documents = 0
        self.finals: Counter[str] = Counter()
        self.ties = 0
        self.unparseable_runs = 0

    def counted(self, preds: Iterable[DocumentPrediction]) -> Iterator[DocumentPrediction]:
        for pred in preds:
            self.documents += 1
            self.finals[pred.final.name] += 1
            if pred.tie:
                self.ties += 1
            self.unparseable_runs += sum(1 for r in pred.rounds for run in r.runs
                                         if run.parse_status == "unparseable")
            yield pred


def summarize(tally: Tally, labels: Sequence[OutcomeLabel], *, rounds: int) -> dict:
    return {
        "documents": tally.documents,
        "rounds": rounds,
        "label_order": [lbl.name for lbl in labels],
        "final_label_histogram": {lbl.name: 0 for lbl in labels} | dict(tally.finals),
        "ties": tally.ties,
        "unparseable_runs": tally.unparseable_runs,
    }
