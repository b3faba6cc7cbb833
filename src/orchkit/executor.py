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
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, islice
from pathlib import Path
from queue import SimpleQueue
from typing import TypeVar

from .config import DEFAULT_ROUNDS, DEFAULT_WORKERS, KIND_CLOUD_HTTP, PHASE_LOCAL, setting_problem
from .errors import ModelCallError, OutputParseError, PhaseViolationError
from .gateway import Gateway
from .jsonio import jsonl_line, read_jsonl, read_text, record_id
from .model import (
    Document,
    FeatureSet,
    OutcomeLabel,
    Plan,
    PromptSpec,
    Record,
    Subtask,
    SubtaskRun,
)
from .parsing import format_block, parse_subtask_output
from .ruledsl import SynthesisLogic, evaluate

T = TypeVar("T")
R = TypeVar("R")

DOCUMENT_FILES = "*.txt"  # the files of a document directory that load_documents reads

_REPAIR_NOTE = (
    "Your previous reply could not be parsed against the output contract. "
    "Respond again with only the JSON object, exactly as specified below.")


def _require_local(gateway: Gateway) -> None:
    if gateway.profile.kind == KIND_CLOUD_HTTP:
        raise PhaseViolationError("document inference refuses cloud_http profiles")
    if gateway.phase != PHASE_LOCAL:
        raise PhaseViolationError("document inference requires a local-phase gateway")


class RoundRecord(Record):
    index: int
    runs: tuple[SubtaskRun, ...]
    features: FeatureSet
    label: OutcomeLabel


class DocumentPrediction(Record):
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


def extract(gateway: Gateway, subtask: Subtask, prompt: PromptSpec, source_id: str,
            text: str, *, seed: int | None = None) -> SubtaskRun:
    """Run one prompt over `text`, a document's body or a synthetic case's
    input, recording the run under `source_id`. Every call sends `seed`:
    infer's round r sends r and validation's repeat k sends k, so repeat k
    is round k's sample. The prompt's status is not read here: a bundle
    holds only the statuses pack accepts (bundle.unpack).

    Parse failure gets one repair round-trip, with the same seed and the
    format contract restated; a second failure, or a failed model call,
    yields an all-unknown run marked unparseable, its reason as reasoning.
    """
    _require_local(gateway)
    schema = subtask.output_schema

    def attempt(system_prompt: str, status: str) -> SubtaskRun:
        response = gateway.chat(system_prompt, text, response_schema=schema, seed=seed)
        reasoning, output = parse_subtask_output(schema, response.raw_text)
        return SubtaskRun(subtask.id, source_id, reasoning, output, status)

    def unparseable(reason: str) -> SubtaskRun:
        return SubtaskRun(subtask.id, source_id, reason, FeatureSet.all_unknown(schema),
                          "unparseable")

    try:
        return attempt(prompt.system_prompt, "ok")
    except OutputParseError:
        pass
    except ModelCallError as exc:
        return unparseable(f"{exc.failure}: {exc}")
    try:
        return attempt(f"{prompt.system_prompt}\n\n{_REPAIR_NOTE}\n\n{format_block(schema)}",
                       "repaired")
    except OutputParseError as exc:
        return unparseable(f"unparseable after repair: {exc}")
    except ModelCallError as exc:
        return unparseable(f"{exc.failure} after repair: {exc}")


def run_subtask(gateway: Gateway, subtask: Subtask, prompt: PromptSpec,
                doc: Document, *, seed: int | None = None) -> SubtaskRun:
    """extract over one document's body, recorded under its id."""
    return extract(gateway, subtask, prompt, doc.id, doc.body, seed=seed)


def run_document(gateway: Gateway, plan: Plan, doc: Document, *,
                 rounds: int = DEFAULT_ROUNDS) -> DocumentPrediction:
    """T inference rounds over one document, majority-voted: run_documents
    over a one-document corpus."""
    return run_documents(gateway, plan, [doc], rounds=rounds)[0]


def _predict(logic: SynthesisLogic, runs: tuple[SubtaskRun, ...],
             subtasks: int) -> DocumentPrediction:
    """A document's prediction from its runs, recorded under its id: round by
    round, `subtasks` runs a round in subtask order. A Plan refuses a field
    declared by two subtasks, so each round's merge is a disjoint union."""
    round_records: list[RoundRecord] = []
    for index, start in enumerate(range(0, len(runs), subtasks), start=1):
        round_runs = runs[start:start + subtasks]
        features = FeatureSet({k: v for run in round_runs for k, v in run.output.values.items()})
        round_records.append(RoundRecord(index=index, runs=round_runs, features=features,
                                         label=evaluate(logic, features)))
    candidates = tuple(r.label for r in round_records)
    final = majority_vote(candidates)
    counts = Counter(candidates)
    best = max(counts.values())
    votes = {lbl.name: counts[lbl] for lbl in sorted(counts)}
    return DocumentPrediction(document_id=runs[0].document_id, rounds=tuple(round_records),
                              candidates=candidates, final=final, votes=votes,
                              tie=sum(1 for n in counts.values() if n == best) > 1)


def iter_lanes(fn: Callable[[T], R], items: Iterable[T], *, width: int) -> Iterator[R]:
    """`fn` over every item, at most `width` lanes running at once; yields
    lane i's result once lanes 0..i are done.

    Lanes are handed to at most `width` threads, each started only when a
    lane finds no idle one, that pull lanes from one queue and report each
    finished lane on another. `items` is read lazily, a lane handed over
    only while fewer than `width` run, so none waits for a thread; a thread
    freed while an earlier lane stalls takes the next one, and only results
    wait behind the stall. After a lane raises none is handed over; running
    lanes finish, and the first failed lane's error in input order is raised
    after the results before it. Closing the iterator early also hands over
    nothing more. However the iterator ends, every thread is stopped and
    joined before it does.
    """
    limit = max(width, 1)  # width 0 comes with no items
    pending = iter(items)
    lanes: SimpleQueue = SimpleQueue()  # (index, item), or None to stop a thread
    finished: SimpleQueue = SimpleQueue()  # (index, error, result), in finishing order

    def pull() -> None:
        while (lane := lanes.get()) is not None:
            index, item = lane
            try:
                finished.put((index, None, fn(item)))
            except BaseException as exc:  # raised by the consumer, in input order
                finished.put((index, exc, None))

    threads: list[threading.Thread] = []
    done: dict[int, tuple] = {}  # index -> (error, result): finished, not yielded
    started = yielded = running = 0
    failed = False
    try:
        while True:
            for item in islice(pending, 0 if failed else limit - running):
                if running == len(threads):  # every thread is busy
                    threads.append(threading.Thread(target=pull, daemon=True))
                    threads[-1].start()
                lanes.put((started, item))
                started += 1
                running += 1
            if yielded in done:
                error, result = done.pop(yielded)
                if error is not None:
                    raise error
                yielded += 1
                yield result
                continue
            if yielded == started:
                return
            # Completions arrive in the order lanes finished, so a lane seen
            # done is seen with every error raised before it finished.
            index, error, result = finished.get()
            running -= 1
            failed = failed or error is not None
            done[index] = error, result
    finally:
        for _ in threads:
            lanes.put(None)
        for thread in threads:
            thread.join()


def iter_documents(gateway: Gateway, plan: Plan, docs: Iterable[Document], *,
                   rounds: int = DEFAULT_ROUNDS,
                   workers: int = DEFAULT_WORKERS) -> Iterator[DocumentPrediction]:
    """T inference rounds over every document, majority-voted; yields each
    document's prediction in input order once it and every earlier document
    are voted.

    The gateway and rounds are checked before any lane starts; the rule
    program is the one the plan parsed when it was built. `docs` is walked
    once, by iter_lanes, which takes a lane per (document, round, subtask)
    only as a slot frees, at most workers x rounds x subtasks running: a
    document is read when its first lane can start, nothing the size of the
    corpus is built, and only results wait behind a stalled document. Each
    prediction is built from the next rounds x subtasks results, its
    document's own. Round r sends seed r, so a round's reply cannot land in
    another round, and only identical documents repeat a request. A lane's
    error is raised after the documents before it.
    Prompts run whatever their status: only a bundle's reader gates it.
    """
    _require_local(gateway)
    if problem := setting_problem("rounds", rounds):
        raise ValueError(f"iter_documents: rounds {problem}, got {rounds!r}")
    logic = plan.parsed_logic()
    pairs = [(s, plan.prompt_for(s.id)) for s in plan.subtasks]

    def lane(item: tuple[Document, int, Subtask, PromptSpec]) -> SubtaskRun:
        doc, seed, subtask, prompt = item
        return run_subtask(gateway, subtask, prompt, doc, seed=seed)

    lanes = iter_lanes(lane, ((doc, seed, subtask, prompt) for doc in docs
                              for seed in range(1, rounds + 1) for subtask, prompt in pairs),
                       width=workers * rounds * len(pairs))
    return (_predict(logic, runs, len(pairs))
            for runs in iter(lambda: tuple(islice(lanes, rounds * len(pairs))), ()))


def run_documents(gateway: Gateway, plan: Plan, docs: Iterable[Document], *,
                  rounds: int = DEFAULT_ROUNDS,
                  workers: int = DEFAULT_WORKERS) -> list[DocumentPrediction]:
    """iter_documents, collected: every document's prediction in input order,
    held until the last document is voted. `infer` streams iter_documents
    instead; this list form serves callers that need every prediction at once."""
    return list(iter_documents(gateway, plan, docs, rounds=rounds, workers=workers))


# ---------------------------------------------------------------------------
# Document ingestion and prediction output
# ---------------------------------------------------------------------------

def load_documents(path: str | Path) -> list[Document]:
    """Directory of DOCUMENT_FILES (id = stem) or a JSON-lines file with
    {"id", "body", "format_tag"} per line. A document that is not valid
    raises ValueError naming its file, and a line its line; a line repeating
    an earlier line's id names the id too."""
    p = Path(path)
    if p.is_dir():
        docs = [read_text(f, lambda body: Document(id=f.stem, body=body))
                for f in sorted(p.glob(DOCUMENT_FILES))]
        if not docs:
            raise ValueError(f"no {DOCUMENT_FILES} documents in {p}")
        return docs
    seen: set[str] = set()

    def document(record: dict) -> Document:
        doc = Document(id=record_id(record["id"]), body=record["body"],
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
