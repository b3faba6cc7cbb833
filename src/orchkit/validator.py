"""Prompt validation against synthetic test sets, and the refinement loop.

A prompt revision is scored by running every synthetic case on the local
channel, `repeats` times in a row (once by default), and comparing the
parsed extraction field-by-field after normalization (trim, case-fold,
declared aliases). Cases run as lanes of executor.run_lanes, `width` at
once, and the report lists them in case order. The CLI sets `width` to
workers x rounds, so each subtask's validation has as many local calls in
flight as `infer` gives a subtask, and never more. The loop refines while
the pass rate is strictly below the threshold — the comparison is exact
rational arithmetic, so 8/10 against 0.80 passes — and stops after at most
max_iters refinements, returning the best revision seen with status failed
when the budget runs out.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelCallError, OutputParseError
from .executor import run_lanes
from .gateway import Gateway
from .model import FeatureSet, PromptSpec, Subtask, SubtaskRun, SyntheticCase
from .parsing import parse_subtask_output

DEFAULT_THRESHOLD = 0.80
DEFAULT_MAX_ITERS = 5

VALIDATION_DOC_ID = "synthetic-validation"


def _as_fraction(threshold: float | str | Fraction) -> Fraction:
    # str() first so 0.8 means the decimal 8/10, not its binary float.
    return threshold if isinstance(threshold, Fraction) else Fraction(str(threshold))


@dataclass(frozen=True)
class CaseResult:
    case_index: int
    case: SyntheticCase
    run: SubtaskRun
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class ValidationReport:
    subtask_id: str
    revision: int
    results: tuple[CaseResult, ...]
    passes: int
    total: int
    verdict: str  # passed | refine

    @property
    def pass_rate(self) -> float:
        return self.passes / self.total if self.total else 0.0

    def exact_rate(self) -> Fraction:
        return Fraction(self.passes, self.total) if self.total else Fraction(0)

    def failures(self) -> list[tuple[SyntheticCase, SubtaskRun]]:
        return [(r.case, r.run) for r in self.results if not r.passed]


def _run_case(gateway: Gateway, prompt: PromptSpec, subtask: Subtask,
              index: int, case: SyntheticCase) -> CaseResult:
    schema = subtask.output_schema
    try:
        response = gateway.chat(prompt.system_prompt, case.input_text,
                                response_schema=schema)
    except ModelCallError as exc:
        run = SubtaskRun(subtask_id=subtask.id, document_id=VALIDATION_DOC_ID,
                         reasoning="", output=FeatureSet.all_unknown(schema),
                         parse_status="unparseable")
        return CaseResult(index, case, run, passed=False, reason=f"{exc.failure}: {exc}")
    try:
        reasoning, predicted = parse_subtask_output(schema, response.raw_text)
    except OutputParseError as exc:
        run = SubtaskRun(subtask_id=subtask.id, document_id=VALIDATION_DOC_ID,
                         reasoning=response.raw_text[:500],
                         output=FeatureSet.all_unknown(schema),
                         parse_status="unparseable")
        return CaseResult(index, case, run, passed=False, reason=f"unparseable: {exc}")
    run = SubtaskRun(subtask_id=subtask.id, document_id=VALIDATION_DOC_ID,
                     reasoning=reasoning, output=predicted, parse_status="ok")
    mismatches = [
        f"{name}: expected {case.expected.get(name)!r}, got {predicted.get(name)!r}"
        for name in schema.field_names()
        if case.expected.get(name) != predicted.get(name)
    ]
    if mismatches:
        return CaseResult(index, case, run, passed=False, reason="; ".join(mismatches))
    return CaseResult(index, case, run, passed=True)


def validate_prompt(prompt: PromptSpec, cases: Sequence[SyntheticCase],
                    gateway: Gateway, *, subtask: Subtask,
                    threshold: float | Fraction = DEFAULT_THRESHOLD,
                    repeats: int = 1, width: int = 1) -> ValidationReport:
    """Score one prompt revision over its synthetic set, `width` cases at
    a time.

    A failed model call (ModelCallError) marks its case failed; any other
    error, such as a replay miss (UnseenRequestError), aborts the report
    once the cases in flight end; no later case starts.
    With repeats > 1 a case only counts as passed when every repeat passes
    (a stricter reading of "consistently passes"); a case's repeats run in
    order in its lane and stop at the first that fails. The default is a
    single execution per case per revision.
    """
    if not cases:
        raise ValueError("validate_prompt: cases must be non-empty")
    if repeats < 1:
        raise ValueError("validate_prompt: repeats must be >= 1")

    def lane(item: tuple[int, SyntheticCase]) -> CaseResult:
        index, case = item
        result = _run_case(gateway, prompt, subtask, index, case)
        for _ in range(repeats - 1):
            if not result.passed:
                break
            result = _run_case(gateway, prompt, subtask, index, case)
        return result

    results = run_lanes(lane, list(enumerate(cases)), width=width)
    passes = sum(1 for r in results if r.passed)
    verdict = ("passed"
               if Fraction(passes, len(results)) >= _as_fraction(threshold)
               else "refine")
    return ValidationReport(subtask_id=subtask.id, revision=prompt.revision,
                            results=tuple(results), passes=passes,
                            total=len(results), verdict=verdict)


@dataclass(frozen=True)
class RefinementOutcome:
    prompt: PromptSpec  # status refined, or failed with the best report attached
    history: tuple[ValidationReport, ...]

    @property
    def refinements_used(self) -> int:
        return len(self.history) - 1


RefineFn = Callable[[PromptSpec, list[tuple[SyntheticCase, SubtaskRun]]], PromptSpec]


def run_refinement_loop(subtask: Subtask, draft: PromptSpec,
                        cases: Sequence[SyntheticCase], gateway: Gateway,
                        refine: RefineFn, *,
                        max_iters: int = DEFAULT_MAX_ITERS,
                        threshold: float | Fraction = DEFAULT_THRESHOLD,
                        repeats: int = 1, width: int = 1) -> RefinementOutcome:
    """Validate-refine until the threshold is met or the budget is spent.

    `refine` is the cloud-channel rewrite (planner.refine_prompt bound to
    its gateway); revisions are strictly sequential because each rewrite
    depends on the previous report. Each revision runs `width` cases at a
    time, as validate_prompt does.
    """
    if max_iters < 1:
        raise ValueError("run_refinement_loop: max_iters must be >= 1")
    prompt = draft
    history: list[ValidationReport] = []
    candidates: list[tuple[PromptSpec, ValidationReport]] = []
    report = validate_prompt(prompt, cases, gateway, subtask=subtask,
                             threshold=threshold, repeats=repeats, width=width)
    history.append(report)
    candidates.append((prompt, report))
    refinements = 0
    while report.verdict != "passed" and refinements < max_iters:
        prompt = refine(prompt, report.failures())
        refinements += 1
        report = validate_prompt(prompt, cases, gateway, subtask=subtask,
                                 threshold=threshold, repeats=repeats, width=width)
        history.append(report)
        candidates.append((prompt, report))
    if report.verdict == "passed":
        return RefinementOutcome(prompt.refined(report), tuple(history))
    # Budget exhausted: best pass rate wins, earliest revision breaks ties.
    best_prompt, best_report = max(
        candidates, key=lambda pair: (pair[1].exact_rate(), -pair[1].revision))
    return RefinementOutcome(best_prompt.failed(best_report), tuple(history))


def history_to_dict(history: Sequence[ValidationReport]) -> list[dict]:
    """JSON-friendly audit trail of every revision's validation run."""
    return [{
        "subtask_id": report.subtask_id,
        "revision": report.revision,
        "passes": report.passes,
        "total": report.total,
        "pass_rate": report.pass_rate,
        "verdict": report.verdict,
        "cases": [{
            "case_index": r.case_index,
            "passed": r.passed,
            "reason": r.reason,
            "expected": dict(r.case.expected.values),
            "predicted": dict(r.run.output.values),
            "parse_status": r.run.parse_status,
            "reasoning_excerpt": r.run.reasoning[:300],
        } for r in report.results],
    } for report in history]
