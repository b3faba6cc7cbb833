"""Prompt validation against synthetic test sets, and the refinement loop.

A check is one subtask's prompt revision with its synthetic cases, at
least one: `validate` and `infer --revalidate` check every subtask, since
the config holds min_synthetic_cases at 1 or more and unpack refuses a
bundle subtask with none (validate_prompt still refuses an empty check).
Each case runs through executor.extract, infer's subtask runner and its
repair, `repeats` times in a row (once by default), repeat k sending seed k
as infer's round k does. An unparseable run fails its case; any other is
compared field-by-field after normalization (trim, case-fold, declared
aliases). validate_prompt runs every case of every check it is given as
lanes of one executor.iter_lanes call, at most `width` at once, and reports
each check in check order with its cases in case order. The CLI sets
`width` to workers x rounds x subtasks, as `infer` does, so every wave has
the whole budget however many checks are still refining.

run_refinement_loops refines in waves: each wave validates every check
still refining in one validate_prompt call, then rewrites the checks below
the threshold as lanes together. A check refines while its pass rate is
strictly below the threshold — the comparison is exact rational
arithmetic, so 8/10 against 0.80 passes — and stops after at most
max_iters refinements, returning the best revision seen with status failed
when the budget runs out.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from itertools import islice

from .config import DEFAULT_MAX_ITERS, DEFAULT_REPEATS, DEFAULT_THRESHOLD, setting_problem
from .executor import extract, iter_lanes
from .gateway import Gateway
from .model import (
    CaseResult,
    PromptSpec,
    Record,
    Subtask,
    SubtaskRun,
    SyntheticCase,
    ValidationReport,
)
from .parsing import parse_subtask_output  # noqa: F401 - bench/tracer.py wraps it by name

VALIDATION_DOC_ID = "synthetic-validation"


def _as_fraction(threshold: float | str | Fraction) -> Fraction:
    # str() first so 0.8 means the decimal 8/10, not its binary float.
    return threshold if isinstance(threshold, Fraction) else Fraction(str(threshold))


def _run_case(gateway: Gateway, prompt: PromptSpec, subtask: Subtask,
              index: int, case: SyntheticCase, seed: int) -> CaseResult:
    run = extract(gateway, subtask, prompt, VALIDATION_DOC_ID, case.input_text, seed=seed)
    if run.parse_status == "unparseable":
        return CaseResult(index, case, run, passed=False, reason=run.reasoning)
    mismatches = [
        f"{name}: expected {case.expected.get(name)!r}, got {run.output.get(name)!r}"
        for name in subtask.output_schema.field_names()
        if case.expected.get(name) != run.output.get(name)
    ]
    if mismatches:
        return CaseResult(index, case, run, passed=False, reason="; ".join(mismatches))
    return CaseResult(index, case, run, passed=True)


Check = tuple[Subtask, PromptSpec, Sequence[SyntheticCase]]


def validate_prompt(checks: Sequence[Check], gateway: Gateway, *,
                    threshold: float | Fraction = DEFAULT_THRESHOLD,
                    repeats: int = DEFAULT_REPEATS, width: int = 1) -> list[ValidationReport]:
    """Score each (subtask, prompt, cases) check over its synthetic set; one
    report per check, in check order.

    Every case of every check is a lane of one iter_lanes call, at most
    `width` at once. A failed model call fails its case, as it leaves
    infer's run unparseable; any other error, such as a replay miss
    (UnseenRequestError), is raised once the cases in flight end, and no
    later case of any check starts. With repeats > 1 a case only counts as
    passed when every repeat passes (a stricter reading of "consistently
    passes"); a case's repeats run in order in its lane, repeat k with seed
    k, and stop at the first that fails. The default is a single execution
    per case per revision.
    """
    for subtask, _prompt, cases in checks:
        if not cases:
            raise ValueError(f"validate_prompt: cases for {subtask.id!r} must be non-empty")
    if problem := setting_problem("validation_repeats", repeats):
        raise ValueError(f"validate_prompt: repeats {problem}, got {repeats!r}")

    def lane(item: tuple[Subtask, PromptSpec, int, SyntheticCase]) -> CaseResult:
        subtask, prompt, index, case = item
        for seed in range(1, repeats + 1):
            result = _run_case(gateway, prompt, subtask, index, case, seed)
            if not result.passed:
                break
        return result

    lanes = [(subtask, prompt, index, case) for subtask, prompt, cases in checks
             for index, case in enumerate(cases)]
    done = iter(list(iter_lanes(lane, lanes, width=width)))
    bar = _as_fraction(threshold)
    reports = []
    for subtask, prompt, cases in checks:
        results = tuple(islice(done, len(cases)))
        passes = sum(1 for r in results if r.passed)
        reports.append(ValidationReport(
            subtask_id=subtask.id, revision=prompt.revision, results=results,
            passes=passes, total=len(results),
            verdict="passed" if Fraction(passes, len(results)) >= bar else "refine"))
    return reports


class RefinementOutcome(Record):
    prompt: PromptSpec  # status refined, or failed with the best report attached
    history: tuple[ValidationReport, ...]

    @property
    def refinements_used(self) -> int:
        return len(self.history) - 1


Failures = list[tuple[SyntheticCase, SubtaskRun]]


def run_refinement_loops(checks: Sequence[Check], gateway: Gateway,
                         refine: Callable[[Subtask, PromptSpec, Failures], PromptSpec], *,
                         max_iters: int = DEFAULT_MAX_ITERS,
                         threshold: float | Fraction = DEFAULT_THRESHOLD,
                         repeats: int = DEFAULT_REPEATS, width: int = 1) -> list[RefinementOutcome]:
    """Validate-refine every check until it meets the threshold or spends
    its budget; one outcome per check, in check order.

    `refine(subtask, prompt, failures)` is the cloud-channel rewrite
    (planner.refine_prompt bound to its gateway). Each wave validates the
    checks still refining in one validate_prompt call, `width` wide however
    few they are, then rewrites those below the threshold as lanes
    together; a check's revisions are sequential because each rewrite reads
    its previous report. An error raised while validating or rewriting ends
    every loop: no later case or rewrite starts.
    """
    if problem := setting_problem("max_iters", max_iters):
        raise ValueError(f"run_refinement_loops: max_iters {problem}, got {max_iters!r}")
    prompts = [prompt for _subtask, prompt, _cases in checks]
    tried: list[list[tuple[PromptSpec, ValidationReport]]] = [[] for _ in checks]
    refining = list(range(len(checks)))
    while refining:
        reports = validate_prompt(
            [(checks[i][0], prompts[i], checks[i][2]) for i in refining], gateway,
            threshold=threshold, repeats=repeats, width=width)
        for i, report in zip(refining, reports):
            tried[i].append((prompts[i], report))
        refining = [i for i, report in zip(refining, reports)
                    if report.verdict != "passed" and len(tried[i]) <= max_iters]
        rewrites = list(iter_lanes(
            lambda i: refine(checks[i][0], prompts[i], tried[i][-1][1].failures()),
            refining, width=len(refining)))
        for i, prompt in zip(refining, rewrites):
            prompts[i] = prompt
    return [_outcome(candidates) for candidates in tried]


def _outcome(candidates: list[tuple[PromptSpec, ValidationReport]]) -> RefinementOutcome:
    history = tuple(report for _prompt, report in candidates)
    prompt, report = candidates[-1]
    if report.verdict == "passed":
        return RefinementOutcome(prompt.refined(report), history)
    # Budget exhausted: best pass rate wins, earliest revision breaks ties.
    best_prompt, best_report = max(
        candidates, key=lambda pair: (pair[1].exact_rate(), -pair[1].revision))
    return RefinementOutcome(best_prompt.failed(best_report), history)


def run_refinement_loop(subtask: Subtask, draft: PromptSpec,
                        cases: Sequence[SyntheticCase], gateway: Gateway,
                        refine: Callable[[PromptSpec, Failures], PromptSpec], *,
                        max_iters: int = DEFAULT_MAX_ITERS,
                        threshold: float | Fraction = DEFAULT_THRESHOLD,
                        repeats: int = DEFAULT_REPEATS, width: int = 1) -> RefinementOutcome:
    """run_refinement_loops over the one check (subtask, draft, cases), with
    `refine(prompt, failures)` as its rewrite."""
    return run_refinement_loops(
        [(subtask, draft, cases)], gateway,
        lambda _subtask, prompt, failures: refine(prompt, failures),
        max_iters=max_iters, threshold=threshold, repeats=repeats, width=width)[0]
