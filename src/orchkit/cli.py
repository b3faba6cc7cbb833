"""Command-line surface: plan, validate, pack, unpack, infer, evaluate.

Phase separation is structural: `plan`/`validate` drive the cloud channel
and never touch documents; `infer` drives the local channel, refuses to
start while a cloud profile is configured, and only reads documents after
that guard (and any requested revalidation) has passed.

Exit codes, fixed so air-gapped shell pipelines can branch on failure class:
    0  success
    2  invalid input (missing/malformed files, a malformed replay-session
       line, id mismatches): OrchError, OutputParseError, ValueError,
       OSError; a file's error names it, and a JSON-lines file's its line
    3  planner failure (unusable or repeatedly invalid plan replies, a bad
       rule program): PlannerError, DslError
    4  failed model call (transport failure, malformed reply or completion
       text that is not a string, truncation, empty reply, unrecorded
       replay request): ModelCallError, TransportError, UnseenRequestError
    5  validation failure (a prompt or revalidation below threshold)
    6  bundle integrity failure (tamper, version, malformed): BundleError
    7  privacy refusal (cloud profile active during inference):
       PhaseViolationError

Every error class carries its code as `exit_code` and `main` exits with
it; a class exists only where code branches on it or its code differs
from its parent's (see errors.py). Exit 5 is a result, not an error.
"""

from __future__ import annotations

import argparse
import sys
import threading
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from . import bundle as bundlemod
from . import evalkit, executor, planner, validator
from .config import Config, load_config
from .errors import OrchError, PhaseViolationError, PlannerError
from .gateway import (
    DEFAULT_CONTEXT,
    DEFAULT_TEMPERATURE,
    KIND_CLOUD_HTTP,
    PHASE_CLOUD,
    PHASE_LOCAL,
    Gateway,
)
from .jsonio import read_json, read_text, write_json
from .model import TaskSpec, UserPrefs, validate_plan
from .planner import TemplateSet

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_VALIDATION = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _load_prefs(path: Path, config: Config) -> UserPrefs:
    """Preferences JSON; a case count it omits comes from the config, any
    other key it omits from UserPrefs, and a key UserPrefs lacks is refused."""
    def build(data: dict) -> UserPrefs:
        prefs = {"output_labels": data["output_labels"],
                 "synthetic_cases_per_subtask": config.synthetic_cases_per_subtask, **data}
        unknown = [key for key in prefs if key not in {f.name for f in fields(UserPrefs)}]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        return UserPrefs(**prefs)

    return read_json(path, build)


def _templates(config: Config) -> TemplateSet:
    return TemplateSet.load(config.templates_dir)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_plan(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    task = TaskSpec(
        task_description=read_text(args.task),
        guideline=read_text(args.guideline),
        preferences=_load_prefs(Path(args.prefs), config))
    gateway = Gateway(config.cloud.to_profile("cloud"), PHASE_CLOUD)
    clock = None if args.deterministic else _now_iso
    plan = planner.build_plan(task, gateway, templates=_templates(config), clock=clock)
    violations = validate_plan(plan, min_cases=config.min_synthetic_cases)
    if violations:
        raise PlannerError("planned artifact failed validation: " + "; ".join(violations))
    bundlemod.save_plan(plan, args.out)
    print(f"plan written to {args.out}: {len(plan.subtasks)} subtasks, "
          f"{sum(len(v) for v in plan.synthetic_sets.values())} synthetic cases")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    plan = bundlemod.load_plan(args.plan)
    local_gateway = Gateway(config.local.to_profile("local"), PHASE_LOCAL)
    templates = _templates(config)
    max_iters = args.max_iters if args.max_iters is not None else config.max_iters

    cloud_gateway: list[Gateway] = []  # built lazily: only refinement needs it
    cloud_lock = threading.Lock()  # a wave's rewrites run at once

    def refine(subtask, prompt, failures):
        with cloud_lock:
            if not cloud_gateway:
                cloud_gateway.append(Gateway(config.cloud.to_profile("cloud"), PHASE_CLOUD))
        return planner.refine_prompt(prompt, failures, cloud_gateway[0],
                                     templates=templates, schema=subtask.output_schema)

    # stdout, history and plan follow plan order.
    outcomes = validator.run_refinement_loops(
        [(subtask, plan.prompt_for(subtask.id), plan.synthetic_sets.get(subtask.id, ()))
         for subtask in plan.subtasks],
        local_gateway, refine, max_iters=max_iters, threshold=config.threshold,
        repeats=config.validation_repeats, width=config.workers * config.rounds)
    histories: list[dict] = []
    for subtask, outcome in zip(plan.subtasks, outcomes):
        histories.extend(validator.history_to_dict(outcome.history))
        final = outcome.history[-1]
        print(f"{subtask.id}: {outcome.prompt.status} at revision "
              f"{outcome.prompt.revision} (pass rate {final.passes}/{final.total}, "
              f"{outcome.refinements_used} refinements)")
    new_prompts = [outcome.prompt for outcome in outcomes]
    any_failed = any(prompt.status == "failed" for prompt in new_prompts)
    refined_plan = plan.with_prompts(new_prompts)
    bundlemod.save_plan(refined_plan, args.out)
    if args.emit_history:
        write_json(args.emit_history, histories)
    print(f"validated plan written to {args.out}")
    return EXIT_VALIDATION if any_failed else EXIT_OK


def cmd_pack(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    plan = bundlemod.load_plan(args.plan)
    local = config.local
    runtime = bundlemod.RuntimeDefaults(
        rounds=config.rounds,
        local_temperature=(DEFAULT_TEMPERATURE[PHASE_LOCAL] if local.temperature is None
                           else local.temperature),
        local_context=DEFAULT_CONTEXT if local.context is None else local.context,
        threshold=config.threshold)
    guideline_body = read_text(args.include_guideline) if args.include_guideline else None
    data = bundlemod.pack(plan, runtime,
                          created_at=None if args.deterministic else _now_iso(),
                          allow_failed=args.allow_failed,
                          guideline_body=guideline_body,
                          min_cases=config.min_synthetic_cases)
    bundlemod.write_bundle(data, args.out)
    print(f"bundle written to {args.out} ({len(data)} bytes)")
    return EXIT_OK


def cmd_unpack(args: argparse.Namespace) -> int:
    artifact = bundlemod.read_bundle(args.bundle)
    bundlemod.save_plan(artifact.to_plan(), args.out)
    print(f"bundle {args.bundle} verified (format {artifact.format_version}); "
          f"plan written to {args.out}")
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    config = load_config(args.config)

    # Privacy guard comes before anything else is even read.
    cloud_active = config.cloud.kind == KIND_CLOUD_HTTP or config.local.kind == KIND_CLOUD_HTTP
    if cloud_active and not (args.i_know_this_is_scripted and config.local.kind == "scripted"):
        raise PhaseViolationError("a cloud profile is active; refusing to run inference "
                                  "over documents in this environment")
    if args.rounds is not None and args.rounds < 1:
        raise ValueError(f"infer: --rounds must be >= 1, got {args.rounds}")
    artifact = bundlemod.read_bundle(args.bundle)
    plan = artifact.to_plan()
    runtime = artifact.runtime()
    # Where the config is silent, the bundle's local temperature and context apply.
    if config.local.temperature is None:
        config.local.temperature = runtime.local_temperature
    if config.local.context is None:
        config.local.context = runtime.local_context
    gateway = Gateway(config.local.to_profile("local"), PHASE_LOCAL)
    rounds = args.rounds if args.rounds is not None else runtime.rounds

    if args.revalidate:
        checked = [s for s in plan.subtasks if plan.synthetic_sets.get(s.id)]
        reports = validator.validate_prompt(
            [(s, plan.prompt_for(s.id), plan.synthetic_sets[s.id]) for s in checked],
            gateway, threshold=runtime.threshold, repeats=config.validation_repeats,
            width=config.workers * rounds)
        below = []
        for subtask, report in zip(checked, reports):
            print(f"revalidate {subtask.id}: {report.passes}/{report.total} "
                  f"({report.verdict})")
            if report.verdict != "passed":
                below.append(subtask.id)
        if below:
            return _fail(EXIT_VALIDATION,
                         "revalidation below threshold for: " + ", ".join(below)
                         + "; not touching documents")

    docs = executor.load_documents(args.docs)
    preds = executor.iter_documents(gateway, plan, docs, rounds=rounds,
                                    allow_failed=artifact.allow_failed,
                                    workers=config.workers)
    tally = executor.Tally()
    executor.write_predictions(tally.counted(preds), args.out)
    summary = executor.summarize(tally, plan.labels, rounds=rounds)
    if not args.deterministic:
        summary["completed_at"] = _now_iso()
    if args.summary:
        write_json(args.summary, summary)
    print(f"{tally.documents} predictions written to {args.out}")
    return EXIT_OK


def _label_order(summary: dict) -> list[str]:
    labels = summary["label_order"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("an infer summary's label_order must be a list of strings")
    evalkit.label_index(labels)  # a label named twice fails here, naming the file
    return labels


def cmd_evaluate(args: argparse.Namespace) -> int:
    pred = evalkit.load_labeled(args.pred, source="system")
    gt = evalkit.load_labeled(args.gt, source="gt")
    labels = None
    if args.labels:
        labels = [x.strip() for x in args.labels.split(",") if x.strip()]
    elif args.labels_from_summary:
        labels = read_json(args.labels_from_summary, _label_order)
    report = evalkit.evaluate_report(pred, gt, labels)
    print(evalkit.render_table([report]))
    print()
    print(evalkit.render_confusion(report))
    print(f"\naccuracy: {report.accuracy_percent:.2f}% "
          f"({report.n_scored} scored = {report.n_total} total "
          f"- {report.n_excluded} indeterminate)")
    if args.out:
        write_json(args.out, report.to_dict())
    if args.confusion_csv:
        evalkit.confusion_to_csv(report, args.confusion_csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orchkit",
        description="Two-phase planner/executor pipeline for guideline-driven "
                    "classification over sensitive documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="decompose a task and generate synthetic sets (cloud phase)")
    p.add_argument("--task", required=True, help="task description text file")
    p.add_argument("--guideline", required=True, help="guideline document text file")
    p.add_argument("--prefs", required=True, help="preferences JSON file")
    p.add_argument("--out", required=True, help="output plan file")
    p.add_argument("--config", default=None)
    p.add_argument("--deterministic", action="store_true",
                   help="suppress timestamps for reproducible output")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate", help="run the refinement loop over every prompt")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True, help="output plan file with refined prompts")
    p.add_argument("--config", default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--emit-history", default=None, help="write full validation history JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pack", help="serialize a validated plan into an .orchb bundle")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--allow-failed", action="store_true",
                   help="pack failed prompts too (recorded in the bundle)")
    p.add_argument("--include-guideline", default=None,
                   help="embed this guideline file (default: digest only)")
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("unpack", help="verify a bundle and extract the plan")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unpack)

    p = sub.add_parser("infer", help="run the bundle over documents (local phase)")
    p.add_argument("--bundle", required=True)
    p.add_argument("--docs", required=True, help="document directory or JSON-lines file")
    p.add_argument("--out", required=True, help="predictions JSON-lines output")
    p.add_argument("--summary", default=None, help="summary JSON output")
    p.add_argument("--rounds", type=int, default=None,
                   help="inference rounds per document (default from bundle)")
    p.add_argument("--revalidate", action="store_true",
                   help="re-run synthetic validation before touching documents")
    p.add_argument("--i-know-this-is-scripted", action="store_true",
                   help="bypass the cloud-profile guard for scripted backends")
    p.add_argument("--config", default=None)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", required=True,
                   help="predictions JSON-lines, or any labeled-set form (see --gt)")
    p.add_argument("--gt", required=True,
                   help="ground truth: id,label CSV, or JSON-lines of id/label records "
                        "or predictions")
    p.add_argument("--labels", default=None,
                   help="comma-separated label order (ascending severity)")
    p.add_argument("--labels-from-summary", default=None,
                   help="read label order from an infer summary JSON")
    p.add_argument("--out", default=None, help="write report JSON here")
    p.add_argument("--confusion-csv", default=None)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OrchError as exc:
        return _fail(exc.exit_code, str(exc))
    except (ValueError, OSError) as exc:
        return _fail(EXIT_INVALID_INPUT, str(exc))


if __name__ == "__main__":
    sys.exit(main())
