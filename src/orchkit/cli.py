"""Command-line surface: plan, validate, pack, unpack, infer, evaluate.

Phase separation is structural: `plan`/`validate` drive the cloud channel
and never touch documents; `infer` drives the local channel, refuses to
start while a cloud profile is configured, and only reads documents after
that guard (and any requested revalidation, over every subtask) has passed.

Exit codes, fixed so air-gapped shell pipelines can branch on failure class:
    0  success
    2  invalid input (missing/malformed files, a malformed replay-session
       line, id mismatches, an output flag naming a directory, an earlier
       output's or an input's file, $ORCH_CONFIG's and the sessions and
       templates_dir templates it points at included, or a document of
       infer's --docs directory):
       OrchError, OutputParseError, DslError, ValueError, OSError; a
       file's error names it, and a JSON-lines file's its line
    3  planner failure (unusable or repeatedly invalid plan replies):
       PlannerError
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

Run settings, their defaults and precedence are config's (`plan` checks its
prefs file there, in Config.preferences); a flag overrides only its setting.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

from .config import KIND_CLOUD_HTTP, KIND_SCRIPTED, config_file, load_config, setting_problem
from .errors import OrchError, PhaseViolationError
from .jsonio import read_json, read_text, write_json
from .model import TaskSpec, validate_plan

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_VALIDATION = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _files(args: argparse.Namespace, flags: tuple[str, ...]):
    """(name, path) for each of `flags` that names a file; --config's is the
    file load_config read, $ORCH_CONFIG's when the flag is absent, and the
    files that config points at (Config.files(): its sessions and
    templates_dir's templates) follow it."""
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path := (config_file(path) if flag == "--config" else path):
            yield flag, path
        if flag == "--config":
            yield from args.settings.files()


def _own_files(args: argparse.Namespace) -> None:
    """Refuse an output flag (in `writes`) that names, once resolved, the
    file of an earlier output flag or of an input (in `reads`, a config's
    sessions and templates included): one write would replace the other,
    or replace a file the command reads. Refuse one naming a directory
    too, which no write can replace; /dev/null and other files that are
    not regular stay writable."""
    named = {Path(path).resolve(): flag for flag, path in _files(args, args.reads)}
    for flag, path in _files(args, args.writes):
        if (other := named.setdefault(Path(path).resolve(), flag)) != flag:
            raise ValueError(f"{args.command}: {other} and {flag} name the same file, {path}")
        if Path(path).is_dir():
            raise ValueError(f"{args.command}: {flag} names a directory, {path}")


def _outside_documents(args: argparse.Namespace, pattern: str) -> None:
    """Refuse an output flag whose file `infer`'s --docs directory would read
    as a document next time: a name matching the loader's `pattern` in that
    directory, as given or once its links are followed."""
    directory = Path(args.docs).resolve()
    if not directory.is_dir():
        return
    for flag, path in _files(args, args.writes):
        if any(entry.parent == directory and entry.match(pattern) for entry in
               (Path(path).parent.resolve() / Path(path).name, Path(path).resolve())):
            raise ValueError(f"infer: --docs would read {flag} as a document, {path}")


def _removing_first(path: str | None, items):
    """Yield `items`, removing the file at `path`, if any, before the first.
    write_predictions truncates --out only when its first prediction arrives,
    so a previous run's --summary is gone before its predictions are."""
    for n, item in enumerate(items):
        if not n and path:
            Path(path).unlink(missing_ok=True)
        yield item


def _checks(plan, config, rounds: int) -> tuple[list, int]:
    """(subtask, prompt, cases) in plan order, and workers × rounds × subtasks."""
    return ([(subtask, plan.prompt_for(subtask.id), plan.synthetic_sets[subtask.id])
             for subtask in plan.subtasks], config.workers * rounds * len(plan.subtasks))


def _now_iso() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Commands
#
# Each command imports the modules it runs; Config.gateway loads the model
# gateway for the commands that call a model.
# ---------------------------------------------------------------------------

def cmd_plan(args: argparse.Namespace) -> int:
    from . import bundle as bundlemod
    from . import planner

    config = args.settings
    task = TaskSpec(
        task_description=read_text(args.task),
        guideline=read_text(args.guideline),
        preferences=read_json(args.prefs, config.preferences))
    clock = None if args.deterministic else _now_iso
    with config.gateway("cloud") as gateway:
        plan = planner.build_plan(task, gateway,
                                  templates=planner.TemplateSet.load(config.templates_dir),
                                  clock=clock)
    bundlemod.save_plan(plan, args.out)
    print(f"plan written to {args.out}: {len(plan.subtasks)} subtasks, "
          f"{sum(len(v) for v in plan.synthetic_sets.values())} synthetic cases")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from . import bundle as bundlemod
    from . import planner, validator

    config = args.settings
    max_iters = config.max_iters if args.max_iters is None else args.max_iters
    if problem := setting_problem("max_iters", max_iters):  # only the flag can be out of range
        raise ValueError(f"validate: --max-iters {problem}, got {max_iters}")
    plan = bundlemod.load_plan(args.plan)
    if violations := validate_plan(plan, min_cases=config.min_synthetic_cases):
        raise ValueError(f"{args.plan}: " + "; ".join(violations))
    local_gateway = config.gateway("local")
    templates = planner.TemplateSet.load(config.templates_dir)

    cloud_gateway = []  # built lazily: only refinement needs it
    cloud_lock = threading.Lock()  # a wave's rewrites run at once

    def refine(subtask, prompt, failures):
        with cloud_lock:
            if not cloud_gateway:
                cloud_gateway.append(config.gateway("cloud"))
        return planner.refine_prompt(prompt, failures, cloud_gateway[0],
                                     templates=templates, schema=subtask.output_schema)

    # stdout, history and plan follow plan order.
    checks, width = _checks(plan, config, config.rounds)
    try:
        outcomes = validator.run_refinement_loops(
            checks, local_gateway, refine, max_iters=max_iters,
            repeats=config.validation_repeats, threshold=config.threshold, width=width)
    finally:
        for gateway in (local_gateway, *cloud_gateway):
            gateway.close()
    histories: list[dict] = []
    for subtask, outcome in zip(plan.subtasks, outcomes):
        histories.extend(bundlemod.report_to_dict(report) for report in outcome.history)
        final = outcome.history[-1]
        print(f"{subtask.id}: {outcome.prompt.status} at revision "
              f"{outcome.prompt.revision} (pass rate {final.passes}/{final.total}, "
              f"{outcome.refinements_used} refinements)")
    new_prompts = [outcome.prompt for outcome in outcomes]
    any_failed = any(prompt.status == "failed" for prompt in new_prompts)
    refined_plan = plan.with_prompts(new_prompts)
    if args.emit_history:  # gone before --out is replaced: no pair from two runs
        Path(args.emit_history).unlink(missing_ok=True)
    bundlemod.save_plan(refined_plan, args.out)
    if args.emit_history:
        write_json(args.emit_history, histories)
    print(f"validated plan written to {args.out}")
    return EXIT_VALIDATION if any_failed else EXIT_OK


def cmd_pack(args: argparse.Namespace) -> int:
    from . import bundle as bundlemod

    config = args.settings
    plan = bundlemod.load_plan(args.plan)
    guideline_body = read_text(args.include_guideline) if args.include_guideline else None
    data = bundlemod.pack(plan, config.runtime(),
                          created_at=None if args.deterministic else _now_iso(),
                          allow_failed=args.allow_failed,
                          guideline_body=guideline_body,
                          min_cases=config.min_synthetic_cases)
    bundlemod.write_bundle(data, args.out)
    print(f"bundle written to {args.out} ({len(data)} bytes)")
    return EXIT_OK


def cmd_unpack(args: argparse.Namespace) -> int:
    from . import bundle as bundlemod

    artifact = bundlemod.read_bundle(args.bundle)
    bundlemod.save_plan(artifact.to_plan(), args.out)
    version = artifact.sections["meta"]["format_version"]
    print(f"bundle {args.bundle} verified (format {version}); plan written to {args.out}")
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    from . import bundle as bundlemod
    from . import executor

    config = args.settings

    # Privacy guard comes before anything else is even read.
    cloud_active = config.cloud.kind == KIND_CLOUD_HTTP or config.local.kind == KIND_CLOUD_HTTP
    if cloud_active and not (args.i_know_this_is_scripted and config.local.kind == KIND_SCRIPTED):
        raise PhaseViolationError("a cloud profile is active; refusing to run inference "
                                  "over documents in this environment")
    if args.rounds is not None and (problem := setting_problem("rounds", args.rounds)):
        raise ValueError(f"infer: --rounds {problem}, got {args.rounds}")
    _outside_documents(args, executor.DOCUMENT_FILES)
    artifact = bundlemod.read_bundle(args.bundle)
    plan, runtime = artifact.to_plan(), artifact.runtime
    rounds = args.rounds if args.rounds is not None else runtime.rounds
    with config.gateway("local", runtime) as gateway:
        if args.revalidate:
            from . import validator

            checks, width = _checks(plan, config, rounds)
            reports = validator.validate_prompt(checks, gateway, threshold=runtime.threshold,
                                                repeats=config.validation_repeats, width=width)
            for report in reports:
                print(f"revalidate {report.subtask_id}: {report.passes}/{report.total} "
                      f"({report.verdict})")
            if below := [report.subtask_id for report in reports if report.verdict != "passed"]:
                return _fail(EXIT_VALIDATION, "revalidation below threshold for: "
                             f"{', '.join(below)}; not touching documents")

        docs = executor.load_documents(args.docs)
        preds = executor.iter_documents(gateway, plan, docs, rounds=rounds,
                                        workers=config.workers)
        tally = executor.Tally()
        executor.write_predictions(tally.counted(_removing_first(args.summary, preds)),
                                   args.out)
        summary = executor.summarize(tally, plan.labels, rounds=rounds)
        if not args.deterministic:
            summary["completed_at"] = _now_iso()
        if args.summary:
            write_json(args.summary, summary)
        print(f"{tally.documents} predictions written to {args.out}")
        return EXIT_OK


def _label_order(summary: dict) -> list[str]:
    from . import evalkit

    labels = summary["label_order"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("an infer summary's label_order must be a list of strings")
    evalkit.label_index(labels)  # a label named twice fails here, naming the file
    return labels


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import evalkit

    if args.labels is not None and args.labels_from_summary is not None:
        raise ValueError("evaluate: give --labels or --labels-from-summary, not both")
    pred = evalkit.load_labeled(args.pred, source="system")
    gt = evalkit.load_labeled(args.gt, source="gt")
    labels = None
    if args.labels is not None:
        labels = [x.strip() for x in args.labels.split(",") if x.strip()]
        if not labels:
            raise ValueError("evaluate: --labels names no label")
    elif args.labels_from_summary is not None:
        if not args.labels_from_summary:
            raise ValueError("evaluate: --labels-from-summary names no file")
        labels = read_json(args.labels_from_summary, _label_order)
    report = evalkit.evaluate_report(pred, gt, labels)
    print(evalkit.render_table([report]))
    print()
    print(evalkit.render_confusion(report))
    print(f"\naccuracy: {report.accuracy_percent:.2f}% "
          f"({report.n_scored} scored = {report.n_total} total "
          f"- {report.n_excluded} indeterminate)")
    if args.out:
        if args.confusion_csv:  # gone before --out is replaced: no pair from two runs
            Path(args.confusion_csv).unlink(missing_ok=True)
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
    p.set_defaults(func=cmd_plan, reads=("--task", "--guideline", "--prefs", "--config"),
                   writes=("--out",))

    p = sub.add_parser("validate", help="run the refinement loop over every prompt")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True, help="output plan file with refined prompts")
    p.add_argument("--config", default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--emit-history", default=None, help="write full validation history JSON")
    p.set_defaults(func=cmd_validate, reads=("--plan", "--config"),
                   writes=("--out", "--emit-history"))

    p = sub.add_parser("pack", help="serialize a validated plan into an .orchb bundle")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--allow-failed", action="store_true",
                   help="pack failed prompts too (recorded in the bundle)")
    p.add_argument("--include-guideline", default=None,
                   help="embed this guideline file (default: digest only)")
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_pack, reads=("--plan", "--include-guideline", "--config"),
                   writes=("--out",))

    p = sub.add_parser("unpack", help="verify a bundle and extract the plan")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unpack, reads=("--bundle",), writes=("--out",))

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
    p.set_defaults(func=cmd_infer, reads=("--bundle", "--docs", "--config"),
                   writes=("--out", "--summary"))

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
    p.set_defaults(func=cmd_evaluate, reads=("--pred", "--gt", "--labels-from-summary"),
                   writes=("--out", "--confusion-csv"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Read once, before the file check: the sessions it sets are inputs too.
        args.settings = load_config(args.config) if "--config" in args.reads else None
        _own_files(args)
        return args.func(args)
    except OrchError as exc:
        return _fail(exc.exit_code, str(exc))
    except (ValueError, OSError) as exc:
        return _fail(EXIT_INVALID_INPUT, str(exc))


if __name__ == "__main__":
    sys.exit(main())
