"""Outside-in tracer for the traced benchmark run.

Run as a script, it installs wrappers around each layer's public functions
at the names where their callers look them up, calls `orchkit.cli.main`
in this process with the remaining arguments, then writes the spans it kept
in memory to a JSON file and exits with main's exit code:

    PYTHONPATH=src python3 bench/tracer.py --spans spans.json -- infer ...

A span is (id, parent id, name, start, end, document or case ordinal,
error class). Times are `time.perf_counter()`, the same CLOCK_MONOTONIC the
benchmark process reads, so spans line up with its own timestamps.
Work handed to a thread pool is parented to the span that submitted it.

Nothing is installed on import; only `install()` patches the program, and
the untraced runs never import this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.doc_ordinals: dict[str, int] = {}

    # -- context ----------------------------------------------------------
    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, int | None] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, context, fn):
        """Run fn under `context` (a (span id, ordinal) pair) on any thread."""
        def run(*args, **kwargs):
            stack = self._stack()
            pushed = context is not None
            if pushed:
                stack.append(context)
            try:
                return fn(*args, **kwargs)
            finally:
                if pushed:
                    stack.pop()
        return run

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, ordinal=None, after=None) -> None:
        """Replace owner.attr by a wrapper that records a span named `name`.

        `ordinal(args, kwargs)` gives the span's document or case ordinal
        (else it inherits its parent's); `after(result, args, kwargs)` may
        record counts from the return value.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self.current()
            own = ordinal(args, kwargs) if ordinal is not None else None
            if own is None and parent is not None:
                own = parent[1]
            span_id = next(self._ids)
            stack = self._stack()
            stack.append((span_id, own))
            error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent[0] if parent else None, name,
                                   start, end, own, error))
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}),
                              encoding="utf-8")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark reports on."""
    from orchkit import bundle, cli, executor, gateway, planner, ruledsl, validator
    from orchkit.planner import TemplateSet

    t = tracer
    # cli and config: commands are looked up when build_parser runs inside main.
    for command in ("cmd_plan", "cmd_validate", "cmd_pack", "cmd_unpack", "cmd_infer"):
        t.wrap(cli, command, f"cli.{command}")
    t.wrap(cli, "load_config", "config.load_config")

    # bundle: the CLI calls these through the module.
    for attr in ("read_bundle", "pack", "write_bundle", "save_plan", "load_plan"):
        t.wrap(bundle, attr, f"bundle.{attr}")
    t.wrap(bundle, "unpack", "bundle.unpack")
    t.wrap(bundle.ArtifactBundle, "to_plan", "bundle.to_plan")

    # planner: the CLI calls build_plan/refine_prompt through the module,
    # build_plan calls decompose/generate_synthetic as module globals.
    for attr in ("build_plan", "decompose", "generate_synthetic", "refine_prompt"):
        t.wrap(planner, attr, f"planner.{attr}")
    t.wrap(planner, "extract_json_object", "parsing.extract_json_object")
    t.wrap(planner, "parse_logic", "ruledsl.parse_logic",
           after=lambda r, a, k: t.count("ruledsl.parse_logic_calls"))

    # validator
    t.wrap(validator, "run_refinement_loop", "validator.run_refinement_loop",
           after=lambda r, a, k: t.count("validator.revisions", r.refinements_used))
    t.wrap(validator, "validate_prompt", "validator.validate_prompt")
    t.wrap(validator, "_run_case", "validator.run_case",
           ordinal=lambda a, k: _arg(a, k, 3, "index"),
           after=lambda r, a, k: t.count("validator.cases_run"))
    t.wrap(validator, "parse_subtask_output", "parsing.parse_subtask_output")

    # executor
    def note_documents(result, args, kwargs):
        t.count("executor.documents", len(result))

    def remember_order(args, kwargs):
        docs = _arg(args, kwargs, 2, "docs") or ()
        t.doc_ordinals.update({d.id: i for i, d in enumerate(docs)})
        return None

    def doc_ordinal(index: int):
        def ordinal(args, kwargs):
            doc = _arg(args, kwargs, index, "doc")
            return t.doc_ordinals.get(doc.id) if doc is not None else None
        return ordinal

    def note_prediction(pred, args, kwargs):
        t.count("executor.rounds", len(pred.rounds))
        t.count("executor.agreeing_rounds", pred.votes.get(pred.final.name, 0))

    def note_run(run, args, kwargs):
        t.count(f"executor.runs_{run.parse_status}")

    def note_output(result, args, kwargs):
        t.count("executor.output_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))

    t.wrap(executor, "load_documents", "executor.load_documents")
    t.wrap(executor, "run_documents", "executor.run_documents", ordinal=remember_order,
           after=note_documents)
    t.wrap(executor, "run_document", "executor.run_document", ordinal=doc_ordinal(2),
           after=note_prediction)
    t.wrap(executor, "run_subtask", "executor.run_subtask", ordinal=doc_ordinal(3),
           after=note_run)
    t.wrap(executor, "majority_vote", "executor.majority_vote")
    t.wrap(executor, "write_predictions", "executor.write_predictions", after=note_output)
    t.wrap(executor, "summarize", "executor.summarize")
    t.wrap(executor, "evaluate", "ruledsl.evaluate")
    t.wrap(executor, "parse_subtask_output", "parsing.parse_subtask_output")
    t.wrap(ruledsl, "parse_logic", "ruledsl.parse_logic",
           after=lambda r, a, k: t.count("ruledsl.parse_logic_calls"))

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(t.adopt(t.current(), fn), *args, **kwargs)

    executor.ThreadPoolExecutor = TracedPool
    validator.ThreadPoolExecutor = TracedPool

    original_start = threading.Thread.start

    def start(thread):
        t.count("executor.threads_started")
        return original_start(thread)

    threading.Thread.start = start

    # gateway: Gateway.complete is reached through Gateway.chat; backends
    # are called as self._backend.complete; ReplayBackend digests requests
    # through the module-level request_digest.
    repair_marker = TemplateSet.load().repair.splitlines()[0]

    def note_call(response, args, kwargs):
        gw, request = args[0], _arg(args, kwargs, 1, "request")
        if gw.phase == gateway.PHASE_CLOUD:
            t.count("planner.cloud_calls")
            if repair_marker in request.system_prompt:
                t.count("planner.repairs")

    t.wrap(gateway.Gateway, "__init__", "gateway.open")
    t.wrap(gateway.Gateway, "complete", "gateway.complete", after=note_call)
    for backend in (gateway.ReplayBackend, gateway.ScriptedBackend,
                    gateway.OllamaChatBackend, gateway.OpenAIChatBackend):
        t.wrap(backend, "complete", "gateway.backend")
    t.wrap(gateway, "request_digest", "gateway.request_digest")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <orchkit arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from orchkit import cli

    # The root span: everything main does, on the main thread.
    tracer.wrap(cli, "main", "cli.main")
    try:
        code = cli.main(argv[3:])
    finally:
        tracer.dump(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
