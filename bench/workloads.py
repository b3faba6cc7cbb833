"""The three benchmark workloads and the fake models they talk to.

Every workload runs the real `orchkit` CLI as a child process on generated
inputs, one command at a time, with `workers = 1` and T = 5 rounds over the
golden 2-subtask, 4-label staging plan.

Why these three:

* `infer-replay` is the air-gap rehearsal: `infer` over a recorded session.
  There is no model latency, so the Python around each call (thread pools,
  rule parsing, reply parsing, digests, output) is the whole blocking path,
  and loading the session and unpacking the bundle make set-up visible.
* `infer-http` is the same command against a fake Ollama server whose
  replies take 20 ms with seeded jitter and a slow tail, with a few
  transient 503s (gateway retries) and malformed or flipped replies
  (repairs, disagreeing rounds). Model time dominates; the vote is not
  trivial. Changes that only cut Python overhead should barely move it.
* `connected-http` is `plan` -> `validate` -> `pack` against a fake cloud
  and a fake local server: the planner, the refinement loop and bundle
  packing, with strictly sequential calls alternating between channels.

`infer-replay` is not among the workloads BENCHMARK.json gates: it is pure
CPU, so its times follow the speed of the host's CPU. On a shared 2-vCPU
VM that speed drifted from one half-minute run to the next, and the times
of ten runs spread by 25-26% of their median (interquartile range), above
what a 0.25 bound can hold. Run it by hand with `run.py --workload
infer-replay` to see orchestration overhead without model latency.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
from fakeserver import ChildRun, FakeModelServer, Loop, ServerStats

LOCAL_LATENCY_S = 0.020
LOCAL_JITTER_S = 0.010     # uniform, centred on the base latency
CLOUD_LATENCY_S = 0.050
CLOUD_JITTER_S = 0.005
SLOW_FACTOR = 4
TRANSIENT_DELAY_S = 0.002

# Sizes per workload: "full" is what the benchmark measures, "tiny" is for
# the self-test.
SIZES = {
    "infer-replay": {"full": {"docs": 400}, "tiny": {"docs": 4}},
    "infer-http": {"full": {"docs": 16, "transient": 2, "slow": 4, "recoverable": 8},
                   "tiny": {"docs": 4, "transient": 1, "slow": 1, "recoverable": 1}},
    "connected-http": {"full": {"cases": 10, "revisions": 2},
                       "tiny": {"cases": 5, "revisions": 1}},
}

_MARKER = re.compile(r"\[revision (\d+)\]")


def ollama_reply(text: str) -> dict:
    return {"model": "fake-extractor", "message": {"role": "assistant", "content": text},
            "done": True, "done_reason": "stop"}


def openai_reply(text: str) -> dict:
    return {"id": "fake", "object": "chat.completion",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": text},
                         "finish_reason": "stop"}]}


def _messages(payload: dict) -> tuple[str, str]:
    messages = payload["messages"]
    return messages[0]["content"], messages[1]["content"]


def _latency(base: float, jitter: float, *key: object) -> float:
    return base + jitter * (gen.unit(*key) - 0.5)


class InferModel:
    """Fake Ollama extractor for `infer-http`.

    Each fault is decided by the request content (document digest, subtask,
    whether it is a repair) and by how often that content was seen before,
    so thread interleaving cannot change what a run injects.
    """

    def __init__(self, seed: int, faults: gen.InferFaults, prompts: dict[str, str]):
        self.seed = seed
        self.faults = faults
        self.prompts = prompts  # subtask -> system prompt as packed in the bundle
        self.seen: Counter = Counter()
        self.pending_bad_repairs: Counter = Counter()

    def reset(self) -> None:
        self.seen.clear()
        self.pending_bad_repairs.clear()

    def __call__(self, path: str, payload: dict) -> tuple[int, dict, float]:
        if path != "/api/chat":
            return 404, {"error": f"no route {path}"}, 0.0
        system, user = _messages(payload)
        subtask = gen.subtask_of(system)
        doc = gen.digest(user)
        repair = system != self.prompts[subtask]
        key = (doc, subtask, repair)
        occurrence = self.seen[key]
        self.seen[key] += 1
        delay = _latency(LOCAL_LATENCY_S, LOCAL_JITTER_S, self.seed, *key, occurrence)
        if repair:
            if self.pending_bad_repairs[(doc, subtask)]:
                self.pending_bad_repairs[(doc, subtask)] -= 1
                return 200, ollama_reply(gen.malformed_reply(subtask, 0.0)), delay
            return 200, ollama_reply(gen.extract_reply(subtask, user)), delay
        action = self.faults.actions.get((doc, subtask, occurrence))
        if action == "transient":
            return 503, {"error": "model is loading"}, TRANSIENT_DELAY_S
        if action == "slow":
            delay *= SLOW_FACTOR
        if action == "flip":
            text = gen.flipped_reply(subtask, user)
        elif action in ("recoverable", "unrecoverable"):
            if action == "unrecoverable":
                self.pending_bad_repairs[(doc, subtask)] += 1
            text = gen.malformed_reply(subtask, gen.unit(self.seed, doc, subtask, "v"))
        else:
            text = gen.extract_reply(subtask, user)
        return 200, ollama_reply(text), delay


class ConnectedModels:
    """Fake cloud planner and fake local extractor for `connected-http`.

    The local model misreads the script's failing cases until the prompt
    carries the revision marker the cloud's rewrite adds, so every subtask
    needs exactly `script.revisions` refinements. The cloud answers one
    exchange's first reply with prose, which costs the planner one repair.
    """

    def __init__(self, seed: int, script: gen.ConnectedScript, repair_marker: str):
        self.seed = seed
        self.script = script
        self.repair_marker = repair_marker
        self.seen: Counter = Counter()

    def reset(self) -> None:
        self.seen.clear()

    def _occurrence(self, key: tuple) -> int:
        n = self.seen[key]
        self.seen[key] += 1
        return n

    def cloud(self, path: str, payload: dict) -> tuple[int, dict, float]:
        if not path.endswith("/chat/completions"):
            return 404, {"error": f"no route {path}"}, 0.0
        system, _ = _messages(payload)
        repair = self.repair_marker in system
        if "Decompose the task" in system:
            exchange, subtask = "decompose", ""
        elif "validation material" in system:
            exchange = "synthetic"
            subtask = gen.SPREAD if "- distant_metastasis (" in system else gen.VESSEL
        else:
            exchange, subtask = "refine", gen.subtask_of(system)
        key = ("cloud", exchange, subtask, repair)
        occurrence = self._occurrence(key)
        delay = _latency(CLOUD_LATENCY_S, CLOUD_JITTER_S, self.seed, *key, occurrence)
        if not repair and occurrence == 0 and (exchange, subtask) == self.script.cloud_fault:
            return 200, openai_reply("Here is my plan, in prose, as I cannot do JSON."), delay
        if exchange == "decompose":
            text = gen.plan_reply()
        elif exchange == "synthetic":
            text = json.dumps({"cases": [{"input": t, "expected": e}
                                             for t, e in self.script.cases[subtask]]})
        else:
            revision = max((int(m) for m in _MARKER.findall(system)), default=0) + 1
            text = json.dumps({"system_prompt": (
                f"{gen.SUBTASK_NAMES[subtask]}: extract the requested fields exactly as "
                f"the guideline defines them, quoting the decisive passage. "
                f"[revision {revision}]")})
        return 200, openai_reply(text), delay

    def local(self, path: str, payload: dict) -> tuple[int, dict, float]:
        if path != "/api/chat":
            return 404, {"error": f"no route {path}"}, 0.0
        system, user = _messages(payload)
        subtask = gen.subtask_of(system)
        revision = max((int(m) for m in _MARKER.findall(system)), default=0)
        key = ("local", gen.digest(system), gen.digest(user))
        occurrence = self._occurrence(key)
        delay = _latency(LOCAL_LATENCY_S, LOCAL_JITTER_S, self.seed, *key, occurrence)
        if revision < self.script.revisions and gen.digest(user) in self.script.failing[subtask]:
            return 200, ollama_reply(gen.flipped_reply(subtask, user)), delay
        return 200, ollama_reply(gen.extract_reply(subtask, user)), delay


@dataclass
class Iteration:
    """One pass over a workload's commands, checked and measured."""

    problems: list[str]
    wall_s: float
    setup_s: float | None
    first_output_s: float
    model_calls: int
    cpu_s: float
    peak_rss_mb: float
    parsed_share: float
    servers: list[ServerStats] = field(default_factory=list)
    traced: list[tuple[ChildRun, Path]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path, seed: int, loop: Loop, size: str = "full"):
        self.work = work
        self.seed = seed
        self.loop = loop
        self.size = SIZES[self.name][size]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.servers: list[FakeModelServer] = []
        self._count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "ORCH_CONFIG"}
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                         if self.env.get("PYTHONPATH") else "")

    def close(self) -> None:
        for server in self.servers:
            server.close()

    def orchkit(self, args: list[str], *, traced: bool, watch: Path | None = None) -> tuple[ChildRun, Path | None]:
        """Run one orchkit command as a child process; traced runs go through
        the tracer, which calls `orchkit.cli.main` inside the child."""
        self._count += 1
        tag = self.work / "logs" / f"{self._count:04d}-{args[0]}"
        spans = None
        if traced:
            spans = Path(f"{tag}.spans.json")
            argv = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                    "--spans", str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "orchkit.cli", *args]
        run = self.loop.run_child(argv, cwd=self.work, env=self.env, log_prefix=tag,
                                  watch=watch)
        if run.exit_code != 0 or run.timed_out:
            err = Path(f"{tag}.err").read_text(encoding="utf-8", errors="replace").strip()
            print(f"[bench] {args[0]} exited {run.exit_code}: {err[-400:]}", file=sys.stderr)
        return run, spans

    def prepare(self) -> None:
        raise NotImplementedError

    def iterate(self, traced: bool) -> Iteration:
        raise NotImplementedError

    def setup_probe(self) -> Iteration | None:
        """A separate set-up measurement, for workloads whose set-up cannot be
        read off an iteration."""
        return None


class _Infer(Workload):
    config: Path
    docs_file: Path
    reference: dict[str, str]

    def prepare(self) -> None:
        (self.work / "logs").mkdir(parents=True, exist_ok=True)
        self.bundle = self.work / "artifact.orchb"
        self.plan = gen.write_bundle(self.bundle)
        self.documents = gen.make_documents(self.rng, self.size["docs"])
        self.docs_file = self.work / "docs.jsonl"
        gen.write_documents(self.documents, self.docs_file)
        self.reference = gen.write_reference(self.documents, self.work / "reference.json")
        self.out = self.work / "predictions.jsonl"

    def _infer(self, docs_file: Path, traced: bool) -> tuple[ChildRun, Path | None]:
        self.out.unlink(missing_ok=True)
        return self.orchkit(["infer", "--bundle", str(self.bundle), "--docs", str(docs_file),
                             "--out", str(self.out), "--summary",
                             str(self.work / "summary.json"), "--config", str(self.config),
                             "--deterministic"], traced=traced, watch=self.out)

    def _measure(self, run: ChildRun, spans: Path | None, reference: dict[str, str],
                 servers: list[ServerStats]) -> Iteration:
        check = oracle.check_infer(run.exit_code, self.out, reference)
        if servers:
            calls = sum(s.calls for s in servers)
            setup = servers[0].first_request - run.spawned if servers[0].first_request else None
        else:
            calls = check.runs + check.parse["repaired"]
            setup = None
        parsed = (check.runs - check.parse["unparseable"]) / check.runs if check.runs else 0.0
        first = (run.first_output or run.exited) - run.spawned
        return Iteration(problems=check.problems, wall_s=run.wall_s, setup_s=setup,
                         first_output_s=first, model_calls=calls, cpu_s=run.cpu_s,
                         peak_rss_mb=run.peak_rss_mb, parsed_share=parsed, servers=servers,
                         traced=[(run, spans)] if spans else [])


class InferReplay(_Infer):
    name = "infer-replay"

    def prepare(self) -> None:
        super().prepare()
        session = self.work / "session.jsonl"
        gen.record_session(self.plan, self.documents, session)
        self.config = self.work / "orch.cfg"
        gen.write_config(self.config, **{"local.kind": "scripted", "local.session": session,
                                         "rounds": gen.ROUNDS, "workers": 1})
        self.one_doc = self.work / "one-doc.jsonl"
        gen.write_documents(self.documents[:1], self.one_doc)

    def iterate(self, traced: bool) -> Iteration:
        run, spans = self._infer(self.docs_file, traced)
        return self._measure(run, spans, self.reference, [])

    def setup_probe(self) -> Iteration:
        """The same command over a one-document input: session load, bundle
        unpack and start-up, with almost no inference."""
        run, _ = self._infer(self.one_doc, False)
        first = self.documents[0].id
        it = self._measure(run, None, {first: self.reference[first]}, [])
        it.setup_s = run.wall_s
        return it


class InferHttp(_Infer):
    name = "infer-http"

    def prepare(self) -> None:
        super().prepare()
        faults = gen.make_infer_faults(self.rng, self.documents,
                                       transient=self.size["transient"],
                                       slow=self.size["slow"],
                                       recoverable=self.size["recoverable"])
        prompts = {p.subtask_id: p.system_prompt for p in self.plan.prompts}
        self.model = InferModel(self.seed, faults, prompts)
        self.server = FakeModelServer(self.loop, self.model)
        self.servers.append(self.server)
        self.config = self.work / "orch.cfg"
        gen.write_config(self.config, **{"local.kind": "local_http",
                                         "local.endpoint": self.server.url,
                                         "local.model": "fake-extractor",
                                         "rounds": gen.ROUNDS, "workers": 1})

    def iterate(self, traced: bool) -> Iteration:
        self.model.reset()
        self.server.reset()
        run, spans = self._infer(self.docs_file, traced)
        return self._measure(run, spans, self.reference, [self.server.reset()])


class ConnectedHttp(Workload):
    name = "connected-http"

    def prepare(self) -> None:
        from orchkit.planner import TemplateSet

        (self.work / "logs").mkdir(parents=True, exist_ok=True)
        self.script = gen.make_connected_script(self.rng, self.size["cases"],
                                                self.size["revisions"])
        self.inputs = gen.write_planning_inputs(self.work, self.size["cases"])
        self.models = ConnectedModels(self.seed, self.script,
                                      TemplateSet.load().repair.splitlines()[0])
        self.cloud = FakeModelServer(self.loop, self.models.cloud)
        self.local = FakeModelServer(self.loop, self.models.local)
        self.servers += [self.cloud, self.local]
        self.config = self.work / "orch.cfg"
        gen.write_config(self.config, **{
            "cloud.kind": "cloud_http", "cloud.endpoint": f"{self.cloud.url}/v1",
            "cloud.model": "fake-planner", "local.kind": "local_http",
            "local.endpoint": self.local.url, "local.model": "fake-extractor",
            "rounds": gen.ROUNDS, "threshold": 0.8, "max_iters": 5, "workers": 1})
        self.env["ORCH_CLOUD_API_KEY"] = "fake-key"
        self.plan_file = self.work / "plan.json"
        self.validated = self.work / "validated.json"
        self.bundle = self.work / "artifact.orchb"

    def iterate(self, traced: bool) -> Iteration:
        self.models.reset()
        for server in self.servers:
            server.reset()
        for path in (self.plan_file, self.validated, self.bundle):
            path.unlink(missing_ok=True)
        cfg = str(self.config)
        steps = [
            ("plan", ["plan", "--task", str(self.inputs["task"]),
                      "--guideline", str(self.inputs["guideline"]),
                      "--prefs", str(self.inputs["prefs"]), "--out", str(self.plan_file),
                      "--config", cfg, "--deterministic"], self.plan_file),
            ("validate", ["validate", "--plan", str(self.plan_file),
                          "--out", str(self.validated), "--config", cfg], None),
            ("pack", ["pack", "--plan", str(self.validated), "--out", str(self.bundle),
                      "--config", cfg, "--deterministic"], None),
        ]
        runs: list[ChildRun] = []
        traced_runs: list[tuple[ChildRun, Path]] = []
        codes: dict[str, int] = {}
        for command, args, watch in steps:
            run, spans = self.orchkit(args, traced=traced, watch=watch)
            runs.append(run)
            codes[command] = run.exit_code
            if spans:
                traced_runs.append((run, spans))
            if run.exit_code != 0:
                break
        stats = [server.reset() for server in self.servers]
        if codes.get("pack") == 0:  # the oracle: unpack verifies every hash
            check_run, _ = self.orchkit(["unpack", "--bundle", str(self.bundle),
                                         "--out", str(self.work / "unpacked.json")],
                                        traced=False)
            codes["unpack"] = check_run.exit_code
        check = oracle.check_connected(codes, self.validated, self.script.revisions,
                                       (gen.SPREAD, gen.VESSEL))
        for step, _, _ in steps:
            if step not in codes:
                check.problems.append(f"{step} did not run")
        plan_run = runs[0]
        first_request = stats[0].first_request
        return Iteration(
            problems=check.problems, wall_s=sum(r.wall_s for r in runs),
            setup_s=first_request - plan_run.spawned if first_request else None,
            first_output_s=(plan_run.first_output or plan_run.exited) - plan_run.spawned,
            model_calls=sum(s.calls for s in stats), cpu_s=sum(r.cpu_s for r in runs),
            peak_rss_mb=max(r.peak_rss_mb for r in runs),
            parsed_share=check.refined / check.prompts if check.prompts else 0.0,
            servers=stats, traced=traced_runs)


WORKLOADS = {cls.name: cls for cls in (InferReplay, InferHttp, ConnectedHttp)}
