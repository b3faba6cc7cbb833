"""Per-layer metrics from the traced runs' spans, and what each metric means.

`BENCHMARK.json` is the one list of metric names, units and directions.
This module adds what the JSON cannot hold: the workloads a metric applies
to and, for per-layer metrics, which end-to-end metric it should move.

Self time of a span is its duration minus the part of it that its direct
children cover. The layer split instead partitions the traced wall time:
at each instant the time goes to the innermost open spans, shared equally
when several run at once (the two subtask threads of a round), and what no
span covers goes to `startup` (interpreter start, imports, exit). The split
therefore adds up to the traced wall time exactly.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

INFER = ("infer-replay", "infer-http")
ALL = INFER + ("connected-http",)

# name: (workloads, what). Times are wall clock.
END_TO_END = {
    "wall_s": (ALL, "spawn to exit, summed over the workload's commands"),
    "setup_s": (ALL, "spawn to the first model request; infer-replay: one-document infer"),
    "first_output_s": (ALL, "spawn to the first complete line of the first output file"),
    "model_calls": (ALL, "requests at the fake servers; infer-replay: runs + repaired runs"),
    "cpu_ms_per_call": (ALL, "child user + system CPU over model_calls"),
    "peak_rss_mb": (ALL, "child peak resident memory"),
    "parsed_run_share": (ALL, "runs with a parsed reply over runs (infer); prompts refined "
                              "over subtasks (connected)"),
}

# Timing metrics are reported as <name>.p50, <name>.tail and <name>.n.
# name: (workloads, end-to-end metric it should move, what)
TIMINGS = {
    "cli.setup_ms": (ALL, "setup_s", "spawn to the first Gateway.complete"),
    "config.load_ms": (ALL, "setup_s", "load_config"),
    "bundle.unpack_ms": (INFER, "setup_s", "read_bundle: read and verify"),
    "bundle.pack_ms": (("connected-http",), "wall_s", "pack + write_bundle"),
    "bundle.plan_io_ms": (ALL, "wall_s", "save_plan + load_plan + to_plan"),
    "gateway.open_ms": (ALL, "setup_s",
                        "Gateway construction: backend set-up, replay session load"),
    "gateway.backend_ms": (ALL, "wall_s", "backend complete: HTTP client and model"),
    "gateway.self_ms": (ALL, "wall_s", "Gateway.complete minus backend: semaphore wait, backoff"),
    "gateway.request_digest_us": (("infer-replay",), "cpu_ms_per_call", "request_digest"),
    "executor.run_document_ms": (INFER, "first_output_s", "run_document"),
    "executor.self_ms": (INFER, "cpu_ms_per_call",
                         "per document, executor spans minus their children"),
    "executor.majority_vote_us": (INFER, "cpu_ms_per_call", "majority_vote"),
    "executor.load_documents_ms": (INFER, "setup_s", "load_documents"),
    "executor.write_predictions_ms": (INFER, "first_output_s", "write_predictions"),
    "parsing.parse_us": (ALL, "cpu_ms_per_call", "parse_subtask_output"),
    "ruledsl.parse_logic_ms": (ALL, "cpu_ms_per_call", "parse_logic"),
    "ruledsl.evaluate_us": (INFER, "cpu_ms_per_call", "evaluate"),
    "validator.validate_prompt_ms": (("connected-http",), "wall_s", "validate_prompt"),
    "planner.decompose_ms": (("connected-http",), "wall_s", "decompose"),
    "planner.synthetic_ms": (("connected-http",), "wall_s", "generate_synthetic"),
    "planner.refine_ms": (("connected-http",), "wall_s", "refine_prompt"),
}

# name: (workloads, end-to-end metric it should move, what)
COUNTS = {
    "gateway.calls": (ALL, "model_calls", "Gateway.complete calls"),
    "gateway.retries": (ALL, "model_calls", "backend attempts beyond one per Gateway.complete"),
    "server.inflight_mean": (("infer-http", "connected-http"), "wall_s",
                             "time-weighted calls in flight at the fake servers"),
    "server.connections_per_call": (("infer-http", "connected-http"), "cpu_ms_per_call",
                                    "TCP connections per request"),
    "executor.threads_started": (INFER, "cpu_ms_per_call", "threading.Thread.start calls"),
    "executor.rounds_per_doc": (INFER, "model_calls", "rounds per document"),
    "executor.vote_agreement": (INFER, "model_calls",
                                "share of rounds agreeing with the final label"),
    "executor.repaired_runs": (INFER, "parsed_run_share", "runs parsed after a repair"),
    "executor.unparseable_runs": (INFER, "parsed_run_share", "runs unparseable after a repair"),
    "executor.output_bytes": (INFER, "first_output_s", "predictions file size"),
    "parsing.failures": (ALL, "parsed_run_share", "OutputParseError raised by parsing"),
    "ruledsl.parse_logic_calls": (ALL, "cpu_ms_per_call", "parse_logic calls"),
    "validator.cases_run": (("connected-http",), "wall_s", "synthetic cases executed"),
    "validator.revisions": (("connected-http",), "wall_s", "refinements used"),
    "planner.cloud_calls": (("connected-http",), "wall_s", "cloud-phase Gateway.complete calls"),
    "planner.repairs": (("connected-http",), "wall_s", "cloud calls carrying the repair template"),
    "trace.overhead_share": (ALL, "-", "traced wall time over untraced wall time"),
}

SPLIT_LAYERS = ("startup", "cli", "config", "bundle", "planner", "validator", "executor",
                "gateway", "model", "parsing", "ruledsl")


def load_units(root: Path, section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, in its order."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

class Command:
    """The spans of one traced child, with its spawn and exit times as seen
    by the benchmark process."""

    def __init__(self, spawned: float, exited: float, spans_path: Path):
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        self.spawned = spawned
        self.exited = exited
        self.counts: dict[str, float] = data["counts"]
        self.spans = {s[0]: s for s in data["spans"]}  # id -> (id, parent, name, start, end, ord, err)
        self.children: dict[int | None, list[int]] = defaultdict(list)
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for span in data["spans"]:
            self.children[span[1] if span[1] in self.spans else None].append(span[0])
            self.by_name[span[2]].append(span)

    def named(self, *names: str) -> list[tuple]:
        return [s for name in names for s in self.by_name.get(name, ())]

    def self_time(self, sid: int) -> float:
        _, _, _, start, end, _, _ = self.spans[sid]
        covered = _union([(self.spans[c][3], self.spans[c][4]) for c in self.children[sid]],
                         start, end)
        return (end - start) - covered

    def subtree(self, sid: int):
        stack = [sid]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self.children[node])

    def split(self) -> dict[str, float]:
        """Partition [spawned, exited] among layers (see module docstring)."""
        layer = {sid: _layer(s[2]) for sid, s in self.spans.items()}
        parent = {sid: (s[1] if s[1] in self.spans else 0) for sid, s in self.spans.items()}
        layer[0] = "startup"
        events = [(self.spawned, 1, 0), (self.exited, 0, 0)]
        for sid, s in self.spans.items():
            events += [(s[3], 1, sid), (s[4], 0, sid)]
        events.sort()
        out: dict[str, float] = defaultdict(float)
        active: set[int] = set()
        open_children: dict[int, int] = defaultdict(int)
        leaves: set[int] = set()
        prev = None
        for t, starting, sid in events:
            if prev is not None and leaves:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    out[layer[leaf]] += share
            prev = t
            p = parent.get(sid)
            if starting:
                active.add(sid)
                leaves.add(sid)
                if sid and p in active:
                    open_children[p] += 1
                    leaves.discard(p)
            else:
                active.discard(sid)
                leaves.discard(sid)
                if sid and p in active:
                    open_children[p] -= 1
                    if open_children[p] == 0:
                        leaves.add(p)
        return out


def _layer(name: str) -> str:
    return "model" if name == "gateway.backend" else name.split(".", 1)[0]


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def percentile_tail(values: list[float]) -> tuple[float, str]:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it,
    else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        if n * (1 - q) >= 10:
            return ordered[min(n - 1, int(q * n))], label
    return ordered[-1], "max"


def _p50(values: list[float]) -> float:
    return median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

_SCALE = {"ms": 1e3, "us": 1e6}


@dataclass
class PassSummary:
    """What one traced pass contributes: timing samples in seconds, counts,
    and the layer split in seconds."""

    samples: dict[str, list[float]]
    counts: dict[str, float]
    split: dict[str, float]


def summarize_pass(commands: list[Command]) -> PassSummary:
    split: dict[str, float] = defaultdict(float)
    for cmd in commands:
        for layer, seconds in cmd.split().items():
            split[layer] += seconds
    return PassSummary(_timing_samples(commands), _pass_counts(commands), split)


def _timing_samples(commands: list[Command]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = defaultdict(list)

    def durations(metric: str, cmd: Command, *names: str) -> None:
        samples[metric] += [s[4] - s[3] for s in cmd.named(*names)]

    def per_command(metric: str, cmd: Command, *names: str) -> None:
        spans = cmd.named(*names)
        if spans:
            samples[metric].append(sum(s[4] - s[3] for s in spans))

    for cmd in commands:
        calls = cmd.named("gateway.complete")
        if calls:
            samples["cli.setup_ms"].append(min(s[3] for s in calls) - cmd.spawned)
            break
    for cmd in commands:
        durations("config.load_ms", cmd, "config.load_config")
        per_command("bundle.unpack_ms", cmd, "bundle.read_bundle")
        per_command("bundle.pack_ms", cmd, "bundle.pack", "bundle.write_bundle")
        per_command("bundle.plan_io_ms", cmd, "bundle.save_plan", "bundle.load_plan",
                    "bundle.to_plan")
        durations("gateway.open_ms", cmd, "gateway.open")
        durations("gateway.backend_ms", cmd, "gateway.backend")
        samples["gateway.self_ms"] += [cmd.self_time(s[0])
                                       for s in cmd.named("gateway.complete")]
        durations("gateway.request_digest_us", cmd, "gateway.request_digest")
        durations("executor.run_document_ms", cmd, "executor.run_document")
        for doc in cmd.named("executor.run_document"):
            samples["executor.self_ms"].append(sum(
                cmd.self_time(sid) for sid in cmd.subtree(doc[0])
                if cmd.spans[sid][2].startswith("executor.")))
        durations("executor.majority_vote_us", cmd, "executor.majority_vote")
        durations("executor.load_documents_ms", cmd, "executor.load_documents")
        durations("executor.write_predictions_ms", cmd, "executor.write_predictions")
        durations("parsing.parse_us", cmd, "parsing.parse_subtask_output")
        durations("ruledsl.parse_logic_ms", cmd, "ruledsl.parse_logic")
        durations("ruledsl.evaluate_us", cmd, "ruledsl.evaluate")
        durations("validator.validate_prompt_ms", cmd, "validator.validate_prompt")
        durations("planner.decompose_ms", cmd, "planner.decompose")
        durations("planner.synthetic_ms", cmd, "planner.generate_synthetic")
        durations("planner.refine_ms", cmd, "planner.refine_prompt")
    return samples


def _pass_counts(commands: list[Command]) -> dict[str, float]:
    c: dict[str, float] = defaultdict(float)
    for cmd in commands:
        for name, value in cmd.counts.items():
            c[name] += value
        complete = len(cmd.named("gateway.complete"))
        c["gateway.calls"] += complete
        c["gateway.retries"] += len(cmd.named("gateway.backend")) - complete
        c["parsing.failures"] += sum(1 for s in cmd.spans.values()
                                     if s[2].startswith("parsing.") and s[6] == "OutputParseError")
    docs = c.pop("executor.documents", 0)
    rounds = c.pop("executor.rounds", 0)
    agreeing = c.pop("executor.agreeing_rounds", 0)
    c["executor.rounds_per_doc"] = rounds / docs if docs else 0.0
    c["executor.vote_agreement"] = agreeing / rounds if rounds else 0.0
    c["executor.repaired_runs"] = c.pop("executor.runs_repaired", 0)
    c["executor.unparseable_runs"] = c.pop("executor.runs_unparseable", 0)
    c.pop("executor.runs_ok", None)
    return c


def per_layer_metrics(passes: list[PassSummary], server_means: dict[str, float],
                      overhead_share: float, units: dict[str, str]
                      ) -> tuple[dict[str, float], dict[str, str]]:
    """Metric values plus, for timings, which percentile `.tail` is. Timings
    pool every pass's samples and are scaled to the unit `units` gives their
    `.p50`; counts and the split are medians over passes."""
    values: dict[str, float] = {}
    tails: dict[str, str] = {}
    for name in TIMINGS:
        data = [x for p in passes for x in p.samples.get(name, ())]
        scale = _SCALE[units[f"{name}.p50"]]
        values[f"{name}.p50"] = _p50(data) * scale
        tail, label = percentile_tail(data) if data else (0.0, "none")
        values[f"{name}.tail"] = tail * scale
        values[f"{name}.n"] = len(data)
        tails[name] = label
    for name in COUNTS:
        if name.startswith("server.") or name == "trace.overhead_share":
            continue
        values[name] = median([p.counts.get(name, 0.0) for p in passes])
    values.update(server_means)
    values["trace.overhead_share"] = overhead_share
    for layer in SPLIT_LAYERS:
        values[f"split.{layer}_ms"] = median([p.split.get(layer, 0.0) for p in passes]) * 1e3
    return values, tails
