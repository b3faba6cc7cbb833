"""Self-test of the benchmark: schema and correctness oracle, no timing gate.

    python3 bench/selftest.py          # from the root of the checkout

Checks that BENCHMARK.json is well-formed, that the hand-written reference
labels agree with the program's rule engine and with the golden plan in
tests/conftest.py, that the oracle rejects wrong, missing and malformed
results, that the fault plan never perturbs more than two replies of a
document, and that every workload runs correctly at a tiny size, traced and
untraced, with a value for every metric BENCHMARK.json lists. Exits 1 on
any failure.
"""

from __future__ import annotations

import ast
import itertools
import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def check_schema() -> None:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    expect(len(raw) <= 64 * 1024, "BENCHMARK.json is over 64 KiB")
    spec = json.loads(raw)
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, f"top-level keys: {sorted(spec)}")
    command = spec["command"]
    expect(isinstance(command, list) and 0 < len(command) <= 32
           and all(isinstance(c, str) and len(c) <= 200 for c in command), "command shape")
    expect(not any(c.startswith("/") or ".." in c.split("/") for c in command),
           "command leaves the checkout")
    paths = spec["paths"]
    expect(1 <= len(paths) <= 16 and all(PATH.match(p) and ".." not in p.split("/")
                                         for p in paths), "paths shape")
    expect(BENCH.name in paths, "the benchmark directory is not listed in paths")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds must be a whole number from 1 to 60")
    names: list[str] = []
    workloads = spec["workloads"]
    expect(2 <= len(workloads) <= 8, "2 to 8 workloads")
    for w in workloads:
        expect(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        expect(w["name"] in WORKLOADS, f"unknown workload {w['name']}")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
        names.append(w["name"])
    e2e = spec["end_to_end"]
    for m in e2e:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys {sorted(m)}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
        names.append(m["name"])
    setup = next((m for m in e2e if m["name"] == "setup_s"), None)
    expect(setup is not None and setup["unit"] == "s" and setup["better"] == "lower"
           and setup["bound"] == max(m["bound"] for m in e2e),
           "setup_s must be in seconds, lower is better, with the largest bound")
    per_layer = spec["per_layer"]
    expect(1 <= len(per_layer) <= 128, "1 to 128 per-layer metrics")
    for m in per_layer:
        expect(set(m) == {"name", "unit", "better"}, f"per_layer keys {sorted(m)}")
        names.append(m["name"])
    for m in e2e + per_layer:
        expect(bool(UNIT.match(m["unit"])), f"unit of {m['name']}")
        expect(m["better"] in ("higher", "lower"), f"better of {m['name']}")
    expect(all(NAME.match(n) for n in names), "a name breaks the naming rule")
    expect(len(names) == len(set(names)), "a name is used twice")


def _conftest_constants() -> dict[str, object]:
    conftest = ROOT / "tests" / "conftest.py"
    if not conftest.is_file():
        return {}
    out = {}
    for node in ast.parse(conftest.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return out


def check_reference() -> None:
    from orchkit.model import FeatureSet
    from orchkit.ruledsl import evaluate

    constants = _conftest_constants()
    if constants:
        expect(constants.get("LABEL_NAMES") == gen.LABEL_NAMES, "labels differ from conftest")
        expect(constants.get("GOLDEN_LOGIC") == gen.GOLDEN_LOGIC, "logic differs from conftest")
    logic = gen.golden_plan().parsed_logic()
    domains = [legal + ("unknown",) for legal in gen.FIELD_VALUES.values()]
    for combo in itertools.product(*domains):
        values = dict(zip(gen.FIELD_VALUES, combo))
        expect(evaluate(logic, FeatureSet(values)).name == gen.reference_label(values),
               f"reference label disagrees with the rule engine on {values}")
    rng = random.Random(0)
    for doc in gen.make_documents(rng, 50):
        expect(gen.read_tokens(doc.body) == doc.values, f"tokens of {doc.id} misread")
        expect(500 <= len(doc.body.encode()) <= 2300, f"{doc.id} is {len(doc.body)} bytes")


def check_oracle(tmp: Path) -> None:
    reference = {"a": "Metastatic", "b": "Resectable"}
    preds = tmp / "preds.jsonl"

    def write(rows: list[dict]) -> None:
        preds.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    def row(doc_id: str, label: str, status: str = "ok") -> dict:
        return {"document_id": doc_id, "final_label": label,
                "rounds": [{"runs": [{"parse_status": status}]}]}

    write([row("a", "Metastatic"), row("b", "Resectable", "repaired")])
    check = oracle.check_infer(0, preds, reference)
    expect(check.ok and check.runs == 2 and check.parse["repaired"] == 1,
           f"correct predictions rejected: {check.problems}")
    expect(not oracle.check_infer(4, preds, reference).ok, "exit code 4 accepted")
    write([row("a", "Metastatic"), row("b", "Metastatic")])
    expect(not oracle.check_infer(0, preds, reference).ok, "wrong label accepted")
    write([row("a", "Metastatic")])
    expect(not oracle.check_infer(0, preds, reference).ok, "missing document accepted")
    write([row("a", "Metastatic"), row("a", "Metastatic"), row("b", "Resectable")])
    expect(not oracle.check_infer(0, preds, reference).ok, "duplicate document accepted")
    preds.write_text('{"document_id": "a"\n', encoding="utf-8")
    expect(not oracle.check_infer(0, preds, {"a": "Metastatic"}).ok, "malformed line accepted")

    plan = tmp / "validated.json"

    def write_plan(status: str, revision: int) -> None:
        prompts = [{"subtask_id": s, "status": status, "revision": revision}
                   for s in (gen.SPREAD, gen.VESSEL)]
        plan.write_text(json.dumps({"plan": {"prompts": prompts}}), encoding="utf-8")

    subtasks = (gen.SPREAD, gen.VESSEL)
    codes = {"plan": 0, "validate": 0, "pack": 0, "unpack": 0}
    write_plan("refined", 2)
    expect(oracle.check_connected(codes, plan, 2, subtasks).ok, "correct plan rejected")
    expect(not oracle.check_connected(codes, plan, 1, subtasks).ok, "wrong revision accepted")
    expect(not oracle.check_connected({**codes, "unpack": 6}, plan, 2, subtasks).ok,
           "failed unpack accepted")
    write_plan("failed", 2)
    expect(not oracle.check_connected(codes, plan, 2, subtasks).ok, "failed prompt accepted")


def check_fault_plan() -> None:
    rng = random.Random(7)
    docs = gen.make_documents(rng, 16)
    faults = gen.make_infer_faults(rng, docs, transient=2, slow=4, recoverable=8)
    per_doc: dict[str, int] = {}
    for (doc, _subtask, occurrence), action in faults.actions.items():
        expect(0 <= occurrence < gen.ROUNDS, "fault outside the first T occurrences")
        if action in ("flip", "unrecoverable"):
            per_doc[doc] = per_doc.get(doc, 0) + 1
    expect(max(per_doc.values()) <= 2, "a document has more than two perturbed replies")
    counts = faults.counts()
    expect(counts.get("transient") == 2 and counts.get("slow") == 4
           and counts.get("recoverable") == 8, f"fault counts {counts}")
    expect(sum(per_doc.values()) == 16, "perturbation count is not fixed")


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "0", "--trace", str(trace),
                           "--size", "tiny"], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def check_tiny_runs() -> None:
    """Every workload runs correctly, traced and untraced. run.py looks up a
    value for each metric BENCHMARK.json lists, so a missing one fails here."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_tiny(workload, trace)
            if code != 0 or result is None:
                failures.append(f"{workload} trace {trace}: exit {code}, no result")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: {result['failed']} of "
                   f"{result['attempted']} passes failed")


def check_bare_directory(tmp: Path) -> None:
    """Without the program next to it, the benchmark must fail fast."""
    bare = tmp / "bare"
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result = run_tiny("infer-replay", 0, cwd=bare)
    expect(code != 0 and result is None, "benchmark ran without the program")


def main() -> int:
    tmp = ROOT / ".bench_work" / f"selftest-{time.time_ns()}"
    tmp.mkdir(parents=True)
    try:
        check_schema()
        check_reference()
        check_oracle(tmp)
        check_fault_plan()
        check_bare_directory(tmp)
        check_tiny_runs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # benchmark runs' work directories are still there
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
