"""Byte forms pinned across revisions.

The planner and the executor never share a process; they meet only through
files and content digests. These SHA-256 values were computed once and are
pinned here, so a change to any serialization (key order, separators,
escaping, trailing newline) fails this test instead of silently breaking
replay of recorded sessions or verification of existing bundles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from orchkit.bundle import pack
from orchkit.cli import main
from orchkit.gateway import ChatRequest, request_digest
from orchkit.planner import task_digest

from conftest import build_e2e_workspace, golden_task, refined_plan, vessel_schema

REQUEST_DIGEST = "0d4a3bc64dafa3220b2d80c42774e7ce0bb7b8a7f9bb700fb96599873a542282"
TASK_DIGEST = "a90f9d18cba8f811dacd1d0fd666d94201f9a007aae90d9ad3afec9a6ab4836e"
REFINED_BUNDLE = "9d50339aa9b948acd2cf4ef5048c32a017ed092a8e37a2c463446c438188b3a3"

CLI_FILES = {
    "plan.json": "e890bf25a766776a625e00b26bf031f83ef81bcc41ff0c222501b7fb57e36844",
    "validated.json": "b82280fa6e0094abf941676342efe775ef15c37d82e18809993417a47215f07b",
    "history.json": "fe96d95cfca7b686db5238940ecac3489156ab8399d1652e9d1fddca7abeae93",
    "artifact.orchb": "9640ba7d0cb30f8c5c88988d2ac4a17329d213b3a35aeba52f76e84eee2b2db3",
    "unpacked.json": "b82280fa6e0094abf941676342efe775ef15c37d82e18809993417a47215f07b",
    "preds.jsonl": "fad9285371bd692adee36a2735735777c6a937f7d4aeb9b3abbfd122a8207001",
    "summary.json": "8db82ce105ce3b647242fb62070fc2f749ff204d1a41c35d55be2dda6eadb6be",
    "report.json": "a8a4aa78a54a81ebb01814369499e32e4b753a8da96a7317ee2d0c2f5f1a5072",
    "confusion.csv": "a26dd6fb8e03fe760cbdaeea77aa90ca9960ba8ad532f92bed5b10c42691f4ad",
    # Both sessions are recorded from concurrent lanes (plan's synthetic sets,
    # validation's cases), so only the set of lines is stable.
    "cloud.jsonl (sorted lines)": "19d9f330386ff6d3d54dcea0762abd5d626344f049235a5692334f97c5b51365",
    "local.jsonl (sorted lines)": "37928ef04d808c6509bd4412bf44abaa563fa984b686ac6f3b1141f59d7d9a19",
}

# Table, confusion matrix and accuracy line, byte for byte (table cells are
# left-justified, so the last column keeps its padding).
EVALUATE_STDOUT = "\n".join([
    "Condition  Accuracy  Kappa  Scored  Excluded",
    "---------  --------  -----  ------  --------",
    "system     75.00%    0.667  4       1       ",
    "",
    "confusion matrix (rows = ground truth, columns = predicted):",
    "                                  Resectable  Borderline Resectable"
    "       Locally Advanced             Metastatic",
    "             Resectable                      1                      1"
    "                      0                      0",
    "  Borderline Resectable                      0                      0"
    "                      0                      0",
    "       Locally Advanced                      0                      0"
    "                      1                      0",
    "             Metastatic                      0                      0"
    "                      0                      1",
    "",
    "accuracy: 75.00% (4 scored = 5 total - 1 indeterminate)",
    "",
])


SESSION_FILES = ("cloud.jsonl (sorted lines)", "local.jsonl (sorted lines)")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_request_digest_is_pinned():
    request = ChatRequest(system_prompt="Système : extraire les champs — «vaisseaux».",
                          user_content="Rapport : encasement de la VMS ✓ 肝転移なし",
                          temperature=0.2, max_context_tokens=4096,
                          response_schema=vessel_schema())
    assert request_digest(request) == REQUEST_DIGEST


def test_task_digest_is_pinned():
    assert task_digest(golden_task()) == TASK_DIGEST


def test_packed_refined_plan_is_pinned():
    assert sha256(pack(refined_plan())) == REFINED_BUNDLE


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory) -> dict[str, str]:
    """Every file one full CLI run writes over the end-to-end fixture, and
    what its last step, `evaluate`, prints."""
    ws = build_e2e_workspace(tmp_path_factory.mktemp("pinned"))
    out = ws["root"] / "out"
    out.mkdir()
    f = {name: str(out / name) for name in CLI_FILES if name not in SESSION_FILES}
    config = ("--config", str(ws["config"]))
    steps = [
        ("plan", "--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
         "--prefs", str(ws["prefs"]), "--out", f["plan.json"], *config, "--deterministic"),
        ("validate", "--plan", f["plan.json"], "--out", f["validated.json"], *config,
         "--emit-history", f["history.json"]),
        ("pack", "--plan", f["validated.json"], "--out", f["artifact.orchb"], *config,
         "--include-guideline", str(ws["guideline"]), "--deterministic"),
        ("unpack", "--bundle", f["artifact.orchb"], "--out", f["unpacked.json"]),
        ("infer", "--bundle", f["artifact.orchb"], "--docs", str(ws["docs"]),
         "--out", f["preds.jsonl"], "--summary", f["summary.json"], *config,
         "--deterministic", "--revalidate"),
        ("evaluate", "--pred", f["preds.jsonl"], "--gt", str(ws["gt"]),
         "--labels-from-summary", f["summary.json"], "--out", f["report.json"],
         "--confusion-csv", f["confusion.csv"]),
    ]
    for argv in steps:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(list(argv)) == 0, argv[0]
    digests = {name: sha256((out / name).read_bytes()) for name in f}
    digests["evaluate stdout"] = stdout.getvalue()
    for name, session in (("cloud.jsonl", ws["cloud_session"]),
                          ("local.jsonl", ws["local_session"])):
        lines = sorted(session.read_bytes().splitlines(keepends=True))
        digests[f"{name} (sorted lines)"] = sha256(b"".join(lines))
    return digests


@pytest.mark.parametrize("name", sorted(CLI_FILES))
def test_cli_output_is_pinned(cli_run, name):
    assert cli_run[name] == CLI_FILES[name]


def test_evaluate_stdout_is_pinned(cli_run):
    assert cli_run["evaluate stdout"] == EVALUATE_STDOUT
