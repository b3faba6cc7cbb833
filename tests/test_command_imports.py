"""Each CLI command loads only the modules it runs.

Every command is a short-lived process, and importing a module it never
calls costs that process start-up time and memory. Each command below runs
in its own interpreter over the end-to-end replay sessions, then reports
`sys.modules`; the modules it has no use for must be absent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import build_e2e_workspace

ROOT = Path(__file__).resolve().parents[1]

LOADED = ("import json, sys\n"
          "from orchkit import cli\n"
          "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
          "print(json.dumps([code, sorted(sys.modules)]))\n")

_BUNDLE_ONLY = ("orchkit.planner", "orchkit.validator", "orchkit.executor", "orchkit.parsing",
                "orchkit.evalkit", "concurrent.futures", "fractions")

# executor.iter_lanes starts its own threads, so a command that runs lanes
# loads neither concurrent.futures nor the logging it would bring.
_FUTURES = ("concurrent.futures", "logging")

# (command, modules it must not load); commands run in this order, each
# reading what the one before wrote.
ABSENT = {
    "import orchkit.cli": ("orchkit.bundle", "orchkit.executor", "orchkit.planner",
                           "orchkit.validator", "orchkit.evalkit"),
    "plan": ("orchkit.validator", "orchkit.evalkit", *_FUTURES),
    "validate": ("orchkit.evalkit", *_FUTURES),
    "pack": _BUNDLE_ONLY,
    "unpack": _BUNDLE_ONLY,
    "infer": ("orchkit.planner", "orchkit.validator", "orchkit.evalkit", *_FUTURES),
    "evaluate": ("orchkit.bundle", "orchkit.executor", "orchkit.planner",
                 "orchkit.validator"),
}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Command -> the modules its process held when it finished."""
    tmp = tmp_path_factory.mktemp("imports")
    ws = build_e2e_workspace(tmp / "ws")
    config = ["--config", str(ws["config"])]
    argv = {
        "import orchkit.cli": [],
        "plan": ["plan", "--task", ws["task"], "--guideline", ws["guideline"],
                 "--prefs", ws["prefs"], "--out", tmp / "plan.json", *config,
                 "--deterministic"],
        "validate": ["validate", "--plan", tmp / "plan.json", "--out", tmp / "validated.json",
                     *config],
        "pack": ["pack", "--plan", tmp / "validated.json", "--out", tmp / "a.orchb", *config,
                 "--deterministic"],
        "unpack": ["unpack", "--bundle", tmp / "a.orchb", "--out", tmp / "unpacked.json"],
        "infer": ["infer", "--bundle", tmp / "a.orchb", "--docs", ws["docs"],
                  "--out", tmp / "preds.jsonl", "--summary", tmp / "summary.json", *config,
                  "--deterministic"],
        "evaluate": ["evaluate", "--pred", tmp / "preds.jsonl", "--gt", ws["gt"],
                     "--labels-from-summary", tmp / "summary.json"],
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    modules = {}
    for command, args in argv.items():
        done = subprocess.run([sys.executable, "-c", LOADED, *map(str, args)], cwd=tmp,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        code, names = json.loads(done.stdout.splitlines()[-1])
        assert code == 0, (command, done.stderr)
        modules[command] = set(names)
    return modules


@pytest.mark.parametrize("command", list(ABSENT))
def test_a_command_loads_only_the_modules_it_runs(loaded, command):
    assert sorted(set(ABSENT[command]) & loaded[command]) == []
