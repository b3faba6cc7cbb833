"""Every golden JSON input of the CLI, mutated at one node, through cli.main.

Each mutation swaps one node of an input's JSON tree for null, a string, a
list, an object or a number, or drops it from its parent. The inputs are the
files an operator hands the CLI (preferences, plan file, summary, documents,
a recorded session, a bundle re-rendered with recomputed hashes) and the
model replies it reads (cloud plan, case and rewrite replies, local
replies). Whatever the mutation, `main` returns 0, 2, 3, 4, 5 or 6, no
exception escapes it, and every failure but a validation result (exit 5)
prints exactly one `error:` line.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path
from unittest import mock

import pytest

from orchkit import bundle, cli
from orchkit.gateway import BackendProfile, Gateway, ScriptedBackend

from conftest import (
    E2E_PLAN_REPLY,
    build_e2e_workspace,
    e2e_cloud_handler,
    fake_local_extractor,
    golden_cases,
    golden_plan,
    stuck_local_handler,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# A mutated case count or case reply can leave values uncovered; planning
# warns and goes on, which is the behaviour these runs expect.
pytestmark = [pytest.mark.filterwarnings("ignore::orchkit.errors.CoverageUnreachableWarning"),
              pytest.mark.filterwarnings("ignore::orchkit.errors.CoverageIncompleteWarning")]

EXIT_CODES = {0, 2, 3, 4, 5, 6}
DROP = object()  # the mutation that removes a node from its parent
REPLACEMENTS = [None, "", "x", [], ["x"], [1], {}, {"x": "x"}, 0, 1, -3, 2.9, True, DROP]


def _paths(value, path=()):
    """The path to every node of a JSON tree, the root first."""
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, (*path, key))


def _mutated(tree, path, replacement):
    if not path:
        return None if replacement is DROP else copy.deepcopy(replacement)
    tree = copy.deepcopy(tree)
    parent = reduce(getitem, path[:-1], tree)
    if replacement is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(replacement)
    return tree


def mutations(tree, *, depth: int = 0):
    """One-node mutations of `tree` at paths at least `depth` long."""
    paths = [p for p in _paths(tree) if len(p) >= depth]
    return st.builds(lambda p, r: _mutated(tree, p, r),
                     st.sampled_from(paths), st.sampled_from(REPLACEMENTS))


def _jsonl(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The workspace's inputs, and the plan, bundle and summary the CLI makes
    from them over the recorded sessions."""
    ws = build_e2e_workspace(tmp_path_factory.mktemp("fuzz"))
    root, config = ws["root"], str(ws["config"])
    files = {name: root / name for name in ("plan.json", "validated.json",
                                            "artifact.orchb", "preds.jsonl",
                                            "summary.json")}
    cli_ok = [
        ["plan", "--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
         "--prefs", str(ws["prefs"]), "--out", str(files["plan.json"]), "--deterministic"],
        ["validate", "--plan", str(files["plan.json"]), "--out", str(files["validated.json"])],
        ["pack", "--plan", str(files["validated.json"]), "--out", str(files["artifact.orchb"]),
         "--deterministic"],
        ["infer", "--bundle", str(files["artifact.orchb"]), "--docs", str(ws["docs"]),
         "--out", str(files["preds.jsonl"]), "--summary", str(files["summary.json"]),
         "--deterministic"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in cli_ok:
            assert cli.main([*argv, "--config", config]) == 0
    rewrite_config = root / "rewrite.cfg"
    rewrite_config.write_text(ws["config"].read_text(encoding="utf-8")
                              + "max_iters = 2\n", encoding="utf-8")
    return {**ws, **files, "rewrite_config": rewrite_config}


def _run(argv, *, cloud=e2e_cloud_handler, local=fake_local_extractor, replay=False):
    """`main(argv)` with scripted model channels (the recorded sessions when
    `replay`); checks the exit code and the error line, and returns the code."""
    handlers = {"cloud": cloud, "local": local}

    def scripted(profile, phase):
        return Gateway(BackendProfile.scripted(ScriptedBackend(handlers[phase]),
                                               model=profile.model), phase,
                       sleep=lambda _s: None)

    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        out = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "out"
        if not replay:
            stack.enter_context(mock.patch.object(cli, "Gateway", scripted))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main([*argv, "--out", str(out)])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in EXIT_CODES, err.getvalue()
    if code not in (0, 5):
        assert len(errors) == 1, err.getvalue()
    return code


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _plan_argv(ws, prefs=None):
    return ["plan", "--task", str(ws["task"]), "--guideline", str(ws["guideline"]),
            "--prefs", str(prefs or ws["prefs"]), "--config", str(ws["config"]),
            "--deterministic"]


def _infer_argv(ws, *, bundle_file=None, docs=None, config=None):
    return ["infer", "--bundle", str(bundle_file or ws["artifact.orchb"]),
            "--docs", str(docs or ws["docs"]), "--config", str(config or ws["config"]),
            "--deterministic"]


def _records(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


PREFS = {"output_labels": ["Resectable", "Borderline Resectable", "Locally Advanced",
                          "Metastatic"],
         "max_subtasks": 4, "synthetic_cases_per_subtask": 3,
         "output_format_notes": "one label",
         "include_entities": ["liver"], "exclude_entities": ["lung"]}


@hypothesis.settings(max_examples=150)
@hypothesis.given(mutations(PREFS))
def test_mutated_prefs(golden, prefs):
    _run(_plan_argv(golden, _write(golden["root"] / "m-prefs.json", json.dumps(prefs))))


PLAN_FILE = {"format": "orchkit-plan/1", "plan": bundle.plan_to_dict(golden_plan())}


@hypothesis.settings(max_examples=300)
@hypothesis.given(mutations(PLAN_FILE))
def test_mutated_plan_file(golden, plan_file):
    path = _write(golden["root"] / "m-plan.json", json.dumps(plan_file))
    _run(["validate", "--plan", path, "--config", str(golden["config"])])


@hypothesis.settings(max_examples=100)
@hypothesis.given(st.data())
def test_mutated_summary(golden, data):
    summary = data.draw(mutations(json.loads(golden["summary.json"].read_text(encoding="utf-8"))))
    path = _write(golden["root"] / "m-summary.json", json.dumps(summary))
    _run(["evaluate", "--pred", str(golden["preds.jsonl"]), "--gt", str(golden["gt"]),
          "--labels-from-summary", path])


@hypothesis.settings(max_examples=100)
@hypothesis.given(st.data())
def test_mutated_documents(golden, data):
    docs = data.draw(mutations(_records(golden["docs"]), depth=1))
    _run(_infer_argv(golden, docs=_write(golden["root"] / "m-docs.jsonl", _jsonl(docs))))


@hypothesis.settings(max_examples=150)
@hypothesis.given(st.data())
def test_mutated_session(golden, data):
    session = data.draw(mutations(_records(golden["local_session"]), depth=1))
    path = _write(golden["root"] / "m-local.jsonl", _jsonl(session))
    config = golden["config"].read_text(encoding="utf-8").replace(
        str(golden["local_session"]), path)
    _run(_infer_argv(golden, config=_write(golden["root"] / "m-session.cfg", config)),
         replay=True)


@hypothesis.settings(max_examples=400)
@hypothesis.given(st.data())
def test_mutated_bundle(golden, data):
    sections = json.loads(json.dumps(bundle.read_bundle(golden["artifact.orchb"]).sections))
    mutated = data.draw(mutations(sections, depth=1))
    path = golden["root"] / "m-artifact.orchb"
    path.write_bytes(bundle._render(mutated))
    _run([*_infer_argv(golden, bundle_file=path), "--revalidate"])


def _answering(reply, marker: str, fallback=e2e_cloud_handler):
    """A scripted model that sends `reply` to every request whose system
    prompt holds `marker`, and answers the others as `fallback` does."""
    return lambda request: (json.dumps(reply) if marker in request.system_prompt
                            else fallback(request))


@hypothesis.settings(max_examples=300)
@hypothesis.given(mutations(E2E_PLAN_REPLY))
def test_mutated_plan_reply(golden, reply):
    _run(_plan_argv(golden), cloud=_answering(reply, "Decompose the task"))


SPREAD_CASES = {"cases": [{"input": c.input_text, "expected": dict(c.expected.values)}
                          for c in golden_cases()["distant_spread"]]}


@hypothesis.settings(max_examples=150)
@hypothesis.given(mutations(SPREAD_CASES))
def test_mutated_case_reply(golden, reply):
    _run(_plan_argv(golden), cloud=_answering(reply, "- distant_metastasis ("))


@hypothesis.settings(max_examples=30)
@hypothesis.given(mutations({"system_prompt": "Distant spread: improved instructions."}))
def test_mutated_rewrite_reply(golden, reply):
    _run(["validate", "--plan", str(golden["plan.json"]),
          "--config", str(golden["rewrite_config"])],
         cloud=_answering(reply, "Rewrite the system prompt"), local=stuck_local_handler)


@hypothesis.settings(max_examples=60)
@hypothesis.given(mutations({"reasoning": "the report names a liver lesion",
                             "values": {"distant_metastasis": "present"}}))
def test_mutated_local_reply(golden, reply):
    _run(_infer_argv(golden), local=_answering(reply, "Distant spread", fake_local_extractor))
