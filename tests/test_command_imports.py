"""Each CLI command loads only the modules it runs.

Every command is a short-lived process, and importing a module it never
calls costs that process start-up time and memory. Each command below runs
in its own interpreter over the end-to-end replay sessions, then reports
`sys.modules`; the modules it has no use for must be absent. One more
`infer` calls a local model over plain HTTP, at a stdlib keep-alive server,
and a `pack` and an `infer` read a config that sets `templates_dir`.
Two rows import one module alone: the run settings, and the bundle format.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import build_e2e_workspace, fake_local_extractor

ROOT = Path(__file__).resolve().parents[1]

LOADED = ("import json, sys\n"
          "from orchkit import cli\n"
          "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
          "print(json.dumps([code, sorted(sys.modules)]))\n")

# A row that imports one module alone runs this, given the module's name.
IMPORTED = ("import importlib, json, sys\n"
            "importlib.import_module(sys.argv[1])\n"
            "print(json.dumps([0, sorted(sys.modules)]))\n")

_BUNDLE_ONLY = ("orchkit.planner", "orchkit.validator", "orchkit.executor", "orchkit.parsing",
                "orchkit.evalkit", "concurrent.futures", "fractions")

# executor.iter_lanes starts its own threads, so a command that runs lanes
# loads neither concurrent.futures nor the logging it would bring.
_FUTURES = ("concurrent.futures", "logging")

# The gateway speaks HTTP/1.1 on the socket itself: a plain-HTTP model call
# with no proxy variable set loads neither Python's HTTP client (nor the
# email parser its headers go through) nor TLS nor urllib's opener.
_HTTP_CLIENT = ("http.client", "email.parser", "ssl", "urllib.request")

# An ASCII host reaches getaddrinfo as bytes, so the idna codec and what it
# loads stay out of a plain-HTTP call.
_IDNA = ("encodings.idna", "stringprep", "unicodedata")

# orchkit's records are built without `dataclasses`, whose import also
# loads `inspect` (and with it `ast`, `dis` and `tokenize`).
_RECORDS = ("dataclasses", "inspect")

# (command, modules it must not load); commands run in this order, each
# reading what the one before wrote.
ABSENT = {
    # The run settings and the bundle format make no model call.
    "import orchkit.config": ("orchkit.gateway",),
    "import orchkit.bundle": ("orchkit.gateway",),
    # The CLI loads the model gateway only for a command that calls a model.
    "import orchkit.cli": ("orchkit.gateway", "orchkit.bundle", "orchkit.executor",
                           "orchkit.planner", "orchkit.validator", "orchkit.evalkit",
                           *_RECORDS),
    "plan": ("orchkit.validator", "orchkit.evalkit", *_FUTURES, *_RECORDS),
    "validate": ("orchkit.evalkit", *_FUTURES, *_RECORDS),
    "pack": ("orchkit.gateway", *_BUNDLE_ONLY, *_RECORDS),
    "unpack": ("orchkit.gateway", *_BUNDLE_ONLY, *_RECORDS),
    "infer": ("orchkit.planner", "orchkit.validator", "orchkit.evalkit", *_FUTURES,
              *_RECORDS),
    # The templates a config points at are counted without the planner.
    "pack over templates_dir": ("orchkit.gateway", "orchkit.planner"),
    "infer over templates_dir": ("orchkit.planner",),
    "infer over local_http": ("orchkit.planner", "orchkit.validator", "orchkit.evalkit",
                              *_FUTURES, *_HTTP_CLIENT, *_IDNA, *_RECORDS),
    "evaluate": ("orchkit.gateway", "orchkit.bundle", "orchkit.executor", "orchkit.planner",
                 "orchkit.validator", *_RECORDS),
}


class _LocalModel(BaseHTTPRequestHandler):
    """A keep-alive stand-in for Ollama's /api/chat that answers as the
    fixture's extractor."""

    protocol_version = "HTTP/1.1"
    timeout = 10  # a connection left idle this long is closed

    def do_POST(self):  # noqa: N802 - http.server's method name
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        system, user = (message["content"] for message in payload["messages"])
        text = fake_local_extractor(SimpleNamespace(system_prompt=system, user_content=user))
        data = json.dumps({"message": {"role": "assistant", "content": text},
                           "done": True, "done_reason": "stop"}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.server.calls += 1

    def log_message(self, *args):
        pass


@contextmanager
def _local_model():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _LocalModel)
    httpd.calls = 0
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Command -> the modules its process held when it finished."""
    tmp = tmp_path_factory.mktemp("imports")
    ws = build_e2e_workspace(tmp / "ws")
    config = ["--config", str(ws["config"])]
    local_http = tmp / "local_http.cfg"
    templated = tmp / "templated.cfg"
    templated.write_text(ws["config"].read_text(encoding="utf-8")
                         + f"templates_dir = {ROOT / 'src' / 'orchkit' / 'templates'}\n",
                         encoding="utf-8")
    argv = {
        "import orchkit.config": ["orchkit.config"],
        "import orchkit.bundle": ["orchkit.bundle"],
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
        "pack over templates_dir": ["pack", "--plan", tmp / "validated.json",
                                    "--out", tmp / "t.orchb", "--config", templated,
                                    "--deterministic"],
        "infer over templates_dir": ["infer", "--bundle", tmp / "t.orchb", "--docs", ws["docs"],
                                     "--out", tmp / "t_preds.jsonl", "--config", templated,
                                     "--deterministic"],
        "evaluate": ["evaluate", "--pred", tmp / "preds.jsonl", "--gt", ws["gt"],
                     "--labels-from-summary", tmp / "summary.json"],
        "infer over local_http": ["infer", "--bundle", tmp / "a.orchb", "--docs", ws["docs"],
                                  "--out", tmp / "http_preds.jsonl", "--config", local_http,
                                  "--deterministic"],
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    modules = {}
    with _local_model() as server:
        local_http.write_text("cloud.kind = scripted\ncloud.session = unused.jsonl\n"
                              "local.kind = local_http\nlocal.model = small-extractor\n"
                              f"local.endpoint = http://127.0.0.1:{server.server_port}\n",
                              encoding="utf-8")
        for command, args in argv.items():
            child_env = env
            if command == "infer over local_http":  # the route with no proxy
                child_env = {name: value for name, value in env.items()
                             if not name.lower().endswith("_proxy")}
            script = IMPORTED if command in ("import orchkit.config",
                                             "import orchkit.bundle") else LOADED
            done = subprocess.run([sys.executable, "-c", script, *map(str, args)], cwd=tmp,
                                  env=child_env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            code, names = json.loads(done.stdout.splitlines()[-1])
            assert code == 0, (command, done.stderr)
            modules[command] = set(names)
    assert server.calls > 0  # the local_http infer called the model
    return modules


@pytest.mark.parametrize("command", list(ABSENT))
def test_a_command_loads_only_the_modules_it_runs(loaded, command):
    assert sorted(set(ABSENT[command]) & loaded[command]) == []
