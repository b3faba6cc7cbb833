"""Config file parsing and profile construction."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from orchkit import bundle
from orchkit.bundle import pack, read_bundle, write_bundle
from orchkit.cli import main
from orchkit.config import DEFAULT_CONTEXT, Config, RuntimeDefaults, load_config, parse_config
from orchkit.gateway import Gateway
from orchkit.model import record_fields

from conftest import refined_plan


def test_defaults():
    config = Config()
    assert config.rounds == 5
    assert config.threshold == 0.80
    assert config.max_iters == 5
    assert config.validation_repeats == 1
    assert config.workers == 1


def test_parse_full_file():
    config = parse_config("""
# channels
cloud.kind = cloud_http
cloud.endpoint = https://api.example/v1
cloud.model = planner-xl
local.kind = local_http
local.endpoint = http://127.0.0.1:11434
local.model = extractor-s
local.temperature = 0.15
local.context = 16384
local.session = /data/run#2/local.jsonl  # a '#' inside a value is kept
  # indented comment
rounds = 7        # per-document rounds
threshold = 0.9
validation_repeats = 2
templates_dir = /srv/templates#v3
""")
    cloud = config.cloud.to_profile("cloud")
    local = config.local.to_profile("local")
    assert cloud.kind == "cloud_http" and cloud.default_temperature == 0.8
    assert local.default_temperature == 0.15 and local.default_context == 16384
    assert config.rounds == 7 and config.threshold == 0.9
    assert config.validation_repeats == 2
    assert config.local.session == "/data/run#2/local.jsonl"
    assert config.templates_dir == "/srv/templates#v3"


@pytest.mark.parametrize("channel, kind", [("cloud", "cloud_http"), ("local", "local_http")])
def test_a_channels_gateway_has_its_phase_and_the_profile_to_profile_gives(channel, kind):
    """A bundle's runtime fills only what the config leaves unset: here the
    context, not the temperature."""
    config = parse_config(f"{channel}.kind = {kind}\n{channel}.endpoint = http://127.0.0.1:9\n"
                          f"{channel}.temperature = 0.3\n")
    runtime = RuntimeDefaults(local_temperature=0.5, local_context=4096)
    for given, settings in ((None, (0.3, DEFAULT_CONTEXT)), (runtime, (0.3, 4096))):
        with config.gateway(channel, given) as gateway:
            assert gateway.phase == channel
            assert gateway.profile == getattr(config, channel).to_profile(channel, given)
            assert (gateway.profile.default_temperature,
                    gateway.profile.default_context) == settings


def test_scripted_profile_needs_session():
    config = parse_config("cloud.kind = scripted\n")
    with pytest.raises(ValueError, match="session"):
        config.cloud.to_profile("cloud")


@pytest.mark.parametrize("text, files", [
    ("", []),
    ("local.session = l.jsonl\ncloud.kind = scripted\n", [("local.session", "l.jsonl")]),
    ("templates_dir = t\nlocal.session = l.jsonl\ncloud.session = c.jsonl\n",
     [("cloud.session", "c.jsonl"), ("local.session", "l.jsonl"),
      *(("templates_dir", Path("t", f"{name}.txt"))
        for name in ("decompose", "synthetic", "refine", "repair"))]),
], ids=["none", "one session", "sessions and templates"])
def test_a_config_names_its_sessions_then_its_templates_in_a_fixed_order(text, files):
    """The files a command counts as --config's: cloud's session, local's, then
    the templates in TemplateSet's order, whatever the file's line order."""
    assert list(parse_config(text).files()) == files
    assert list(Config().files()) == []


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("velocity = 11\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("cloud.speed = 9\n")


def test_invariants_rejected():
    with pytest.raises(ValueError, match="threshold"):
        parse_config("threshold = 1.5\n")
    with pytest.raises(ValueError, match="rounds"):
        parse_config("rounds = 0\n")
    with pytest.raises(ValueError, match="context"):
        parse_config("local.kind = scripted\nlocal.session = s.jsonl\nlocal.context = 0\n")


def test_case_floor_bounded_at_load():
    with pytest.raises(ValueError) as err:
        parse_config("min_synthetic_cases = 0\n")
    assert str(err.value) == "config: min_synthetic_cases must be >= 1, got 0"


def test_the_case_count_is_no_config_key():
    with pytest.raises(ValueError) as err:
        parse_config("rounds = 3\nsynthetic_cases_per_subtask = 7\n")
    assert str(err.value) == "config line 2: unknown key 'synthetic_cases_per_subtask'"


LABELS = {"output_labels": ["low", "high"]}


@pytest.mark.parametrize("count", [1, 3, 7, 10])
def test_a_prefs_file_without_a_case_count_gets_userprefs_default(count):
    # Every count the config has, at `count`: none of them is the case count.
    config = Config(**{name: count for name in record_fields(Config)
                       if isinstance(getattr(Config(), name), int)})
    assert config.preferences(LABELS).synthetic_cases_per_subtask == 10
    prefs = config.preferences({**LABELS, "synthetic_cases_per_subtask": 12})
    assert prefs.synthetic_cases_per_subtask == 12


def test_a_prefs_case_count_below_the_configs_floor_is_refused():
    prefs = Config(min_synthetic_cases=3).preferences({**LABELS, "synthetic_cases_per_subtask": 3})
    assert prefs.synthetic_cases_per_subtask == 3
    with pytest.raises(ValueError) as err:
        Config(min_synthetic_cases=11).preferences(LABELS)
    assert str(err.value) == ("synthetic_cases_per_subtask is 10, below the config's "
                              "min_synthetic_cases of 11")


def test_a_config_allowing_an_empty_synthetic_set_is_refused_naming_its_file(tmp_path):
    # Every subtask keeps at least one case, so `validate` and `--revalidate`
    # have something to run for each.
    path = tmp_path / "orch.cfg"
    path.write_text("min_synthetic_cases = 0\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: config: min_synthetic_cases must be >= 1, got 0"


def test_env_var_names_the_config(tmp_path, monkeypatch):
    path = tmp_path / "orch.cfg"
    path.write_text("rounds = 9\n", encoding="utf-8")
    monkeypatch.setenv("ORCH_CONFIG", str(path))
    assert load_config().rounds == 9
    monkeypatch.delenv("ORCH_CONFIG")
    assert load_config().rounds == 5


@pytest.mark.parametrize("line, message", [
    ("workers = four", "config line 2: workers must be an integer, got 'four'"),
    ("threshold = high", "config line 2: threshold must be a number, got 'high'"),
    ("local.temperature = hot", "config line 2: local.temperature must be a number, got 'hot'"),
    ("local.context = big", "config line 2: local.context must be an integer, got 'big'"),
], ids=["workers", "threshold", "local.temperature", "local.context"])
def test_non_numeric_value_names_its_line(line, message):
    with pytest.raises(ValueError) as info:
        parse_config(f"rounds = 3\n{line}\n")
    assert str(info.value) == message


@pytest.mark.parametrize("channel", ["local", "cloud"])
@pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-0.1", "2.5"])
def test_temperature_outside_0_to_2_names_its_line(channel, value, tmp_path, capsys):
    text = f"rounds = 3\n{channel}.temperature = {value}\n"
    message = f"config line 2: {channel}.temperature must be in [0, 2], got {value!r}"
    with pytest.raises(ValueError) as info:
        parse_config(text)
    assert str(info.value) == message
    path = tmp_path / "orch.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "preds.jsonl"
    assert main(["infer", "--bundle", str(tmp_path / "a.orchb"), "--docs",
                 str(tmp_path / "docs.jsonl"), "--out", str(out), "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_temperature_bounds_are_accepted():
    config = parse_config("local.temperature = 0\ncloud.temperature = 2\n")
    assert (config.local.temperature, config.cloud.temperature) == (0.0, 2.0)


@pytest.mark.parametrize("key, value", [
    ("local.endpoint", "127.0.0.1:11434"),
    ("local.endpoint", "localhost:11434"),
    ("local.endpoint", "http://"),
    ("local.endpoint", "http://[::1"),
    ("cloud.endpoint", "ftp://api.example/v1"),
    ("local.endpoint", "http://127.0.0.1:abc"),
    ("local.endpoint", "http://127.0.0.1:99999"),
])
def test_endpoint_must_be_an_http_url(key, value):
    with pytest.raises(ValueError) as info:
        parse_config(f"rounds = 3\n{key} = {value}\n")
    assert str(info.value) == (
        f"config line 2: {key} must be an http:// or https:// URL, got {value!r}")


def test_infer_refuses_an_endpoint_without_a_scheme_before_any_model_call(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "orch.cfg"
    path.write_text("local.kind = local_http\nlocal.endpoint = 127.0.0.1:11434\n"
                    "local.model = small-extractor\n", encoding="utf-8")
    bundle_file = tmp_path / "a.orchb"
    write_bundle(pack(refined_plan()), bundle_file)
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "d1", "body": "one"}\n', encoding="utf-8")
    calls = []
    monkeypatch.setattr(Gateway, "complete", lambda self, request: calls.append(request))
    out = tmp_path / "preds.jsonl"
    assert main(["infer", "--bundle", str(bundle_file), "--docs", str(docs),
                 "--out", str(out), "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: config line 2: local.endpoint must be an http:// or https:// "
        "URL, got '127.0.0.1:11434'\n")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("channel", ["local", "cloud"])
def test_unknown_channel_kind_names_its_line(channel, tmp_path, capsys):
    text = f"rounds = 3\n{channel}.kind = ollama\n"
    message = (f"config line 2: {channel}.kind must be one of cloud_http, local_http, "
               "scripted, got 'ollama'")
    with pytest.raises(ValueError) as info:
        parse_config(text)
    assert str(info.value) == message
    path = tmp_path / "orch.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "preds.jsonl"
    assert main(["infer", "--bundle", str(tmp_path / "a.orchb"), "--docs",
                 str(tmp_path / "docs.jsonl"), "--out", str(out), "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_unset_channel_kind_keeps_its_message():
    config = parse_config("local.endpoint = http://127.0.0.1:11434\n")
    with pytest.raises(ValueError) as info:
        config.local.to_profile("local")
    assert str(info.value) == "config: local.kind is not configured"


@pytest.mark.parametrize("channel", ["local", "cloud"])
def test_context_below_1_names_its_line(channel):
    with pytest.raises(ValueError) as info:
        parse_config(f"rounds = 3\n{channel}.context = 0\n")
    assert str(info.value) == f"config line 2: {channel}.context must be >= 1, got '0'"


# Setting -> (its config line, its key in a bundle's runtime section). The
# config file and the bundle share one range check, so each refuses or
# accepts every value below alike.
_SETTINGS = {"rounds": ("rounds = {}", "rounds"), "threshold": ("threshold = {}", "threshold"),
             "temperature": ("local.temperature = {}", "local_temperature"),
             "context": ("local.context = {}", "local_context")}
_OUT_OF_RANGE = [("rounds", 0), ("threshold", 0), ("threshold", 1.5), ("temperature", -0.1),
                 ("temperature", 2.5), ("context", 0), ("rounds", True)]
_EDGES = [("rounds", 1), ("threshold", 1), ("temperature", 0), ("temperature", 2),
          ("context", 1)]


def _config_and_bundle(tmp_path, setting, value):
    """A config file and a re-rendered bundle, each setting `setting` to `value`."""
    line, key = _SETTINGS[setting]
    config = tmp_path / "orch.cfg"
    config.write_text("local.kind = scripted\nlocal.session = local.jsonl\n"
                      + line.format(json.dumps(value)) + "\n", encoding="utf-8")
    sections = json.loads(json.dumps(bundle.unpack(pack(refined_plan())).sections))
    sections["runtime"][key] = value
    bundle_file = tmp_path / "a.orchb"
    bundle_file.write_bytes(bundle._render(sections))
    return config, bundle_file


@pytest.mark.parametrize("setting, value", _OUT_OF_RANGE,
                         ids=[f"{s} {v}" for s, v in _OUT_OF_RANGE])
def test_config_file_and_bundle_refuse_the_same_values(tmp_path, capsys, setting, value):
    config, bundle_file = _config_and_bundle(tmp_path, setting, value)
    out = tmp_path / "plan.json"
    capsys.readouterr()
    assert main(["pack", "--plan", str(tmp_path / "none.json"), "--out", str(out),
                 "--config", str(config)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {config}: config")
    assert main(["unpack", "--bundle", str(bundle_file), "--out", str(out)]) == 6
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bundle_file}: ")
    assert not out.exists()


@pytest.mark.parametrize("setting, value", _EDGES, ids=[f"{s} {v}" for s, v in _EDGES])
def test_config_file_and_bundle_accept_the_same_edges(tmp_path, setting, value):
    config, bundle_file = _config_and_bundle(tmp_path, setting, value)
    loaded = load_config(config)
    profile = loaded.local if setting in ("temperature", "context") else loaded
    assert getattr(profile, setting) == value
    assert main(["unpack", "--bundle", str(bundle_file), "--out",
                 str(tmp_path / "plan.json")]) == 0
    assert getattr(read_bundle(bundle_file).runtime, _SETTINGS[setting][1]) == value
