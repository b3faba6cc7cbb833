"""Config file parsing and profile construction."""

from __future__ import annotations

import pytest

from orchkit.config import Config, load_config, parse_config


def test_defaults():
    config = Config()
    assert config.rounds == 5
    assert config.threshold == 0.80
    assert config.max_iters == 5
    assert config.synthetic_cases_per_subtask == 10
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
rounds = 7        # per-document rounds
threshold = 0.9
validation_repeats = 2
""")
    cloud = config.cloud.to_profile("cloud")
    local = config.local.to_profile("local")
    assert cloud.kind == "cloud_http" and cloud.default_temperature == 0.8
    assert local.default_temperature == 0.15 and local.default_context == 16384
    assert config.rounds == 7 and config.threshold == 0.9
    assert config.validation_repeats == 2


def test_scripted_profile_needs_session():
    config = parse_config("cloud.kind = scripted\n")
    with pytest.raises(ValueError, match="session"):
        config.cloud.to_profile("cloud")


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
