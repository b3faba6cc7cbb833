"""Config file parsing and profile construction."""

from __future__ import annotations

import pytest

from orchkit.cli import main
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


@pytest.mark.parametrize("text, message", [
    ("synthetic_cases_per_subtask = 0\n",
     "config: synthetic_cases_per_subtask must be >= 1, got 0"),
    ("min_synthetic_cases = -3\n", "config: min_synthetic_cases must be >= 0, got -3"),
], ids=["synthetic_cases_per_subtask", "min_synthetic_cases"])
def test_case_counts_bounded_at_load(text, message):
    with pytest.raises(ValueError) as err:
        parse_config(text)
    assert str(err.value) == message


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
def test_temperature_outside_0_to_2_names_its_line(channel, value, tmp_path):
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
    assert not out.exists()


def test_temperature_bounds_are_accepted():
    config = parse_config("local.temperature = 0\ncloud.temperature = 2\n")
    assert (config.local.temperature, config.cloud.temperature) == (0.0, 2.0)
