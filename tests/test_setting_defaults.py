"""Each run setting's default is written in one place, config.

Every function that takes a run setting as a keyword, and every record that
carries one, must default it to that one value: a literal written again,
and later changed in one place only, fails here. The synthetic-case count
is a preference, not a run setting: its default is UserPrefs's.
"""

from __future__ import annotations

import inspect

import pytest

from orchkit import bundle, config, executor, model, planner, validator
from orchkit.model import replace

# (callable, keyword, the constant its default must be)
KEYWORDS = [
    (executor.iter_documents, "workers", config.DEFAULT_WORKERS),
    (executor.run_documents, "workers", config.DEFAULT_WORKERS),
    (validator.validate_prompt, "repeats", config.DEFAULT_REPEATS),
    (validator.run_refinement_loops, "repeats", config.DEFAULT_REPEATS),
    (validator.run_refinement_loop, "repeats", config.DEFAULT_REPEATS),
    (bundle.pack, "min_cases", config.DEFAULT_MIN_CASES),
    (planner.generate_synthetic, "count", model.UserPrefs.synthetic_cases_per_subtask),
]

# (Config field, the constant it defaults to)
CONFIG_FIELDS = [
    ("min_synthetic_cases", config.DEFAULT_MIN_CASES),
    ("validation_repeats", config.DEFAULT_REPEATS),
    ("workers", config.DEFAULT_WORKERS),
    ("rounds", config.DEFAULT_ROUNDS),
    ("threshold", config.DEFAULT_THRESHOLD),
    ("max_iters", config.DEFAULT_MAX_ITERS),
]


@pytest.mark.parametrize("function, keyword, constant", KEYWORDS,
                         ids=[f"{f.__module__}.{f.__name__}" for f, _, _ in KEYWORDS])
def test_a_keyword_default_is_configs(function, keyword, constant):
    assert inspect.signature(function).parameters[keyword].default == constant


@pytest.mark.parametrize("field, constant", CONFIG_FIELDS, ids=[f for f, _ in CONFIG_FIELDS])
def test_a_config_default_is_configs(field, constant):
    assert getattr(config.Config(), field) == constant


def test_model_writes_no_run_setting_default():
    # validate_plan's floor is its caller's: the config's, or unpack's default.
    assert not hasattr(model, "DEFAULT_MIN_CASES") and not hasattr(config, "DEFAULT_CASES")
    min_cases = inspect.signature(model.validate_plan).parameters["min_cases"]
    assert min_cases.kind is min_cases.KEYWORD_ONLY and min_cases.default is min_cases.empty


def test_the_documented_defaults_are_configs():
    # The config module's docstring shows a file that sets every default.
    block = config.__doc__.split("\n\n")[1]
    assert "workers = " in block
    parsed = config.parse_config(block)
    assert replace(parsed, cloud=config.ProfileConfig(), local=config.ProfileConfig(),
                   templates_dir=None) == config.Config()
    for channel in (config.PHASE_CLOUD, config.PHASE_LOCAL):
        assert getattr(parsed, channel).temperature == config.DEFAULT_TEMPERATURE[channel]
    assert parsed.local.context == config.DEFAULT_CONTEXT
