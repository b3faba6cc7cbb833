"""Each run setting's default is written in one place.

config holds the defaults, but for the two that model writes for its own
UserPrefs and validate_plan and config reads. Every function that takes a
run setting as a keyword, and every record that carries one, must default
it to that one value: a literal written again, and later changed in one
place only, fails here.
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
    (model.validate_plan, "min_cases", config.DEFAULT_MIN_CASES),
    (planner.generate_synthetic, "count", config.DEFAULT_CASES),
]

# (Config field, the constant it defaults to)
CONFIG_FIELDS = [
    ("synthetic_cases_per_subtask", config.DEFAULT_CASES),
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


def test_model_writes_the_two_defaults_config_reads():
    assert config.DEFAULT_CASES == model.UserPrefs.synthetic_cases_per_subtask
    assert config.DEFAULT_MIN_CASES is model.DEFAULT_MIN_CASES
    prefs = model.UserPrefs(output_labels=("low", "high"))
    assert prefs.synthetic_cases_per_subtask == config.DEFAULT_CASES


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
