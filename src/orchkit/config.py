"""Operator configuration: a plain-text key-value file with environment
overrides for secrets and flag overrides on top.

    # channels
    cloud.kind = cloud_http          # cloud_http | scripted
    cloud.endpoint = https://api.example.com/v1
    cloud.model = big-planner
    cloud.temperature = 0.8
    local.kind = local_http          # local_http | scripted
    local.endpoint = http://127.0.0.1:11434
    local.model = small-extractor
    local.temperature = 0.2
    local.context = 32768
    # pipeline knobs
    rounds = 5
    threshold = 0.80
    max_iters = 5
    synthetic_cases_per_subtask = 10
    min_synthetic_cases = 1
    validation_repeats = 1
    workers = 1
    templates_dir = /path/to/templates

Secrets never live in the file: the cloud API key comes from
ORCH_CLOUD_API_KEY, and ORCH_CONFIG names the config file when the CLI
flag is absent. Scripted channels replace endpoint/model with
`<channel>.session = <recorded session file>`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .gateway import (
    DEFAULT_CONTEXT,
    DEFAULT_TEMPERATURE,
    KIND_CLOUD_HTTP,
    KIND_LOCAL_HTTP,
    KIND_SCRIPTED,
    BackendProfile,
)

CONFIG_ENV = "ORCH_CONFIG"

_PROFILE_KEYS = ("kind", "endpoint", "model", "temperature", "context", "session")


@dataclass
class ProfileConfig:
    kind: str | None = None
    endpoint: str | None = None
    model: str | None = None
    temperature: float | None = None
    context: int | None = None
    session: str | None = None

    def to_profile(self, channel: str) -> BackendProfile:
        scripted = self.kind == KIND_SCRIPTED
        if not scripted and self.kind not in (KIND_CLOUD_HTTP, KIND_LOCAL_HTTP):
            raise ValueError(f"config: {channel}.kind is not configured")
        if scripted and not self.session:
            raise ValueError(f"config: {channel}.session required for scripted kind")
        if not scripted and not self.endpoint:
            raise ValueError(f"config: {channel}.endpoint required for {self.kind}")
        return BackendProfile(
            kind=self.kind, endpoint=self.endpoint, session=self.session,
            model=self.model or ("scripted" if scripted else ""),
            default_temperature=(DEFAULT_TEMPERATURE[channel] if self.temperature is None
                                 else self.temperature),
            default_context=DEFAULT_CONTEXT if self.context is None else self.context)


@dataclass
class Config:
    cloud: ProfileConfig = field(default_factory=ProfileConfig)
    local: ProfileConfig = field(default_factory=ProfileConfig)
    rounds: int = 5
    threshold: float = 0.80
    max_iters: int = 5
    synthetic_cases_per_subtask: int = 10
    min_synthetic_cases: int = 1
    validation_repeats: int = 1
    workers: int = 1
    templates_dir: str | None = None

    def __post_init__(self):
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError(f"config: threshold must be in (0, 1], got {self.threshold}")
        for name, least in (("rounds", 1), ("max_iters", 1), ("workers", 1),
                            ("validation_repeats", 1), ("synthetic_cases_per_subtask", 1),
                            ("min_synthetic_cases", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"config: {name} must be >= {least}, got {getattr(self, name)}")
        for channel in ("cloud", "local"):
            context = getattr(self, channel).context
            if context is not None and context < 1:
                raise ValueError(f"config: {channel}.context must be >= 1, got {context}")


def parse_config(text: str) -> Config:
    config = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        _apply(config, key, value, lineno)
    # Re-run invariant checks after all assignments.
    Config.__post_init__(config)
    return config


def _apply(config: Config, key: str, value: str, lineno: int) -> None:
    if "." in key:
        channel, _, attr = key.partition(".")
        if channel not in ("cloud", "local") or attr not in _PROFILE_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        profile = getattr(config, channel)
        if attr == "temperature":
            temperature = _number(float, key, value, lineno)
            if not 0.0 <= temperature <= 2.0:  # also rejects nan
                raise ValueError(
                    f"config line {lineno}: {key} must be in [0, 2], got {value!r}")
            profile.temperature = temperature
        elif attr == "context":
            setattr(profile, attr, _number(int, key, value, lineno))
        else:
            setattr(profile, attr, value)
        return
    if key in ("rounds", "max_iters", "synthetic_cases_per_subtask",
               "min_synthetic_cases", "validation_repeats", "workers"):
        setattr(config, key, _number(int, key, value, lineno))
    elif key == "threshold":
        config.threshold = _number(float, key, value, lineno)
    elif key == "templates_dir":
        config.templates_dir = value
    else:
        raise ValueError(f"config line {lineno}: unknown key {key!r}")


def _number(kind: type, key: str, value: str, lineno: int) -> int | float:
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(
            f"config line {lineno}: {key} must be {what}, got {value!r}") from None


def load_config(path: str | Path | None = None) -> Config:
    """Load from the given path, else $ORCH_CONFIG, else built-in defaults."""
    if path is None:
        env = os.environ.get(CONFIG_ENV)
        if not env:
            return Config()
        path = env
    return parse_config(Path(path).read_text(encoding="utf-8"))
