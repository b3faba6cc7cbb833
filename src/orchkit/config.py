"""Run settings: each one's name, default, range and precedence, the
operator's file that sets them, and the files that file points at
(Config.files()). Every other module asks here.

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
    min_synthetic_cases = 1
    validation_repeats = 1
    workers = 1
    templates_dir = /path/to/templates

A `#` that starts a line or follows whitespace begins a comment; any other
`#` belongs to the value, so `local.session = /data/run#2/local.jsonl`
keeps its whole path.

Secrets never live in the file: the cloud API key comes from
ORCH_CLOUD_API_KEY, and ORCH_CONFIG names the config file when the CLI
flag is absent. Scripted channels replace endpoint/model with
`<channel>.session = <recorded session file>`.

The values above are the defaults, each written once, here. The case count
per subtask is no config key but a preference, the prefs file's alone.
setting_problem holds each numeric setting's type and range (every count,
`min_synthetic_cases` too, is >= 1) for the file, a bundle's `runtime`
section, a flag and a model request alike. Config.preferences(data) checks
the prefs file against the config at `plan`; precedence is Config.runtime()
at `pack` and ProfileConfig.to_profile(channel, runtime) at `infer`, where
Config.gateway(channel, runtime) builds the channel's gateway.
"""

from __future__ import annotations

import os
import re
import urllib.parse
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import TYPE_CHECKING

from .jsonio import read_text
from .model import Record, UserPrefs, record_fields

if TYPE_CHECKING:
    from .gateway import BackendProfile, Gateway

CONFIG_ENV = "ORCH_CONFIG"

PHASE_CLOUD = "cloud"
PHASE_LOCAL = "local"

KIND_CLOUD_HTTP = "cloud_http"
KIND_LOCAL_HTTP = "local_http"
KIND_SCRIPTED = "scripted"
KINDS = (KIND_CLOUD_HTTP, KIND_LOCAL_HTTP, KIND_SCRIPTED)

# Operating defaults per channel: cloud runs hot to diversify planning
# output, local runs cold for consistent extraction.
DEFAULT_TEMPERATURE = {PHASE_CLOUD: 0.8, PHASE_LOCAL: 0.2}
DEFAULT_CONTEXT = 32768

# Rounds per document, a prompt's pass-rate threshold and its refinement budget.
DEFAULT_ROUNDS = 5
DEFAULT_THRESHOLD = 0.80
DEFAULT_MAX_ITERS = 5

# The fewest synthetic cases a plan's subtask may hold, validation runs per
# case, and documents in flight.
DEFAULT_MIN_CASES = 1
DEFAULT_REPEATS = 1
DEFAULT_WORKERS = 1

_COMMENT = re.compile(r"(?:^|\s)#")


# Each numeric setting, a channel's by its key after the dot: its type, and
# its range in words and as a test (which NaN fails).
_COUNT = (int, ">= 1", lambda value: value >= 1)
_RANGES = {
    "rounds": _COUNT, "max_iters": _COUNT, "min_synthetic_cases": _COUNT,
    "validation_repeats": _COUNT, "workers": _COUNT, "context": _COUNT,
    "threshold": (float, "in (0, 1]", lambda value: 0 < value <= 1),
    "temperature": (float, "in [0, 2]", lambda value: 0 <= value <= 2),
}


def setting_problem(name: str, value: object) -> str | None:
    """What keeps `value` from being numeric setting `name`, as in
    "must be >= 1", or None when nothing does. An integer is a number too;
    a bool is neither, as in JSON."""
    kind, bounds, holds = _RANGES[name]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        return "must be an integer" if kind is int else "must be a number"
    return None if holds(value) else f"must be {bounds}"


class RuntimeDefaults(Record):
    """The run settings a bundle's `runtime` section carries to `infer`."""

    rounds: int = DEFAULT_ROUNDS
    local_temperature: float = DEFAULT_TEMPERATURE[PHASE_LOCAL]
    local_context: int = DEFAULT_CONTEXT
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        for field in record_fields(RuntimeDefaults):
            value = getattr(self, field)
            if problem := setting_problem(field.removeprefix("local_"), value):
                raise ValueError(f"RuntimeDefaults.{field}: {problem}, got {value!r}")

    def to_dict(self) -> dict:
        return {field: getattr(self, field) for field in record_fields(RuntimeDefaults)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RuntimeDefaults":
        return cls(**{field: data[field] for field in record_fields(cls)})


class ProfileConfig(Record):
    kind: str | None = None
    endpoint: str | None = None
    model: str | None = None
    temperature: float | None = None
    context: int | None = None
    session: str | None = None

    def to_profile(self, channel: str, runtime: RuntimeDefaults | None = None) -> BackendProfile:
        """The profile `channel` calls its model with: its temperature and context are
        this config's, else `runtime`'s (a bundle's), else the channel's defaults."""
        from .gateway import BackendProfile  # loaded only here

        scripted = self.kind == KIND_SCRIPTED
        if self.kind is None:  # a kind that is set was checked at load
            raise ValueError(f"config: {channel}.kind is not configured")
        if scripted and not self.session:
            raise ValueError(f"config: {channel}.session required for scripted kind")
        if not scripted and not self.endpoint:
            raise ValueError(f"config: {channel}.endpoint required for {self.kind}")
        temperature, context = self._settings(channel, runtime)
        return BackendProfile(
            kind=self.kind, endpoint=self.endpoint, session=self.session,
            model=self.model or ("scripted" if scripted else ""),
            default_temperature=temperature, default_context=context)

    def _settings(self, channel: str, runtime: RuntimeDefaults | None = None) -> tuple[float, int]:
        temperature, context = ((runtime.local_temperature, runtime.local_context) if runtime
                                else (DEFAULT_TEMPERATURE[channel], DEFAULT_CONTEXT))
        return (temperature if self.temperature is None else self.temperature,
                context if self.context is None else self.context)


class Config(Record):
    cloud: ProfileConfig = ProfileConfig()
    local: ProfileConfig = ProfileConfig()
    rounds: int = DEFAULT_ROUNDS
    threshold: float = DEFAULT_THRESHOLD
    max_iters: int = DEFAULT_MAX_ITERS
    min_synthetic_cases: int = DEFAULT_MIN_CASES
    validation_repeats: int = DEFAULT_REPEATS
    workers: int = DEFAULT_WORKERS
    templates_dir: str | None = None

    def __post_init__(self):
        # A channel's settings are checked as their lines are read, and by ChatRequest.
        for name in record_fields(Config):
            value = getattr(self, name)
            if name in _RANGES and (problem := setting_problem(name, value)):
                raise ValueError(f"config: {name} {problem}, got {value}")

    def files(self) -> Iterator[tuple[str, str | Path]]:
        """(setting, path) for each file this config points at: each
        <channel>.session it sets, then, when templates_dir is set, the four
        templates there."""
        for channel in (PHASE_CLOUD, PHASE_LOCAL):
            if session := getattr(self, channel).session:
                yield f"{channel}.session", session
        if self.templates_dir:
            for path in template_files(self.templates_dir).values():
                yield "templates_dir", path

    def gateway(self, channel: str, runtime: RuntimeDefaults | None = None) -> Gateway:
        """The gateway to `channel`'s model, with the profile to_profile gives:
        the one place a command builds one."""
        from .gateway import Gateway  # loaded only here

        return Gateway(getattr(self, channel).to_profile(channel, runtime), channel)

    def runtime(self) -> RuntimeDefaults:
        """The runtime section `pack` writes from this config."""
        return RuntimeDefaults(self.rounds, *self.local._settings(PHASE_LOCAL), self.threshold)

    def preferences(self, data: dict) -> UserPrefs:
        """The planning preferences in a prefs file's JSON `data`, a key it omits
        at UserPrefs's default. An unknown key is refused, and so is a case count
        below this config's min_synthetic_cases, whose plan `validate` and `pack`
        would refuse: `plan` stops before its first cloud call."""
        fields = {"output_labels": data["output_labels"], **data}
        if unknown := [key for key in fields if key not in record_fields(UserPrefs)]:
            raise ValueError(f"unknown key {unknown[0]!r}")
        prefs = UserPrefs(**fields)
        if (count := prefs.synthetic_cases_per_subtask) < self.min_synthetic_cases:
            raise ValueError(f"synthetic_cases_per_subtask is {count}, below the config's "
                             f"min_synthetic_cases of {self.min_synthetic_cases}")
        return prefs


def parse_config(text: str) -> Config:
    values: dict[str, object] = {}
    profiles: dict[str, dict[str, object]] = {"cloud": {}, "local": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        channel, dot, attr = key.partition(".")
        if dot and channel in profiles and attr in record_fields(ProfileConfig):
            profiles[channel][attr] = _value(key, attr, value, lineno, ranged=True)
        elif not dot and key in record_fields(Config) and key not in profiles:
            values[key] = _value(key, key, value, lineno, ranged=False)
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return Config(cloud=ProfileConfig(**profiles["cloud"]),
                  local=ProfileConfig(**profiles["local"]), **values)


def _value(key: str, name: str, text: str, lineno: int, *, ranged: bool) -> object:
    """Line `lineno`'s `text` for setting `name`, set as `key`. A number out
    of its range names the line only if `ranged`; Config checks the rest."""
    value, problem = text, None
    if name in _RANGES:
        try:
            value = _RANGES[name][0](text)
        except ValueError:  # then the problem is its type
            problem = setting_problem(name, text)
        else:
            problem = setting_problem(name, value) if ranged else None
    elif name == "kind" and text not in KINDS:
        problem = f"must be one of {', '.join(KINDS)}"
    elif name == "endpoint" and not _is_http_url(text):
        problem = "must be an http:// or https:// URL"
    if problem:
        raise ValueError(f"config line {lineno}: {key} {problem}, got {text!r}")
    return value


def _is_http_url(value: str) -> bool:
    try:
        url = urllib.parse.urlsplit(value)
        url.port  # raises ValueError unless the port, if any, is a number in 0-65535
        return url.scheme in ("http", "https") and bool(url.hostname)
    except ValueError:  # that, or an unbalanced IPv6 bracket
        return False


def config_file(path: str | Path | None = None) -> str | Path | None:
    """The file load_config reads: the given path, else $ORCH_CONFIG, else none."""
    return path if path is not None else os.environ.get(CONFIG_ENV) or None


def template_files(directory: str | Path | None = None) -> dict[str, Path]:
    """The planner's meta-prompt templates by name: `<name>.txt` in
    `directory` (a config's templates_dir), else in the package's templates/."""
    base = Path(directory) if directory else Path(__file__).parent / "templates"
    return {name: base / f"{name}.txt" for name in ("decompose", "synthetic", "refine", "repair")}


def load_config(path: str | Path | None = None) -> Config:
    """Load from config_file(path), else built-in defaults."""
    if (path := config_file(path)) is None:
        return Config()
    return read_text(path, parse_config)
