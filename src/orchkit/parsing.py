"""Structured-output helpers shared by the planner, validator, and executor.

The wire contract for every subtask execution is one JSON object:

    {"reasoning": "<evidence trail>", "values": {"<field>": "<value>"}}

`format_block` renders that contract (with the field-by-field value menu)
for inclusion in system prompts; `parse_subtask_output` is the authoritative
parser on the way back in. Transport-level constrained decoding is
best-effort only, so parsing here is what actually decides conformance.
`extract_json_object`, which the planner also uses on cloud replies, reads
the reply's first JSON object with the standard library's decoder; a reply
nested too deeply for it has none.
"""

from __future__ import annotations

import json

from .errors import OutputParseError
from .model import UNKNOWN, FeatureSchema, FeatureSet


def extract_json_object(text: str) -> dict:
    """Pull the first JSON object out of a model reply.

    Tolerates markdown fences and surrounding prose: each `{` in turn is
    tried as the start of an object. Raises OutputParseError when no
    parseable object exists.
    """
    stripped = text.strip()
    if stripped.startswith("```"):
        lines = stripped.splitlines()
        body = [ln for ln in lines if not ln.strip().startswith("```")]
        stripped = "\n".join(body).strip()
    decoder = json.JSONDecoder()
    start = stripped.find("{")
    while start != -1:
        try:
            parsed, _ = decoder.raw_decode(stripped, start)
            return parsed
        except json.JSONDecodeError:
            start = stripped.find("{", start + 1)
        except RecursionError:  # nested deeper than the decoder goes: search no further
            raise OutputParseError("reply nests JSON too deeply to parse") from None
    raise OutputParseError("reply contains no parseable JSON object")


def format_block(schema: FeatureSchema) -> str:
    """Output-format instructions derived from a subtask schema."""
    lines = [
        "Respond with a single JSON object and nothing else, in exactly this shape:",
        '{"reasoning": "<brief evidence from the text>", '
        '"values": {"<field>": "<value>", ...}}',
        "",
        "Field contract:",
    ]
    for f in schema.fields:
        requirement = "required" if f.required else "optional"
        if f.kind == "text":
            menu = "free text, or unknown"
        else:
            menu = " | ".join(list(f.legal_values()) + [UNKNOWN])
        lines.append(f"- {f.name} ({f.kind}, {requirement}): {menu}")
    lines.append(f'Use "{UNKNOWN}" whenever the text does not state the answer.')
    return "\n".join(lines)


def parse_subtask_output(schema: FeatureSchema, raw_text: str) -> tuple[str, FeatureSet]:
    """Parse a model reply into (reasoning, FeatureSet), strictly.

    Undeclared fields, missing required fields, and illegal values are all
    parse failures; the caller decides whether to repair or degrade.
    """
    obj = extract_json_object(raw_text)
    reasoning = obj.get("reasoning", "")
    if not isinstance(reasoning, str):
        reasoning = json.dumps(reasoning, ensure_ascii=False)
    values = obj.get("values")
    if values is None:
        # Lenient placement: bare field map at the top level.
        values = {k: v for k, v in obj.items() if k != "reasoning"}
    try:
        features = FeatureSet.from_raw(schema, values)
    except ValueError as exc:
        raise OutputParseError(str(exc)) from exc
    return reasoning, features
