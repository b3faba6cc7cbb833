"""extract_json_object against a string-aware brace scanner, the reference:
on generated replies (prose, fences, nested objects, braces and quotes
inside strings, cut-off objects) both find the same object or both fail."""

from __future__ import annotations

import json

import pytest

from orchkit.errors import OutputParseError
from orchkit.parsing import extract_json_object

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def reference_extract(text: str) -> dict:
    """Fences stripped and the whole text tried first; then, from each `{`
    in turn, count braces outside strings to where the count returns to 0
    and parse that span."""
    stripped = text.strip()
    if stripped.startswith("```"):
        lines = stripped.splitlines()
        body = [ln for ln in lines if not ln.strip().startswith("```")]
        stripped = "\n".join(body).strip()
    try:
        parsed = json.loads(stripped)
        if isinstance(parsed, dict):
            return parsed
    except json.JSONDecodeError:
        pass
    start = stripped.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(stripped)):
            ch = stripped[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        parsed = json.loads(stripped[start:i + 1])
                        if isinstance(parsed, dict):
                            return parsed
                    except json.JSONDecodeError:
                        break
        start = stripped.find("{", start + 1)
    raise OutputParseError("reply contains no parseable JSON object")


TRICKY = 'ab {}[]":,\\\n`'
_text = st.text(alphabet=TRICKY, max_size=8)
_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-99, 99), _text),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_text, inner, max_size=3)),
    max_leaves=8)
_objects = st.builds(json.dumps, st.dictionaries(_text, _values, max_size=4),
                     indent=st.sampled_from([None, 2]))
_fragments = st.one_of(
    _text,                                                    # prose, stray braces
    _objects,                                                 # a whole object
    st.tuples(_objects, st.integers(0, 30)).map(lambda t: t[0][:t[1]]),  # cut off
    st.sampled_from(["```", "```json\n", "\n```\n", "Sure! ", " hope that helps."]))
_replies = st.lists(_fragments, max_size=6).map("".join)


def _outcome(extract, text: str):
    try:
        return "object", extract(text)
    except OutputParseError:
        return "none", None


@hypothesis.settings(max_examples=400)
@hypothesis.given(_replies)
def test_extract_json_object_matches_brace_scanner(reply):
    assert _outcome(extract_json_object, reply) == _outcome(reference_extract, reply)
