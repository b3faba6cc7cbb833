"""Synthesis-logic DSL: parse, statically check, and evaluate the
deterministic ordered-rule program that maps merged subtask outputs onto a
final outcome label.

The language is deliberately tiny and non-Turing-complete so planner-written
logic can be audited offline, line by line:

    program    = statement { ";" statement } [ ";" ]
    statement  = "when" condition "->" label | "default" "->" label
    condition  = or_expr
    or_expr    = and_expr { "or" and_expr }
    and_expr   = not_expr { "and" not_expr }
    not_expr   = { "not" } primary
    primary    = "(" condition ")" | atom
    atom       = "is_unknown" "(" field ")"
               | field "==" value | field "!=" value
               | field "in" "{" value { "," value } "}"
    field      = IDENT
    label      = IDENT | STRING
    value      = IDENT | STRING | "true" | "false"
    IDENT      = [A-Za-z_][A-Za-z0-9_]*
    STRING     = double-quoted, backslash escapes for \\ and "

Evaluation is first-match: the label of the first rule whose condition holds,
else the mandatory default. The sentinel value "unknown" is matchable only by
is_unknown() and by "!=": equality and membership against concrete values are
false on unknown, which keeps unparseable extractions from silently matching
severity rules.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import DslError
from .model import UNKNOWN, FeatureSchema, FeatureSet, OutcomeLabel, merge_schemas

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eq:
    field: str
    value: str


@dataclass(frozen=True)
class Ne:
    field: str
    value: str


@dataclass(frozen=True)
class In:
    field: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class IsUnknown:
    field: str


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class And:
    parts: tuple[object, ...]


@dataclass(frozen=True)
class Or:
    parts: tuple[object, ...]


@dataclass(frozen=True)
class Rule:
    condition: object
    label: OutcomeLabel


@dataclass(frozen=True)
class SynthesisLogic:
    rules: tuple[Rule, ...]
    default_label: OutcomeLabel
    schema: FeatureSchema
    source: str


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_KEYWORDS = {"when", "default", "and", "or", "not", "in", "is_unknown", "true", "false"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<op>==|!=|->|[;(){},])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:\\.|[^"\\])*")
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # op | ident | string | keyword | eof
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise DslError(f"unexpected character {source[pos]!r}", line, col)
        text = match.group(0)
        kind = match.lastgroup or ""
        if kind == "ident" and text in _KEYWORDS:
            kind = "keyword"
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = match.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text[1:-1])


def _quote_if_needed(text: str) -> str:
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text) and text not in _KEYWORDS:
        return text
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive-descent parser; static checks run against bound schemas."""

    def __init__(self, source: str, schema: FeatureSchema,
                 labels: Sequence[OutcomeLabel]):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.schema = schema
        self.labels = {lbl.name.casefold(): lbl for lbl in labels}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise DslError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                           tok.line, tok.column)
        return tok

    def parse_program(self, source: str) -> SynthesisLogic:
        rules: list[Rule] = []
        default: OutcomeLabel | None = None
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.text == "when":
                condition = self.parse_condition()
                self.expect("->")
                rules.append(Rule(condition, self.parse_label()))
            elif tok.text == "default":
                self.expect("->")
                if default is not None:
                    raise DslError("duplicate default rule", tok.line, tok.column)
                default = self.parse_label()
            else:
                raise DslError(
                    f"expected 'when' or 'default', found {tok.text or 'end of input'!r}",
                    tok.line, tok.column)
            if self.peek().text == ";":
                self.next()
            elif self.peek().kind != "eof":
                nxt = self.peek()
                raise DslError(f"expected ';' between statements, found {nxt.text!r}",
                               nxt.line, nxt.column)
        if default is None:
            raise DslError("program has no default rule")
        return SynthesisLogic(tuple(rules), default, self.schema, source)

    def parse_label(self) -> OutcomeLabel:
        tok = self.next()
        if tok.kind == "string":
            name = _unquote(tok.text)
        elif tok.kind == "ident":
            name = tok.text
        else:
            raise DslError(f"expected a label, found {tok.text or 'end of input'!r}",
                           tok.line, tok.column)
        label = self.labels.get(name.casefold())
        if label is None:
            raise DslError(f"label {name!r} is not in the declared label set",
                           tok.line, tok.column)
        return label

    def parse_condition(self) -> object:
        parts = [self.parse_and()]
        while self.peek().text == "or":
            self.next()
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        # Flatten associative nodes so the AST is canonical regardless of
        # how the source was parenthesized; pretty() then round-trips.
        flat: list[object] = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Or) else [p])
        return Or(tuple(flat))

    def parse_and(self) -> object:
        parts = [self.parse_not()]
        while self.peek().text == "and":
            self.next()
            parts.append(self.parse_not())
        if len(parts) == 1:
            return parts[0]
        flat: list[object] = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, And) else [p])
        return And(tuple(flat))

    def parse_not(self) -> object:
        if self.peek().text == "not":
            self.next()
            return Not(self.parse_not())
        return self.parse_primary()

    def parse_primary(self) -> object:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_condition()
            self.expect(")")
            return inner
        if tok.text == "is_unknown":
            self.next()
            self.expect("(")
            field_tok = self.next()
            field = self.check_field(field_tok)
            self.expect(")")
            return IsUnknown(field.name)
        return self.parse_comparison()

    def parse_comparison(self) -> object:
        field_tok = self.next()
        field = self.check_field(field_tok)
        op = self.next()
        if op.text == "==":
            return Eq(field.name, self.parse_value(field))
        if op.text == "!=":
            return Ne(field.name, self.parse_value(field))
        if op.text == "in":
            self.expect("{")
            values = [self.parse_value(field)]
            while self.peek().text == ",":
                self.next()
                values.append(self.parse_value(field))
            self.expect("}")
            return In(field.name, tuple(values))
        raise DslError(f"expected '==', '!=' or 'in', found {op.text or 'end of input'!r}",
                       op.line, op.column)

    def check_field(self, tok: _Token):
        if tok.kind != "ident":
            raise DslError(f"expected a field name, found {tok.text or 'end of input'!r}",
                           tok.line, tok.column)
        spec = self.schema.get(tok.text)
        if spec is None:
            raise DslError(f"unknown field {tok.text!r}", tok.line, tok.column)
        return spec

    def parse_value(self, field) -> str:
        tok = self.next()
        if tok.kind == "string":
            raw = _unquote(tok.text)
        elif tok.kind == "ident" or tok.text in ("true", "false"):
            raw = tok.text
        else:
            raise DslError(f"expected a value, found {tok.text or 'end of input'!r}",
                           tok.line, tok.column)
        if raw.casefold() == UNKNOWN:
            raise DslError(f"{UNKNOWN!r} cannot be compared directly; "
                           f"use is_unknown({field.name})", tok.line, tok.column)
        if field.kind == "text":
            return raw.strip().casefold()
        canonical = field.normalize_strict(raw)
        if canonical is None or canonical == UNKNOWN:
            raise DslError(f"value {raw!r} is not legal for field {field.name!r} "
                           f"of kind {field.kind}", tok.line, tok.column)
        return canonical


def parse_logic(source: str, schemas: Sequence[FeatureSchema],
                labels: Sequence[OutcomeLabel]) -> SynthesisLogic:
    """Parse and statically check a rule program.

    Field existence and value legality are checked against the union of the
    given schemas; rule labels must come from `labels`, whose ordinals drive
    tie-breaking downstream.
    """
    return _Parser(source, merge_schemas(schemas), labels).parse_program(source)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _holds(node: object, features: FeatureSet) -> bool:
    if isinstance(node, Eq):
        v = features.get(node.field)
        return v != UNKNOWN and v.casefold() == node.value.casefold()
    if isinstance(node, Ne):
        v = features.get(node.field)
        return v == UNKNOWN or v.casefold() != node.value.casefold()
    if isinstance(node, In):
        v = features.get(node.field)
        return v != UNKNOWN and any(v.casefold() == x.casefold() for x in node.values)
    if isinstance(node, IsUnknown):
        return features.get(node.field) == UNKNOWN
    if isinstance(node, Not):
        return not _holds(node.inner, features)
    if isinstance(node, And):
        return all(_holds(p, features) for p in node.parts)
    if isinstance(node, Or):
        return any(_holds(p, features) for p in node.parts)
    raise TypeError(f"not a condition node: {node!r}")


def evaluate(logic: SynthesisLogic, features: FeatureSet) -> OutcomeLabel:
    """First-match evaluation; total by construction (default is mandatory)."""
    for rule in logic.rules:
        if _holds(rule.condition, features):
            return rule.label
    return logic.default_label


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through parse_logic)
# ---------------------------------------------------------------------------

# A bundle hashes this text (logic.parsed_digest), so it is a format: an `or`
# under `and` or `not` keeps both pairs of parentheses, `a and ((b or c))`, or
# unpack refuses every bundle packed with one. tests/test_ruledsl.py pins it.
def _render(node: object, parent: str = "") -> str:
    if isinstance(node, Eq):
        return f"{node.field} == {_quote_if_needed(node.value)}"
    if isinstance(node, Ne):
        return f"{node.field} != {_quote_if_needed(node.value)}"
    if isinstance(node, In):
        inner = ", ".join(_quote_if_needed(v) for v in node.values)
        return f"{node.field} in {{{inner}}}"
    if isinstance(node, IsUnknown):
        return f"is_unknown({node.field})"
    if isinstance(node, Not):
        inner = _render(node.inner, "not")
        if isinstance(node.inner, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(node, And):
        parts = []
        for p in node.parts:
            text = _render(p, "and")
            parts.append(f"({text})" if isinstance(p, Or) else text)
        return " and ".join(parts)
    if isinstance(node, Or):
        text = " or ".join(_render(p, "or") for p in node.parts)
        return f"({text})" if parent in ("and", "not") else text
    raise TypeError(f"not a condition node: {node!r}")


def pretty(logic: SynthesisLogic) -> str:
    lines = [f"when {_render(rule.condition)} -> {_quote_if_needed(rule.label.name)};"
             for rule in logic.rules]
    lines.append(f"default -> {_quote_if_needed(logic.default_label.name)}")
    return "\n".join(lines)
