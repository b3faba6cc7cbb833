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

The AST has one node per construct: Compare(field, op, values) for "==",
"!=" (one value each) and "in"; IsUnknown(field); Not(inner); and
Chain(op, parts) for "and" and "or", never holding a Chain of its own op.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import NamedTuple

from .errors import DslError
from .model import UNKNOWN, FeatureSchema, FeatureSet, OutcomeLabel, Record, merge_schemas

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Compare(Record):
    field: str
    op: str  # "==", "!=" or "in"
    values: tuple[str, ...]  # one value for "==" and "!="


class IsUnknown(Record):
    field: str


class Not(Record):
    inner: object


class Chain(Record):
    op: str  # "and" or "or"
    parts: tuple[object, ...]


class Rule(Record):
    condition: object
    label: OutcomeLabel


class SynthesisLogic(Record):
    rules: tuple[Rule, ...]
    default_label: OutcomeLabel
    source: str


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_KEYWORDS = {"when", "default", "and", "or", "not", "in", "is_unknown", "true", "false"}

_TOKEN_RE = re.compile(r"""
    (?P<skip>\s+|\#[^\n]*)
  | (?P<op>==|!=|->|[;(){},])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<bad>.)
""", re.VERBOSE)


class _Token(NamedTuple):
    kind: str  # op | ident | string | keyword | eof
    text: str
    offset: int


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
        self.source = source
        self.schema = schema
        self.labels = {lbl.name.casefold(): lbl for lbl in labels}
        self.tokens: list[_Token] = []
        for match in _TOKEN_RE.finditer(source):
            kind, text = match.lastgroup or "", match.group()
            tok = _Token("keyword" if kind == "ident" and text in _KEYWORDS else kind,
                         text, match.start())
            if kind == "bad":
                raise self.error(f"unexpected character {text!r}", tok)
            if kind != "skip":
                self.tokens.append(tok)
        self.tokens.append(_Token("eof", "", len(source)))
        self.pos = 0

    def error(self, message: str, tok: _Token) -> DslError:
        line = self.source.count("\n", 0, tok.offset) + 1
        return DslError(message, line, tok.offset - self.source.rfind("\n", 0, tok.offset))

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos].text != text:
            return False
        self.pos += 1
        return True

    def take(self, what: str, kinds: tuple[str, ...] = (),
             texts: tuple[str, ...] = ()) -> _Token:
        """Consume the next token, which must be of one of `kinds` or spell
        one of `texts`; else fail with "expected <what>"."""
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok.kind not in kinds and tok.text not in texts:
            raise self.error(f"expected {what}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def parse_program(self) -> SynthesisLogic:
        rules: list[Rule] = []
        default: OutcomeLabel | None = None
        while self.tokens[self.pos].kind != "eof":
            tok = self.take("'when' or 'default'", texts=("when", "default"))
            condition = self.parse_chain("or") if tok.text == "when" else None
            self.take("'->'", texts=("->",))
            if condition is not None:
                rules.append(Rule(condition, self.parse_label()))
            elif default is not None:
                raise self.error("duplicate default rule", tok)
            else:
                default = self.parse_label()
            if self.tokens[self.pos].kind != "eof":
                self.take("';' between statements", texts=(";",))
        if default is None:
            raise DslError("program has no default rule")
        return SynthesisLogic(tuple(rules), default, self.source)

    def parse_label(self) -> OutcomeLabel:
        tok = self.take("a label", kinds=("ident", "string"))
        name = _unquote(tok.text) if tok.kind == "string" else tok.text
        label = self.labels.get(name.casefold())
        if label is None:
            raise self.error(f"label {name!r} is not in the declared label set", tok)
        return label

    def parse_chain(self, op: str) -> object:
        """`or` over `and` chains, `and` over terms. Nested nodes of the
        chain's own kind are flattened so the AST is canonical however the
        source was parenthesized; pretty() then round-trips."""
        part = (lambda: self.parse_chain("and")) if op == "or" else self.parse_term
        parts = [part()]
        while self.accept(op):
            parts.append(part())
        if len(parts) == 1:
            return parts[0]
        return Chain(op, tuple(q for p in parts for q in
                               (p.parts if isinstance(p, Chain) and p.op == op else [p])))

    def parse_term(self) -> object:
        if self.accept("not"):
            return Not(self.parse_term())
        if self.accept("("):
            inner = self.parse_chain("or")
            self.take("')'", texts=(")",))
            return inner
        if self.accept("is_unknown"):
            self.take("'('", texts=("(",))
            field = self.take_field()
            self.take("')'", texts=(")",))
            return IsUnknown(field.name)
        field = self.take_field()
        op = self.take("'==', '!=' or 'in'", texts=("==", "!=", "in")).text
        if op != "in":
            return Compare(field.name, op, (self.parse_value(field),))
        self.take("'{'", texts=("{",))
        values = [self.parse_value(field)]
        while self.accept(","):
            values.append(self.parse_value(field))
        self.take("'}'", texts=("}",))
        return Compare(field.name, op, tuple(values))

    def take_field(self):
        tok = self.take("a field name", kinds=("ident",))
        spec = self.schema.get(tok.text)
        if spec is None:
            raise self.error(f"unknown field {tok.text!r}", tok)
        return spec

    def parse_value(self, field) -> str:
        tok = self.take("a value", kinds=("ident", "string"), texts=("true", "false"))
        raw = _unquote(tok.text) if tok.kind == "string" else tok.text
        if raw.casefold() == UNKNOWN:
            raise self.error(f"{UNKNOWN!r} cannot be compared directly; "
                             f"use is_unknown({field.name})", tok)
        canonical = field.normalize_strict(raw)
        if canonical is None or canonical == UNKNOWN:
            raise self.error(f"value {raw!r} is not legal for field {field.name!r} "
                             f"of kind {field.kind}", tok)
        return canonical


def parse_logic(source: str, schemas: Sequence[FeatureSchema],
                labels: Sequence[OutcomeLabel]) -> SynthesisLogic:
    """Parse and statically check a rule program.

    Field existence and value legality are checked against the union of the
    given schemas. A value is canonicalized as an extracted one is, by
    FieldSpec.normalize_strict, and one that reads as unknown is refused. Rule
    labels must come from `labels`, whose ordinals drive tie-breaking
    downstream.
    """
    return _Parser(source, merge_schemas(schemas), labels).parse_program()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _holds(node: object, features: FeatureSet) -> bool:
    if isinstance(node, Compare):
        v = features.get(node.field)
        if v == UNKNOWN:
            return node.op == "!="
        hit = any(v.casefold() == x.casefold() for x in node.values)
        return not hit if node.op == "!=" else hit
    if isinstance(node, IsUnknown):
        return features.get(node.field) == UNKNOWN
    if isinstance(node, Not):
        return not _holds(node.inner, features)
    if isinstance(node, Chain):
        return (all if node.op == "and" else any)(_holds(p, features) for p in node.parts)
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
    if isinstance(node, Compare):
        values = ", ".join(_quote_if_needed(v) for v in node.values)
        return f"{node.field} {node.op} " + (f"{{{values}}}" if node.op == "in" else values)
    if isinstance(node, IsUnknown):
        return f"is_unknown({node.field})"
    if isinstance(node, Not):
        return f"not {_render(node.inner, 'not')}"
    if isinstance(node, Chain):
        text = f" {node.op} ".join(_render(p, node.op) for p in node.parts)
        if node.op == "or" and parent in ("and", "not"):
            return f"(({text}))"
        return f"({text})" if parent == "not" else text
    raise TypeError(f"not a condition node: {node!r}")


def pretty(logic: SynthesisLogic) -> str:
    lines = [f"when {_render(rule.condition)} -> {_quote_if_needed(rule.label.name)};"
             for rule in logic.rules]
    lines.append(f"default -> {_quote_if_needed(logic.default_label.name)}")
    return "\n".join(lines)
