"""Test-side DSL machinery: a random program generator and an independent
brute-force interpreter.

oracle_evaluate deliberately re-implements the semantics from the documented
contract (first match wins; unknown matches only is_unknown and !=) without
touching the production evaluator, so agreement between the two is evidence,
not tautology.
"""

from __future__ import annotations

import random

from orchkit.model import UNKNOWN, FeatureSchema, FieldSpec, make_labels
from orchkit.ruledsl import Chain, Compare, IsUnknown, Not, SynthesisLogic

LABELS = make_labels(("L0", "L1", "L2", "L3"))


def random_schema(rng: random.Random, max_fields: int = 4) -> FeatureSchema:
    n = rng.randint(1, max_fields)
    fields = []
    for i in range(n):
        if rng.random() < 0.3:
            fields.append(FieldSpec(f"f{i}", "boolean"))
        else:
            n_values = rng.randint(2, 3)
            fields.append(FieldSpec(f"f{i}", "categorical",
                                    tuple(f"v{j}" for j in range(n_values))))
    return FeatureSchema(tuple(fields))


def _random_atom(rng: random.Random, schema: FeatureSchema) -> str:
    field = rng.choice(schema.fields)
    values = list(field.legal_values())
    kind = rng.choice(["eq", "ne", "in", "unk"])
    if kind == "unk":
        return f"is_unknown({field.name})"
    if kind == "in" and len(values) >= 2:
        chosen = rng.sample(values, rng.randint(1, min(2, len(values))))
        return f"{field.name} in {{{', '.join(chosen)}}}"
    op = "==" if kind == "eq" else "!="
    return f"{field.name} {op} {rng.choice(values)}"


def _random_condition(rng: random.Random, schema: FeatureSchema, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        return _random_atom(rng, schema)
    combo = rng.choice(["and", "or", "not"])
    if combo == "not":
        inner = _random_condition(rng, schema, depth - 1)
        return f"not ({inner})"
    left = _random_condition(rng, schema, depth - 1)
    right = _random_condition(rng, schema, depth - 1)
    return f"({left}) {combo} ({right})"


def random_program_source(rng: random.Random, schema: FeatureSchema) -> str:
    n_rules = rng.randint(1, 4)
    statements = [
        f"when {_random_condition(rng, schema, rng.randint(0, 3))} "
        f"-> {rng.choice(LABELS).name}"
        for _ in range(n_rules)
    ]
    statements.append(f"default -> {rng.choice(LABELS).name}")
    return ";\n".join(statements)


def all_inputs(schema: FeatureSchema):
    """Every assignment over the schema's finite domains, unknown included."""
    domains = []
    for f in schema.fields:
        domains.append(list(f.legal_values()) + [UNKNOWN])
    names = schema.field_names()

    def rec(i: int, acc: dict):
        if i == len(names):
            yield dict(acc)
            return
        for v in domains[i]:
            acc[names[i]] = v
            yield from rec(i + 1, acc)

    yield from rec(0, {})


def _oracle_holds(node, features) -> bool:
    if isinstance(node, Compare) and node.op == "==":
        value = features.get(node.field, UNKNOWN)
        if value == UNKNOWN:
            return False
        return value.casefold() == node.values[0].casefold()
    if isinstance(node, Compare) and node.op == "!=":
        value = features.get(node.field, UNKNOWN)
        if value == UNKNOWN:
            return True
        return value.casefold() != node.values[0].casefold()
    if isinstance(node, Compare) and node.op == "in":
        value = features.get(node.field, UNKNOWN)
        if value == UNKNOWN:
            return False
        return value.casefold() in [v.casefold() for v in node.values]
    if isinstance(node, IsUnknown):
        return features.get(node.field, UNKNOWN) == UNKNOWN
    if isinstance(node, Not):
        return not _oracle_holds(node.inner, features)
    if isinstance(node, Chain) and node.op == "and":
        for part in node.parts:
            if not _oracle_holds(part, features):
                return False
        return True
    if isinstance(node, Chain) and node.op == "or":
        for part in node.parts:
            if _oracle_holds(part, features):
                return True
        return False
    raise AssertionError(f"unexpected node {node!r}")


def oracle_evaluate(logic: SynthesisLogic, features: dict):
    """Naive first-match scan, written separately from the production path."""
    for rule in logic.rules:
        if _oracle_holds(rule.condition, features):
            return rule.label
    return logic.default_label
