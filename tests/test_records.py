"""The contract every orchkit record keeps.

A record is a class in `src/orchkit` that declares annotated fields and
compares field-wise. Every one is immutable, is built positionally or by
keyword and refuses a wrongly shaped call with TypeError (which
`jsonio.decode` turns into a boundary error), compares, hashes and prints
by its fields and only against its own type, holds exactly its fields in
its `__dict__`, and is copied by `orchkit.model.replace` through its
checks again.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil

import pytest

import orchkit
from orchkit.bundle import RuntimeDefaults, pack, unpack
from orchkit.config import Config, ProfileConfig
from orchkit.evalkit import LabeledSet, evaluate_report
from orchkit.executor import DocumentPrediction, RoundRecord
from orchkit.gateway import BackendProfile, ChatRequest, ChatResponse
from orchkit.model import (
    Document,
    FeatureSet,
    OutcomeLabel,
    SubtaskRun,
    TaskSpec,
    replace,
)
from orchkit.planner import TemplateSet
from orchkit.ruledsl import Chain, Compare, IsUnknown, Not, Rule, SynthesisLogic
from orchkit.validator import RefinementOutcome

from conftest import golden_task, refined_plan

# Records whose every field has a default, so that no call misses one.
_ALL_DEFAULTED = {"RuntimeDefaults", "ProfileConfig", "Config"}


def _record_classes() -> dict[str, type]:
    """Qualified name -> record class, over every orchkit module."""
    found = {}
    for info in pkgutil.iter_modules(orchkit.__path__):
        module = importlib.import_module(f"orchkit.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and vars(cls).get("__annotations__")
                    and cls.__eq__ is not object.__eq__ and not issubclass(cls, tuple)):
                found[f"{info.name}.{cls.__qualname__}"] = cls
    return dict(sorted(found.items()))


RECORDS = _record_classes()


@functools.cache
def _samples() -> dict[type, tuple[object, dict]]:
    """Record class -> (a valid instance, a valid change to one of its fields)."""
    plan = refined_plan()
    subtask, prompt = plan.subtasks[0], plan.prompts[0]
    schema = subtask.output_schema
    spec = schema.fields[0]
    case = plan.synthetic_sets[subtask.id][0]
    report = prompt.report
    result = report.results[0]
    run = result.run
    low, high = plan.labels[0], plan.labels[-1]
    compare = Compare(spec.name, "==", (spec.legal_values()[0],))
    rule = Rule(compare, high)
    record = RoundRecord(1, (run,), run.output, low)
    gt = LabeledSet("gt", {"d1": low.name, "d2": high.name})
    task = golden_task()
    return {
        type(spec): (spec, {"required": not spec.required}),
        type(schema): (schema, {"fields": plan.subtasks[1].output_schema.fields}),
        FeatureSet: (run.output, {"values": {"other": "value"}}),
        OutcomeLabel: (low, {"ordinal": 5}),
        type(task.preferences): (task.preferences, {"max_subtasks": 2}),
        TaskSpec: (task, {"guideline": "another guideline"}),
        type(subtask): (subtask, {"name": "another name"}),
        type(prompt): (prompt, {"system_prompt": "another prompt"}),
        type(case): (case, {"input_text": "another case"}),
        SubtaskRun: (run, {"reasoning": "another trace"}),
        type(result): (result, {"reason": "another reason"}),
        type(report): (report, {"passes": 0}),
        Document: (Document("d1", "a body"), {"body": "another body"}),
        type(plan): (plan, {"provenance": {"planner_model": "another"}}),
        Compare: (compare, {"field": "other_field"}),
        IsUnknown: (IsUnknown(spec.name), {"field": "other_field"}),
        Not: (Not(compare), {"inner": IsUnknown(spec.name)}),
        Chain: (Chain("and", (compare, IsUnknown(spec.name))), {"op": "or"}),
        Rule: (rule, {"label": low}),
        SynthesisLogic: (SynthesisLogic((rule,), low, "a source"), {"source": "another"}),
        ChatRequest: (ChatRequest("system", "user", 0.2, 1024), {"temperature": 0.5}),
        ChatResponse: (ChatResponse("{}"), {"retries": 1}),
        BackendProfile: (BackendProfile.scripted(object()), {"model": "another"}),
        RoundRecord: (record, {"index": 2}),
        DocumentPrediction: (DocumentPrediction("d1", (record,), (low,), low, {low.name: 1},
                                                False), {"tie": True}),
        LabeledSet: (gt, {"source": "annotator-1"}),
        type(evaluate_report(gt, gt)): (evaluate_report(gt, gt), {"source": "other"}),
        RuntimeDefaults: (RuntimeDefaults(), {"rounds": 3}),
        type(unpack(pack(plan))): (unpack(pack(plan)), {"sections": {"meta": {}}}),
        TemplateSet: (TemplateSet("d", "s", "r", "p"), {"repair": "another"}),
        RefinementOutcome: (RefinementOutcome(prompt, (report,)), {"history": ()}),
        ProfileConfig: (ProfileConfig("scripted", session="s.jsonl"), {"model": "another"}),
        Config: (Config(rounds=2), {"rounds": 3}),
    }


def _sample(name: str) -> tuple[object, dict]:
    return _samples()[RECORDS[name]]


def test_every_record_class_has_a_sample():
    assert len(RECORDS) >= 33
    assert sorted(RECORDS.values(), key=repr) == sorted(_samples(), key=repr)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_holds_exactly_its_fields_in_order(name):
    record, _ = _sample(name)
    assert list(vars(record)) == list(RECORDS[name].__annotations__)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_assignment_and_deletion(name):
    record = replace(_sample(name)[0])  # a copy, so that no other test sees a change
    first = next(iter(vars(record)))
    before = dict(vars(record))
    for attr in (first, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert vars(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_a_wrongly_shaped_call_raises_type_error(name):
    cls = RECORDS[name]
    record, _ = _sample(name)
    values = vars(record)
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(**values, not_a_field=1)  # unknown
    with pytest.raises(TypeError):
        cls(values[first], **values)  # repeated
    with pytest.raises(TypeError):
        cls(*values.values(), None)  # one too many
    if name.rsplit(".", 1)[1] in _ALL_DEFAULTED:
        cls()  # every field has a default
    else:
        with pytest.raises(TypeError):
            cls()  # missing


@pytest.mark.parametrize("name", RECORDS)
def test_replace_copies_through_the_checks(name, monkeypatch):
    cls = RECORDS[name]
    record, changes = _sample(name)
    copy = replace(record)
    assert copy == record and type(copy) is cls and copy is not record
    changed = replace(record, **changes)
    assert changed != record
    assert [getattr(changed, field) for field in changes] == list(changes.values())
    assert list(vars(changed)) == list(vars(record))
    if "__post_init__" in vars(cls):
        checks = []
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self: checks.append(post_init(self)))
        replace(record)
        assert len(checks) == 1


def test_replace_refuses_what_construction_refuses():
    with pytest.raises(ValueError, match="Document.id"):
        replace(Document("d1", "a body"), id="")
    with pytest.raises(TypeError):
        replace(Document("d1", "a body"), not_a_field="x")


@pytest.mark.parametrize("name", RECORDS)
def test_equality_is_per_type_and_field_wise(name):
    record, _ = _sample(name)
    twin = type(record)(**vars(record))
    assert record == twin and not record != twin
    assert record.__eq__(object()) is NotImplemented
    for other, _ in _samples().values():
        if type(other) is not type(record):
            assert record.__eq__(other) is NotImplemented and record != other
    try:
        hash(record)
    except TypeError:  # a record holding a dict is not hashable
        return
    assert hash(record) == hash(twin)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_class_and_its_fields(name):
    record, _ = _sample(name)
    text = repr(record)
    assert text.startswith(f"{type(record).__qualname__}(")
    assert f"{next(iter(vars(record)))}=" in text


def test_a_profiles_backend_is_out_of_equality_hash_and_repr():
    class Backend:
        def __repr__(self):
            return "<the backend>"

    one, two = BackendProfile.scripted(Backend()), BackendProfile.scripted(Backend())
    assert one.backend is not two.backend
    assert one == two and hash(one) == hash(two)
    assert "backend" not in repr(one) and "<the backend>" not in repr(one)
    assert one != BackendProfile.scripted(Backend(), model="another")
