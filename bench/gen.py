"""Seeded workload generator.

Everything the program under test reads is written here from the seed:
documents, the packed bundle, the recorded replay session, config files,
planning inputs, and the reference labels the oracle compares against. The
fault plan the fake model servers follow is derived from the same seed.

Reference labels come from `reference_label`, a direct transcription of the
golden rule program, not from the program's rule engine, so a defect in
`orchkit.ruledsl` or the voting path shows up as a wrong label.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROUNDS = 5

# The golden 2-subtask, 4-label staging plan of tests/conftest.py.
LABEL_NAMES = ("Resectable", "Borderline Resectable", "Locally Advanced", "Metastatic")
GOLDEN_LOGIC = (
    'when distant_metastasis == present -> Metastatic;\n'
    'when smv_contact == encasement or celiac_contact == true -> "Locally Advanced";\n'
    'when smv_contact == abutment -> "Borderline Resectable";\n'
    'default -> Resectable'
)
SPREAD, VESSEL = "distant_spread", "vessel_involvement"
SUBTASK_NAMES = {SPREAD: "Distant spread", VESSEL: "Vessel involvement"}
SUBTASK_FIELDS = {SPREAD: ("distant_metastasis",), VESSEL: ("smv_contact", "celiac_contact")}
FIELD_VALUES = {
    "distant_metastasis": ("present", "absent"),
    "smv_contact": ("none", "abutment", "encasement"),
    "celiac_contact": ("true", "false"),
}
FIELD_TOKENS = {"distant_metastasis": "mets", "smv_contact": "smv", "celiac_contact": "celiac"}

_FILLER = (
    "the", "report", "describes", "a", "pancreatic", "head", "lesion", "with",
    "hypoattenuating", "margins", "measured", "on", "portal", "venous", "phase",
    "images", "no", "ductal", "dilatation", "is", "noted", "liver", "parenchyma",
    "appears", "homogeneous", "lymph", "nodes", "are", "subcentimetric", "and",
    "the", "radiologist", "recommends", "multidisciplinary", "review", "of",
    "prior", "imaging", "contrast", "enhanced", "study", "performed", "after",
    "fasting", "patient", "tolerated", "procedure", "well", "findings", "stable",
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def unit(*parts: object) -> float:
    """Seeded uniform draw in [0, 1) keyed by content, never by call order."""
    h = hashlib.sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") / 2.0 ** 64


def read_tokens(text: str) -> dict[str, str]:
    """What a perfect extractor reads from a text: the mets=/smv=/celiac= tokens."""
    values = {}
    for name, token in FIELD_TOKENS.items():
        m = re.search(rf"\b{token}=(\w+)", text)
        values[name] = m.group(1) if m else "unknown"
    return values


def subtask_of(system_prompt: str) -> str:
    """Which golden subtask a system prompt belongs to (by name or field)."""
    if "Distant spread" in system_prompt or "distant_metastasis" in system_prompt:
        return SPREAD
    return VESSEL


def reference_label(values: dict[str, str]) -> str:
    """The golden rule program written out by hand; unknown matches nothing."""
    if values["distant_metastasis"] == "present":
        return "Metastatic"
    if values["smv_contact"] == "encasement" or values["celiac_contact"] == "true":
        return "Locally Advanced"
    if values["smv_contact"] == "abutment":
        return "Borderline Resectable"
    return "Resectable"


def extract_reply(subtask: str, text: str) -> str:
    values = read_tokens(text)
    picked = {f: values[f] for f in SUBTASK_FIELDS[subtask]}
    return json.dumps({"reasoning": f"the text states {picked}", "values": picked})


def flipped_reply(subtask: str, text: str) -> str:
    """A well-formed reply with one field moved to another legal value."""
    values = read_tokens(text)
    picked = {f: values[f] for f in SUBTASK_FIELDS[subtask]}
    name = SUBTASK_FIELDS[subtask][0]
    legal = FIELD_VALUES[name]
    current = picked[name]
    picked[name] = legal[(legal.index(current) + 1) % len(legal)] if current in legal else legal[0]
    return json.dumps({"reasoning": "misread the passage", "values": picked})


def malformed_reply(subtask: str, variant: float) -> str:
    """A reply the strict parser rejects: cut-off JSON or an illegal value."""
    name = SUBTASK_FIELDS[subtask][0]
    if variant < 0.5:
        return '{"reasoning": "the text states the finding", "values": {"' + name + '": '
    return json.dumps({"reasoning": "unsure", "values": {name: "possibly"}})


def _filler(rng: random.Random, length: int, tokens: list[str]) -> str:
    words: list[str] = []
    size = 0
    while size < length:
        sentence = " ".join(rng.choice(_FILLER) for _ in range(rng.randint(6, 14)))
        words.append(sentence.capitalize() + ".")
        size += len(sentence) + 2
    for token in tokens:
        i = rng.randrange(len(words))
        words[i] = words[i][:-1] + f" {token}."
    return " ".join(words)


@dataclass
class Document:
    id: str
    body: str
    values: dict[str, str]
    label: str


def make_documents(rng: random.Random, count: int, prefix: str = "doc") -> list[Document]:
    """Documents of 0.5 to 2 KB; one in ten leaves one field unstated.

    Lengths are spread evenly over the range and shuffled, so every seed
    gives the same total amount of text.
    """
    lengths = [500 + 1500 * i // max(count - 1, 1) for i in range(count)]
    rng.shuffle(lengths)
    docs = []
    for i, length in enumerate(lengths):
        values = {name: rng.choice(legal) for name, legal in FIELD_VALUES.items()}
        if rng.random() < 0.1:
            values[rng.choice(sorted(values))] = "unknown"
        tokens = [f"{FIELD_TOKENS[n]}={v}" for n, v in values.items() if v != "unknown"]
        body = f"Report {i + 1}. " + _filler(rng, length, tokens)
        docs.append(Document(f"{prefix}{i:05d}", body, values, reference_label(values)))
    return docs


def write_documents(docs: list[Document], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps({"id": doc.id, "body": doc.body,
                                 "format_tag": "free_text"}) + "\n")


def write_reference(docs: list[Document], path: Path) -> dict[str, str]:
    labels = {doc.id: doc.label for doc in docs}
    path.write_text(json.dumps(labels, indent=1) + "\n", encoding="utf-8")
    return labels


# ---------------------------------------------------------------------------
# Golden plan and bundle (uses the program's public API to build inputs)
# ---------------------------------------------------------------------------

def golden_plan():
    from orchkit.model import (FeatureSchema, FeatureSet, FieldSpec, Plan, PromptSpec,
                               Subtask, SyntheticCase, make_labels)

    spread = Subtask(SPREAD, "Distant spread",
                     "Decide whether the report states distant metastatic disease.",
                     FeatureSchema((FieldSpec("distant_metastasis", "categorical",
                                              ("present", "absent"),
                                              aliases={"mets": "present"}),)))
    vessel = Subtask(VESSEL, "Vessel involvement",
                     "Grade contact with the main vessels named in the guideline.",
                     FeatureSchema((FieldSpec("smv_contact", "categorical",
                                              ("none", "abutment", "encasement")),
                                    FieldSpec("celiac_contact", "boolean"))))
    spread_values = ["present", "absent", "unknown"]
    vessel_values = [("none", "false"), ("abutment", "true"), ("encasement", "unknown")]
    sets = {
        SPREAD: tuple(SyntheticCase(SPREAD, f"synthetic spread case {i}: mets={spread_values[i]}",
                                    FeatureSet({"distant_metastasis": spread_values[i]}))
                      for i in range(3)),
        VESSEL: tuple(SyntheticCase(VESSEL, f"synthetic vessel case {i}: "
                                            f"smv={vessel_values[i][0]} celiac={vessel_values[i][1]}",
                                    FeatureSet({"smv_contact": vessel_values[i][0],
                                                "celiac_contact": vessel_values[i][1]}))
                      for i in range(3)),
    }
    prompts = tuple(PromptSpec.draft(s.id, f"Extract {s.name} fields as instructed. "
                                           f"Reply with the JSON contract.")
                    for s in (spread, vessel))
    return Plan(subtasks=(spread, vessel), prompts=prompts, logic_source=GOLDEN_LOGIC,
                labels=make_labels(LABEL_NAMES), synthetic_sets=sets,
                provenance={"planner_model": "fixture", "task_digest": "0" * 64,
                            "guideline_digest": "1" * 64})


def _scripted_gateway(backend):
    from orchkit.gateway import PHASE_LOCAL, BackendProfile, Gateway

    return Gateway(BackendProfile.scripted(backend, temperature=0.2), PHASE_LOCAL,
                   sleep=lambda _s: None)


def _perfect_extractor(request) -> str:
    return extract_reply(subtask_of(request.system_prompt), request.user_content)


def write_bundle(path: Path):
    """Refine the golden prompts against a perfect extractor and pack them.

    Returns the plan exactly as `orchkit infer` will see it after unpacking.
    """
    from orchkit import bundle, validator
    from orchkit.gateway import ScriptedBackend

    plan = golden_plan()
    gateway = _scripted_gateway(ScriptedBackend(_perfect_extractor))
    prompts = []
    for subtask in plan.subtasks:
        outcome = validator.run_refinement_loop(
            subtask, plan.prompt_for(subtask.id), list(plan.synthetic_sets[subtask.id]),
            gateway, lambda p, f: p, max_iters=1)
        prompts.append(outcome.prompt)
    data = bundle.pack(plan.with_prompts(prompts), bundle.RuntimeDefaults(rounds=ROUNDS))
    bundle.write_bundle(data, path)
    return bundle.unpack(data).to_plan()


def record_session(plan, docs: list[Document], path: Path) -> None:
    """Record the session an air-gap rehearsal replays: every call the
    program makes over `docs`, answered by a perfect extractor, so every
    round agrees. Recording through the program keeps the request digests
    in step with however it builds its requests."""
    from orchkit import executor
    from orchkit.gateway import RecordingBackend, ScriptedBackend
    from orchkit.model import Document as OrchDocument

    path.unlink(missing_ok=True)
    gateway = _scripted_gateway(RecordingBackend(ScriptedBackend(_perfect_extractor), path))
    executor.run_documents(gateway, plan, [OrchDocument(d.id, d.body) for d in docs],
                           rounds=ROUNDS, workers=1)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

@dataclass
class InferFaults:
    """Per (document digest, subtask, occurrence) action for the fake local
    model. Each document gets at most two perturbed replies (a flipped field,
    or a malformed reply whose repair is malformed too), so three of five
    rounds always agree with the reference and the vote cannot go wrong."""

    actions: dict[tuple[str, str, int], str] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        return dict(Counter(self.actions.values()))


def make_infer_faults(rng: random.Random, docs: list[Document], *, transient: int,
                      slow: int, recoverable: int) -> InferFaults:
    """Fixed counts, seeded placement: a quarter of the documents get two
    perturbations, half get one, a quarter none."""
    n = len(docs)
    per_doc = [2] * (n // 4) + [1] * (n // 2)
    per_doc += [0] * (n - len(per_doc))
    rng.shuffle(per_doc)
    kinds = ["flip", "unrecoverable"] * (sum(per_doc) // 2) + ["flip"] * (sum(per_doc) % 2)
    rng.shuffle(kinds)
    slots = {d.id: [(digest(d.body), s, occ) for s in (SPREAD, VESSEL) for occ in range(ROUNDS)]
             for d in docs}
    free = {slot for own in slots.values() for slot in own}
    faults = InferFaults()
    for doc, k in zip(docs, per_doc):
        for slot in rng.sample(slots[doc.id], k):
            faults.actions[slot] = kinds.pop()
            free.discard(slot)
    for action, count in (("transient", transient), ("slow", slow),
                          ("recoverable", recoverable)):
        for slot in rng.sample(sorted(free), count):
            faults.actions[slot] = action
            free.discard(slot)
    return faults


@dataclass
class ConnectedScript:
    """What the fake cloud and local models do on the connected workload."""

    cases: dict[str, list[tuple[str, dict[str, str]]]]
    failing: dict[str, set[str]]  # case-input digests the local model misreads
    revisions: int                # refinements each prompt needs to pass
    cloud_fault: tuple[str, str]  # (exchange, subtask) whose first reply is malformed


def make_connected_script(rng: random.Random, cases_per_subtask: int,
                          revisions: int) -> ConnectedScript:
    cases: dict[str, list[tuple[str, dict[str, str]]]] = {}
    for subtask, fields in SUBTASK_FIELDS.items():
        rows = []
        for i in range(cases_per_subtask):
            expected = {}
            for name in fields:  # the first cases cover every value, as the planner asks
                legal = FIELD_VALUES[name] + ("unknown",)
                expected[name] = legal[i] if i < len(legal) else rng.choice(legal)
            tokens = [f"{FIELD_TOKENS[n]}={v}" for n, v in expected.items() if v != "unknown"]
            text = f"Synthetic {subtask} case {i}. " + _filler(rng, rng.randint(200, 500), tokens)
            rows.append((text, expected))
        cases[subtask] = rows
    # 40% misread: a pass rate of 6/10 stays below the 0.80 threshold.
    n_fail = -(-cases_per_subtask * 2 // 5)
    failing = {s: {digest(text) for text, _ in rng.sample(rows, n_fail)}
               for s, rows in cases.items()}
    fault = rng.choice([("decompose", ""), ("synthetic", SPREAD), ("synthetic", VESSEL)])
    return ConnectedScript(cases, failing, revisions, fault)


# ---------------------------------------------------------------------------
# Planning inputs for the connected workload
# ---------------------------------------------------------------------------

TASK_TEXT = "Assign one staging label to each report using the guideline."
GUIDELINE_TEXT = ("Staging rules: distant metastasis means Metastatic. "
                  "Encasement of the SMV or any celiac contact means Locally Advanced. "
                  "Abutment of the SMV means Borderline Resectable. Otherwise Resectable.")


def plan_reply() -> str:
    return json.dumps({
        "subtasks": [
            {"id": SPREAD, "name": "Distant spread",
             "description": "Decide whether the report states distant metastatic disease.",
             "fields": [{"name": "distant_metastasis", "kind": "categorical",
                         "values": ["present", "absent"], "required": True,
                         "aliases": {"mets": "present"}}],
             "prompt": "Distant spread: read the report and decide whether distant "
                       "metastasis is stated. Any distant lesion is metastatic disease."},
            {"id": VESSEL, "name": "Vessel involvement",
             "description": "Grade contact with the major vessels.",
             "fields": [{"name": "smv_contact", "kind": "categorical",
                         "values": ["none", "abutment", "encasement"], "required": True},
                        {"name": "celiac_contact", "kind": "boolean", "required": True}],
             "prompt": "Vessel involvement: grade SMV contact and celiac contact as "
                       "the guideline defines them."},
        ],
        "logic": GOLDEN_LOGIC,
    })


def write_planning_inputs(root: Path, cases_per_subtask: int) -> dict[str, Path]:
    paths = {"task": root / "task.txt", "guideline": root / "guideline.txt",
             "prefs": root / "prefs.json"}
    paths["task"].write_text(TASK_TEXT, encoding="utf-8")
    paths["guideline"].write_text(GUIDELINE_TEXT, encoding="utf-8")
    paths["prefs"].write_text(json.dumps({
        "output_labels": list(LABEL_NAMES), "max_subtasks": 4,
        "synthetic_cases_per_subtask": cases_per_subtask}), encoding="utf-8")
    return paths


def write_config(path: Path, **entries: object) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
