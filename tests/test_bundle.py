"""Bundle canonical form, integrity verification, and plan-file round trips."""

from __future__ import annotations

import hashlib
import json

import pytest

from orchkit.bundle import (
    FORMAT_VERSION,
    RuntimeDefaults,
    _render,
    canonical_json,
    load_plan,
    pack,
    plan_from_dict,
    plan_to_dict,
    save_plan,
    unpack,
)
from orchkit.errors import BundleError
from orchkit.cli import main
from orchkit.model import FeatureSet, SyntheticCase, replace

from conftest import golden_plan, refined_plan


def test_pack_is_byte_deterministic():
    assert pack(refined_plan()) == pack(refined_plan())


def test_pack_unpack_round_trips_plan_content():
    plan = refined_plan()
    bundle = unpack(pack(plan))
    assert bundle.plan == plan and bundle.to_plan() is bundle.plan
    assert bundle.sections["meta"]["format_version"] == FORMAT_VERSION
    assert bundle.runtime == RuntimeDefaults()
    runtime = RuntimeDefaults(rounds=3, local_temperature=0.5, local_context=4096,
                              threshold=0.9)
    assert unpack(pack(plan, runtime)).runtime == runtime


def test_unpack_pack_is_identity_on_bytes():
    data = pack(refined_plan(), RuntimeDefaults(rounds=3, threshold=0.9))
    b = unpack(data)
    meta = b.sections["meta"]
    assert pack(b.plan, b.runtime, created_at=meta["created_at"],
                allow_failed=meta["allow_failed"],
                guideline_body=meta.get("guideline_body")) == data


def test_pack_rejects_invalid_plan():
    plan = golden_plan()
    sets = dict(plan.synthetic_sets)
    sets["ghost"] = (SyntheticCase("ghost", "text", FeatureSet({"x": "y"})),)
    with pytest.raises(ValueError, match="ghost"):
        pack(plan.with_synthetic_sets(sets))


def test_pack_rejects_unrefined_prompts():
    with pytest.raises(ValueError, match="prompts not refined for subtasks"):
        pack(golden_plan())  # drafts only


def test_pack_allow_failed_gate():
    plan = refined_plan()
    failed = plan.prompts[0].report
    prompts = (plan.prompts[0].failed(failed), *plan.prompts[1:])
    half_failed = plan.with_prompts(prompts)
    with pytest.raises(ValueError, match="prompts not refined .*allow_failed"):
        pack(half_failed)
    bundle = unpack(pack(half_failed, allow_failed=True))
    assert bundle.sections["meta"]["allow_failed"] is True
    assert bundle.plan.prompts[0].status == "failed"


def test_single_byte_flip_detected_sampled():
    data = bytearray(pack(refined_plan()))
    for pos in range(0, len(data), 97):  # sampled; acceptance covers every byte
        mutated = bytearray(data)
        mutated[pos] ^= 0x01
        with pytest.raises(BundleError):
            unpack(bytes(mutated))


def test_version_gate():
    bundle = unpack(pack(refined_plan()))
    sections = json.loads(json.dumps(dict(bundle.sections)))
    sections["meta"]["format_version"] = "2.0.0"
    with pytest.raises(BundleError, match="bundle format 2.0.0 is incompatible"):
        unpack(_render(sections))
    sections["meta"]["format_version"] = FORMAT_VERSION.replace("0", "9", 1)
    # Same major: minor/patch drift is tolerated.
    with pytest.raises(BundleError, match="bundle format 2.1.3 is incompatible"):
        unpack(_render({**sections, "meta": {**sections["meta"],
                                             "format_version": "2.1.3"}}))


def test_section_hash_mismatch_detected():
    data = pack(refined_plan()).decode("utf-8")
    body, trailer = data.rsplit("#sha256:", 1)
    document = json.loads(body)
    document["sections"]["runtime"]["rounds"] = 99  # stale integrity map
    new_body = canonical_json(document) + "\n"
    new_trailer = "#sha256:" + hashlib.sha256(new_body.encode()).hexdigest() + "\n"
    with pytest.raises(BundleError, match="section 'runtime' hash mismatch"):
        unpack((new_body + new_trailer).encode("utf-8"))


@pytest.mark.parametrize("raw", [
    b"\xff\xfenot utf8 at all \xff",
    b"{\"sections\": {}}\n",                      # no trailer
    b"not json\n#sha256:" + hashlib.sha256(b"not json\n").hexdigest().encode() + b"\n",
])
def test_malformed_bundles_rejected(raw):
    with pytest.raises(BundleError, match="not UTF-8|no hash trailer|body is not JSON"):
        unpack(raw)


def test_bundle_logic_digest_matches_reparse():
    from orchkit.ruledsl import pretty

    plan = refined_plan()
    bundle = unpack(pack(plan))
    logic = bundle.sections["logic"]
    assert logic["source"] == plan.logic_source  # verbatim
    reparsed = bundle.to_plan().parsed_logic()
    assert hashlib.sha256(pretty(reparsed).encode()).hexdigest() == \
        logic["parsed_digest"]
    assert reparsed.rules == plan.parsed_logic().rules


def test_guideline_body_inclusion_is_opt_in():
    body = "full guideline text"
    plan = refined_plan()
    plan = replace(plan, provenance={
        **plan.provenance, "guideline_digest": hashlib.sha256(body.encode()).hexdigest()})
    lean = unpack(pack(plan))
    assert "guideline_body" not in lean.sections["meta"]
    fat = unpack(pack(plan, guideline_body=body))
    assert fat.sections["meta"]["guideline_body"] == body


def test_pack_refuses_guideline_body_not_matching_digest():
    with pytest.raises(ValueError,
                       match="guideline body does not match the plan's guideline_digest"):
        pack(refined_plan(), guideline_body="full guideline text")


def _rerendered(edit) -> bytes:
    """A packed bundle with its sections edited and every hash recomputed,
    so only the digests written inside it can show the edit."""
    sections = json.loads(json.dumps(unpack(pack(refined_plan())).sections))
    edit(sections)
    return _render(sections)


@pytest.mark.parametrize("edit, fragment", [
    (lambda s: s["logic"].update(parsed_digest="0" * 64),
     "rule program does not match logic.parsed_digest"),
    (lambda s: s["logic"].update(source="default -> Metastatic"),
     "rule program does not match logic.parsed_digest"),
    (lambda s: s["logic"].update(source="when -> ;"), "does not hold a usable plan"),
    (lambda s: s["meta"].update(guideline_body="another guideline"),
     "guideline_body does not match meta.guideline_digest"),
    (lambda s: s.pop("labels"), "does not hold a usable plan"),
], ids=["parsed-digest", "logic-source", "unparseable-source", "guideline-body",
        "missing-section"])
def test_false_written_digest_rejected_exit_6(tmp_path, edit, fragment):
    data = _rerendered(edit)
    with pytest.raises(BundleError, match=fragment):
        unpack(data)
    path = tmp_path / "rerendered.orchb"
    path.write_bytes(data)
    assert main(["unpack", "--bundle", str(path), "--out", str(tmp_path / "plan.json")]) == 6


@pytest.mark.parametrize("status, allow_failed, accepted", [
    ("draft", False, False), ("draft", True, False),
    ("failed", False, False), ("failed", True, True),
])
def test_unpack_refuses_the_prompt_statuses_pack_refuses(status, allow_failed, accepted):
    def edit(sections):
        sections["prompts"][0]["status"] = status
        sections["meta"]["allow_failed"] = allow_failed

    data = _rerendered(edit)
    if accepted:
        assert unpack(data).to_plan().prompts[0].status == status
    else:
        with pytest.raises(BundleError, match="does not hold a usable plan: prompts not "
                                              "refined for subtasks: distant_spread"):
            unpack(data)


def _restructured(edit) -> bytes:
    """A rendered bundle with its whole document edited and its trailer
    recomputed, so only the structure checks can show the edit."""
    body = _rerendered(lambda s: None).decode("utf-8").rsplit("#sha256:", 1)[0]
    document = json.loads(body)
    edit(document)
    body = canonical_json(document) + "\n"
    return (body + "#sha256:" + hashlib.sha256(body.encode()).hexdigest() + "\n").encode()


@pytest.mark.parametrize("data, fragment", [
    (lambda: _rerendered(lambda s: s.update(meta=[])),
     "bundle meta section must be a JSON object"),
    (lambda: _restructured(lambda d: d.update(integrity=[])),
     "bundle body lacks sections/integrity objects"),
    # Its names match the integrity map, so only the type check can catch it.
    (lambda: _restructured(lambda d: d.update(sections=sorted(d["sections"]))),
     "bundle body lacks sections/integrity objects"),
    (lambda: _rerendered(lambda s: s.update(synthetic=[])),
     "bundle does not hold a usable plan: 'list' object has no attribute 'items'"),
    # str() of 1 would be "1", whose major matches the reader's.
    (lambda: _rerendered(lambda s: s["meta"].update(format_version=1)),
     "meta.format_version must be a string, got 1"),
], ids=["meta a list", "integrity a list", "sections a list", "synthetic a list",
        "format_version a number"])
def test_non_object_bundle_structure_exits_6_with_one_error_line(tmp_path, capsys,
                                                                 data, fragment):
    path = tmp_path / "restructured.orchb"
    path.write_bytes(data())
    assert main(["unpack", "--bundle", str(path), "--out", str(tmp_path / "plan.json")]) == 6
    assert capsys.readouterr().err == f"error: {path}: {fragment}\n"
    assert not (tmp_path / "plan.json").exists()


def test_created_at_defaults_to_epoch_and_is_overridable():
    plan = refined_plan()
    assert unpack(pack(plan)).sections["meta"]["created_at"] == "1970-01-01T00:00:00Z"
    stamped = pack(plan, created_at="2025-06-01T12:00:00Z")
    assert unpack(stamped).sections["meta"]["created_at"] == "2025-06-01T12:00:00Z"
    assert stamped != pack(plan)


def test_plan_dict_round_trip():
    plan = refined_plan()
    assert plan_from_dict(json.loads(json.dumps(plan_to_dict(plan)))) == plan


def test_plan_file_round_trip(tmp_path):
    plan = refined_plan()
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    assert load_plan(path) == plan
    with pytest.raises(ValueError, match="plan file"):
        load_plan(tmp_path / "missing.json")
    (tmp_path / "junk.json").write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError, match="not a plan file"):
        load_plan(tmp_path / "junk.json")
