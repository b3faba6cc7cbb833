"""Validation through the lane pool: `iter_lanes` itself, and the CLI's
`validate` and `infer --revalidate` running every subtask's cases as lanes
of one pool, in waves.

The CLI's channels are served by scripted handlers: the local model reads
the fixture's token markers, can flip the spread field on chosen seeds or
on chosen sightings of a synthetic case under one prompt (so output bytes
depend on each round's reply landing in its own round, and on a case's
sightings keeping their order) and counts the calls in flight.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from collections import Counter

import pytest

from orchkit import executor, gateway
from orchkit.bundle import save_plan
from orchkit.cli import main
from orchkit.errors import UnseenRequestError
from orchkit.executor import iter_lanes
from orchkit.gateway import (
    PHASE_CLOUD,
    PHASE_LOCAL,
    BackendProfile,
    Gateway,
    ScriptedBackend,
)

from conftest import fake_local_extractor, fixture_documents, golden_plan, refined_plan


class LocalModel:
    """The fixture's perfect extractor, with `distant_metastasis` flipped in
    a request whose seed is in `flip_on`, and on the sightings of a
    synthetic case's (system, user) pair, counted across seeds, listed in
    `flip_sightings`. Counts each request's sightings, the calls in flight
    and their peak.

    With `together`, calls are held at a barrier until that many are in
    flight at once, so the peak does not depend on the host's speed: a pool
    narrower than `together` breaks the barrier, and a wider one shows in
    the peak."""

    def __init__(self, *, flip_on=(), flip_sightings=(), delay: float = 0.0,
                 together: int = 0):
        self.flip_on = frozenset(flip_on)
        self.flip_sightings = frozenset(flip_sightings)
        self.delay = delay
        self.barrier = threading.Barrier(together, timeout=5) if together else None
        self.seen: Counter = Counter()
        self.pairs: Counter = Counter()
        self.inflight = 0
        self.peak = 0
        self.lock = threading.Lock()

    def __call__(self, request) -> str:
        key = request.system_prompt, request.user_content, request.seed
        with self.lock:
            self.seen[key] += 1
            n = self.seen[key]
            self.pairs[key[:2]] += 1
            sighting = self.pairs[key[:2]]
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            if self.barrier is not None:
                self.barrier.wait()
            time.sleep(self.delay)
            values = json.loads(fake_local_extractor(request))["values"]
            flip = request.seed in self.flip_on or (
                sighting in self.flip_sightings and request.user_content.startswith("synthetic"))
            if flip and "distant_metastasis" in values:
                values["distant_metastasis"] = (
                    "absent" if values["distant_metastasis"] == "present" else "present")
            return json.dumps({"reasoning": f"sighting {n}", "values": values})
        finally:
            with self.lock:
                self.inflight -= 1


def cloud_rewrite(request) -> str:
    """Refinement reply naming the subtask, so the extractor still routes it."""
    name = ("Distant spread" if "Distant spread" in request.system_prompt
            else "Vessel involvement")
    return json.dumps({"system_prompt": f"{name}: revised instructions."})


def scripted_channels(monkeypatch, local, cloud=cloud_rewrite) -> list[str]:
    """Serve the CLI's gateways from handlers. Returns the phase of every
    gateway the CLI builds, in order."""
    built: list[str] = []

    def make(profile, phase):
        built.append(phase)
        handler = local if phase == PHASE_LOCAL else cloud
        return Gateway(BackendProfile.scripted(ScriptedBackend(handler), model=profile.model,
                                               temperature=profile.default_temperature,
                                               context=profile.default_context),
                       phase, sleep=lambda _s: None)

    monkeypatch.setattr(gateway, "Gateway", make)
    return built


def write_inputs(root, *, cases: int = 3, **knobs):
    """A draft plan, a refined plan, documents and a config in `root`."""
    root.mkdir(parents=True)
    save_plan(golden_plan(cases), root / "plan.json")
    save_plan(refined_plan(cases), root / "refined.json")
    with (root / "docs.jsonl").open("w", encoding="utf-8") as fh:
        for doc in fixture_documents():
            fh.write(json.dumps({"id": doc.id, "body": doc.body}) + "\n")
    settings = {"cloud.kind": "scripted", "cloud.session": "unused.jsonl",
                "local.kind": "scripted", "local.session": "unused.jsonl",
                "rounds": 3, "threshold": 0.8, **knobs}
    (root / "orch.cfg").write_text("".join(f"{k} = {v}\n" for k, v in settings.items()),
                                   encoding="utf-8")
    return root


def validate(ws, *extra: str) -> int:
    return main(["validate", "--plan", str(ws / "plan.json"), "--out",
                 str(ws / "validated.json"), "--config", str(ws / "orch.cfg"), *extra])


def pack(ws, plan: str) -> int:
    return main(["pack", "--plan", str(ws / plan), "--out", str(ws / "artifact.orchb"),
                 "--config", str(ws / "orch.cfg"), "--deterministic"])


def infer(ws, *extra: str) -> int:
    return main(["infer", "--bundle", str(ws / "artifact.orchb"), "--docs",
                 str(ws / "docs.jsonl"), "--out", str(ws / "preds.jsonl"),
                 "--config", str(ws / "orch.cfg"), "--deterministic", *extra])


def test_validation_bytes_do_not_depend_on_workers(tmp_path, monkeypatch, capsys):
    # Every spread case fails on its second and fourth sighting under one
    # prompt, so with two repeats per case (seeds 1 and 2) the spread prompt
    # refines three times, revisions 1-3 sending identical requests; vessel
    # passes at revision 0.
    outputs = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave threads as often as possible
    try:
        for workers in (1, 2, 3, 8, 16):
            ws = write_inputs(tmp_path / f"workers-{workers}", workers=workers,
                              validation_repeats=2, max_iters=3)
            scripted_channels(monkeypatch, LocalModel(flip_sightings=(2, 4)))
            codes = (validate(ws, "--emit-history", str(ws / "history.json")),
                     pack(ws, "validated.json"), infer(ws, "--revalidate"))
            assert codes == (0, 0, 0)
            stdout = capsys.readouterr().out.replace(str(ws), "<ws>")
            outputs.add((stdout, *((ws / name).read_bytes() for name in (
                "history.json", "validated.json", "preds.jsonl"))))
    finally:
        sys.setswitchinterval(interval)
    assert len(outputs) == 1
    stdout, history = outputs.pop()[:2]
    assert "distant_spread: refined at revision 3 (pass rate 3/3, 3 refinements)" in stdout
    assert "vessel_involvement: refined at revision 0" in stdout
    assert [e["verdict"] for e in json.loads(history)] == ["refine"] * 3 + ["passed"] * 2


def test_lanes_order_width_cancellation_and_error():
    def slow_first(i):
        time.sleep(0.01 * (4 - i))
        return i * i

    for width in (1, 2, 5):
        assert list(iter_lanes(slow_first, list(range(5)), width=width)) == [0, 1, 4, 9, 16]
    assert list(iter_lanes(slow_first, [], width=3)) == []

    lock = threading.Lock()
    inflight, peak = [0], [0]

    def counted(i):
        with lock:
            inflight[0] += 1
            peak[0] = max(peak[0], inflight[0])
        time.sleep(0.01)
        with lock:
            inflight[0] -= 1
        return i

    assert list(iter_lanes(counted, list(range(9)), width=3)) == list(range(9))
    assert 1 < peak[0] <= 3

    started, finished = [], []

    def lane(i):
        with lock:
            started.append(i)
        if i == 1:
            raise ValueError("lane 1")
        time.sleep(0.05)  # keep started lanes busy while the error is handled
        with lock:
            finished.append(i)
        return i

    for width in (1, 2):
        started.clear()
        finished.clear()
        with pytest.raises(ValueError, match="lane 1"):
            list(iter_lanes(lane, list(range(8)), width=width))
        # Lane 2 may take the thread lane 1 freed; later lanes are cancelled,
        # and every lane that started has finished when the error is raised.
        assert set(started) <= {0, 1, 2}
        assert sorted(finished) == sorted(set(started) - {1})
        assert 0 in finished

    def late_and_early(i):
        if i == 1:
            time.sleep(0.02)
            raise ValueError("lane 1 fails last")
        if i == 3:
            raise ValueError("lane 3 fails first")
        return i

    with pytest.raises(ValueError, match="lane 1 fails last"):
        list(iter_lanes(late_and_early, list(range(4)), width=4))


def test_a_failed_lane_at_width_1_stops_every_later_lane():
    calls = []

    def lane(i):
        calls.append(i)
        if i == 0:
            raise ValueError("lane 0")
        return i

    with pytest.raises(ValueError, match="lane 0"):
        list(iter_lanes(lane, list(range(10)), width=1))
    assert calls == [0]


@pytest.mark.parametrize("width", [2, 4])
def test_lanes_failing_together_start_no_later_lane(width):
    # Lanes 0..width-1 hold every thread until all of them raise, so each
    # later lane is taken by a thread whose lane has already failed.
    barrier = threading.Barrier(width, timeout=10)
    lock = threading.Lock()
    calls = []

    def lane(i):
        with lock:
            calls.append(i)
        if i < width:
            barrier.wait()
            raise ValueError(f"lane {i}")
        return i

    with pytest.raises(ValueError, match="^lane 0$"):
        list(iter_lanes(lane, list(range(3 * width)), width=width))
    assert sorted(calls) == list(range(width))


def test_lane_results_and_first_error_hold_under_thread_switch_stress():
    # More threads than cores, switching as often as the interpreter allows:
    # every lane before the first failure is yielded, in order, and the
    # first failure's error is raised, wherever the other failures fall.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(30):
            failing = set(random.Random(trial).sample(range(200), 3))
            first = min(failing)

            def lane(i):
                if i in failing:
                    raise ValueError(f"lane {i}")
                return i

            yielded = []
            with pytest.raises(ValueError, match=f"^lane {first}$"):
                for result in iter_lanes(lane, list(range(200)), width=8):
                    yielded.append(result)
            assert yielded == list(range(first))
    finally:
        sys.setswitchinterval(interval)


class RecordingQueue(executor.SimpleQueue):
    """The queues `iter_lanes` builds, recording every item once it is on its
    queue: lanes handed to the threads as (index, item), stop markers as
    None, and finished lanes as (index, error, result)."""

    puts: list = []
    changed = threading.Condition()

    def put(self, item, block=True, timeout=None):
        super().put(item, block, timeout)
        with self.changed:
            self.puts.append(item)
            self.changed.notify_all()

    @classmethod
    def wait_for(cls, predicate, timeout: float = 10) -> bool:
        with cls.changed:
            return cls.changed.wait_for(lambda: predicate(cls.puts), timeout)


@pytest.fixture
def recording_queue(monkeypatch):
    monkeypatch.setattr(RecordingQueue, "puts", [])
    monkeypatch.setattr(executor, "SimpleQueue", RecordingQueue)
    return RecordingQueue


@pytest.mark.parametrize("width", [1, 3])
def test_lanes_pull_only_width_items_while_every_lane_is_blocked(width):
    running = threading.Semaphore(0)
    release = threading.Event()
    pulled = []

    def items():
        for i in range(4 * width):
            pulled.append(i)
            yield i

    def lane(i):
        running.release()
        assert release.wait(10), "lanes were never released"
        return i

    results = []
    consumer = threading.Thread(target=lambda: results.extend(
        iter_lanes(lane, items(), width=width)))
    consumer.start()
    try:
        for _ in range(width):
            assert running.acquire(timeout=10), "fewer than width lanes started"
        # Every running lane is blocked, so no slot is free for another item.
        assert pulled == list(range(width))
    finally:
        release.set()
        consumer.join(10)
    assert not consumer.is_alive()
    assert results == pulled == list(range(4 * width))


@pytest.mark.parametrize("width", [2, 4])
def test_lane_failing_after_width_lanes_run_starts_no_later_lane(width, recording_queue):
    # Lane 0 raises once all `width` lanes are running; lanes 1..width-1
    # finish only after lane 0's error is queued, freeing every thread.
    barrier = threading.Barrier(width, timeout=10)
    lock = threading.Lock()
    finished, late = [], []

    def lane_0_failed(puts):
        return any(p is not None and len(p) == 3 and p[0] == 0 for p in puts)

    def lane(i):
        if i >= width:
            with lock:
                late.append(i)
            return i
        barrier.wait()
        if i == 0:
            raise ValueError("lane 0")
        assert recording_queue.wait_for(lane_0_failed), "lane 0 never failed"
        with lock:
            finished.append(i)
        return i

    with pytest.raises(ValueError, match="^lane 0$"):
        list(iter_lanes(lane, iter(range(3 * width)), width=width))
    assert sorted(finished) == list(range(1, width))
    assert late == []
    handed = [p[0] for p in recording_queue.puts if p is not None and len(p) == 2]
    assert handed == list(range(width))


def test_no_lane_thread_outlives_the_iterator(monkeypatch):
    # However the iterator ends (exhausted, a lane's error, an early close),
    # every thread it started has been joined, and it started at most `width`.
    original_start = threading.Thread.start
    starts = []

    def start(thread):
        starts.append(thread)
        return original_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)

    def fails_at_5(i):
        if i == 5:
            raise ValueError("lane 5")
        return i

    def exhausted(width):
        assert list(iter_lanes(lambda i: i, range(20), width=width)) == list(range(20))

    def raised(width):
        with pytest.raises(ValueError, match="^lane 5$"):
            list(iter_lanes(fails_at_5, range(20), width=width))

    def closed(width):
        lanes = iter_lanes(lambda i: i, range(20), width=width)
        assert next(lanes) == 0
        lanes.close()

    for end in (exhausted, raised, closed):
        for width in (1, 3, 8):
            starts.clear()
            end(width)
            assert 1 <= len(starts) <= width, (end.__name__, width)
            assert not any(thread.is_alive() for thread in starts), (end.__name__, width)


def revalidation_peak(monkeypatch, ws, together: int) -> int:
    """Calls in flight at `infer --revalidate` over a packed bundle, held
    until `together` are in flight. Every spread case fails on its first
    sighting, so revalidation stops the run before any document is read and
    the peak is revalidation's alone."""
    model = LocalModel(flip_on=(1,), together=together)
    scripted_channels(monkeypatch, model)
    assert infer(ws, "--revalidate") == 5
    assert not (ws / "preds.jsonl").exists()
    return model.peak


def test_validate_and_revalidate_run_subtasks_at_once(tmp_path, monkeypatch):
    # Both subtasks' 12 cases are lanes of one pool, workers x rounds x subtasks
    # = 6 wide; lanes start in check order, so six cases are in flight at once.
    ws = write_inputs(tmp_path / "ws", cases=6, workers=1)
    model = LocalModel(together=2 * 3)
    scripted_channels(monkeypatch, model)
    assert validate(ws) == 0
    assert model.peak == 2 * 3
    assert pack(ws, "refined.json") == 0
    assert revalidation_peak(monkeypatch, ws, 2 * 3) == 2 * 3


def test_a_subtask_refining_alone_gets_the_whole_pool(tmp_path, monkeypatch, capsys):
    # Every spread case fails on its first sighting under a prompt, so spread
    # refines twice while vessel passes at once: the second and third waves
    # hold spread's 6 cases alone, and the pool stays workers x rounds x
    # subtasks = 6 wide, so all six are in flight at once.
    ws = write_inputs(tmp_path / "ws", cases=6, workers=1)
    model = LocalModel(flip_sightings=(1,), together=2 * 3)
    scripted_channels(monkeypatch, model)
    assert validate(ws) == 0
    out = capsys.readouterr().out
    assert "distant_spread: refined at revision 2 (pass rate 6/6, 2 refinements)" in out
    assert "vessel_involvement: refined at revision 0" in out
    assert model.peak == 2 * 3


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_calls_in_flight_stay_within_workers_times_subtasks(tmp_path, monkeypatch,
                                                            workers):
    # Each command has at most workers x rounds x subtasks calls in flight:
    # validation's cases (never more than both subtasks' 12) and infer's rounds.
    # Calls are held until the expected number is in flight; the 12 cases and
    # the 30 rounds of infer fill whole groups of it.
    ws = write_inputs(tmp_path / "ws", cases=6, workers=workers)
    expected = 2 * min(6, workers * 3)
    validating = LocalModel(together=expected)
    scripted_channels(monkeypatch, validating)
    assert validate(ws) == 0
    assert validating.peak == expected
    assert pack(ws, "validated.json") == 0
    assert revalidation_peak(monkeypatch, ws, expected) == expected
    inferring = LocalModel(together=2 * 3)
    scripted_channels(monkeypatch, inferring)
    assert infer(ws, "--revalidate") == 0
    assert 2 * 3 <= inferring.peak <= workers * 2 * 3  # rounds run as lanes too


def test_infer_issues_a_documents_rounds_at_once(tmp_path, monkeypatch):
    ws = write_inputs(tmp_path / "ws", workers=1)
    model = LocalModel(together=2 * 3)
    scripted_channels(monkeypatch, model)
    assert pack(ws, "refined.json") == 0
    assert infer(ws) == 0
    assert model.peak == 2 * 3  # subtasks x rounds, one document in flight
    assert {seed for (_system, _user, seed) in model.seen} == {1, 2, 3}


def test_case_lane_error_exits_4_and_writes_nothing(tmp_path, monkeypatch):
    ws = write_inputs(tmp_path / "ws", workers=2)

    def unseen_vessel_case(request):
        if "vessel case 1" in request.user_content:
            raise UnseenRequestError("no recorded response")
        return fake_local_extractor(request)

    scripted_channels(monkeypatch, unseen_vessel_case)
    assert validate(ws, "--emit-history", str(ws / "history.json")) == 4
    assert not (ws / "validated.json").exists()
    assert not (ws / "history.json").exists()


def test_failed_loop_stops_the_other_loops_rewrites(tmp_path, monkeypatch):
    # Spread never passes, so alone it would spend all five rewrites; its
    # first revision's cases outlast the vessel lane's error.
    ws = write_inputs(tmp_path / "ws", workers=1, max_iters=5)
    stuck = LocalModel(flip_on=range(1, 100), delay=0.05)

    def local(request):
        if "vessel case 1" in request.user_content:
            raise UnseenRequestError("no recorded response")
        return stuck(request)

    rewrites = []

    def cloud(request):
        rewrites.append(request)
        return cloud_rewrite(request)

    scripted_channels(monkeypatch, local, cloud)
    assert validate(ws) == 4
    assert not (ws / "validated.json").exists()
    assert rewrites == []


def test_cloud_gateway_built_once_and_only_for_refinement(tmp_path, monkeypatch, capsys):
    def drafts_guess_unknown(request):
        reply = json.loads(fake_local_extractor(request))
        if request.system_prompt.startswith("Extract"):
            reply["values"] = dict.fromkeys(reply["values"], "unknown")
        return json.dumps(reply)

    ws = write_inputs(tmp_path / "ws", workers=1)
    built = scripted_channels(monkeypatch, drafts_guess_unknown)
    make = gateway.Gateway

    def slow_make(profile, phase):
        time.sleep(0.05)  # widen the window in which both loops could build one
        return make(profile, phase)

    monkeypatch.setattr(gateway, "Gateway", slow_make)
    assert validate(ws) == 0
    assert "distant_spread: refined at revision 1" in capsys.readouterr().out
    assert built.count(PHASE_CLOUD) == 1

    built = scripted_channels(monkeypatch, fake_local_extractor)
    assert validate(ws) == 0
    assert built == [PHASE_LOCAL]


def test_revalidate_honours_validation_repeats(tmp_path, monkeypatch):
    ws = write_inputs(tmp_path / "ws", validation_repeats=2)
    model = LocalModel()
    scripted_channels(monkeypatch, model)
    assert pack(ws, "refined.json") == 0
    assert infer(ws, "--revalidate") == 0
    case_sightings = sorted((user, seed, n) for (_system, user, seed), n in model.seen.items()
                            if user.startswith("synthetic"))
    cases = sorted({user for user, _seed, _n in case_sightings})
    assert len(cases) == 6
    assert case_sightings == [(user, seed, 1) for user in cases for seed in (1, 2)]
