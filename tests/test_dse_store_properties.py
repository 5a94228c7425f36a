"""Property tests for the study store and the lease state machine.

Hypothesis drives two obligations the example-based suites can't pin:

- arbitrary trial records (unicode parameter names, odd floats,
  empty strings) round-trip through the sharded JSON store bit-exactly;
- under *any* interleaving of claims, completions, stale retries, and
  clock advances, the lease bookkeeping holds its invariants: every
  trial completes exactly once, stale tokens never win, and the number
  of live leases never exceeds the quota.
"""

import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dse import DseService, ServiceError
from repro.dse.store import (
    CLAIMED,
    COMPLETED,
    PENDING,
    StudyStore,
    TrialRecord,
    atomic_write_json,
    study_key,
    trial_key,
)

# JSON-representable parameter values: what the wire and the space allow
scalars = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.booleans(),
    st.text(max_size=24),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)

parameters = st.dictionaries(st.text(max_size=24), scalars, max_size=6)
metric_maps = st.dictionaries(
    st.text(min_size=1, max_size=24),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    max_size=4)

trial_records = st.builds(
    TrialRecord,
    trial_id=st.integers(min_value=1, max_value=10**6),
    parameters=parameters,
    state=st.sampled_from([PENDING, CLAIMED, COMPLETED]),
    metrics=metric_maps,
    infeasible=st.booleans(),
    worker=st.text(max_size=24),
    lease_token=st.text(max_size=40),
    lease_deadline=st.floats(min_value=0, allow_nan=False,
                             allow_infinity=False),
    cache_hit=st.booleans(),
    seconds=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(record=trial_records)
def test_trial_record_round_trips_through_store(tmp_path_factory, record):
    root = tmp_path_factory.mktemp("store")
    store = StudyStore(str(root))
    store.write_trial("owner-é", "study-中", record)
    loaded, unreadable = store.load_trials("owner-é", "study-中")
    assert unreadable == 0
    assert loaded == {record.trial_id: record}


@settings(max_examples=60, deadline=None)
@given(record=trial_records)
def test_trial_record_wire_form_is_json_stable(record):
    wire = json.loads(json.dumps(record.to_record()))
    assert TrialRecord.from_record(wire) == record


@settings(max_examples=30, deadline=None)
@given(owner=st.text(min_size=1, max_size=24),
       study_id=st.text(min_size=1, max_size=24),
       budget=st.integers(min_value=1, max_value=10**6))
def test_study_config_round_trips_through_store(tmp_path_factory, owner,
                                                study_id, budget):
    root = tmp_path_factory.mktemp("store")
    store = StudyStore(str(root))
    config = {"owner": owner, "study_id": study_id, "budget": budget,
              "state": "ACTIVE"}
    store.write_study(config)
    loaded = store.load_study(owner, study_id)
    for field in config:
        assert loaded[field] == config[field]
    listed = store.list_studies()
    assert len(listed) == 1
    assert listed[0]["study_id"] == study_id


def test_keys_are_content_addresses():
    assert study_key("a", "b") == study_key("a", "b")
    assert study_key("a", "b") != study_key("a", "c")
    assert study_key("ab", "") != study_key("a", "b")  # no concatenation
    skey = study_key("a", "b")
    assert trial_key(skey, 1) != trial_key(skey, 2)


def test_store_keys_are_pinned():
    # stores written by earlier releases must still resume: the keys
    # (and so every on-disk path) never move
    skey = study_key("fig7", "fig7-none")
    assert skey == ("fee367ccb27301fa1b02fde615a94a59"
                    "c2831de9030cddac525402469dfdb5d6")
    assert trial_key(skey, 1) == ("1871229b7a08623b0b3539b94d89c870"
                                  "364b466ff0c5b004e360bd5d66000fe5")


@settings(max_examples=25, deadline=None)
@given(garbage=st.binary(max_size=64))
def test_store_tolerates_arbitrary_garbage_files(tmp_path_factory, garbage):
    root = tmp_path_factory.mktemp("store")
    store = StudyStore(str(root))
    good = TrialRecord(trial_id=1, parameters={"x": 1})
    store.write_trial("o", "s", good)
    skey = study_key("o", "s")
    shard = os.path.join(str(root), skey[:2], skey, "trials", "00")
    os.makedirs(shard, exist_ok=True)
    with open(os.path.join(shard, "garbage.json"), "wb") as handle:
        handle.write(garbage)
    loaded, unreadable = store.load_trials("o", "s")
    assert loaded == {1: good}
    # the garbage never masquerades as a readable record unless it
    # happens to be a valid record document of the current schema
    try:
        TrialRecord.from_record(json.loads(garbage.decode("utf-8")))
        expected = 0
    except (ValueError, KeyError, TypeError, AttributeError):
        expected = 1
    assert unreadable == expected


def test_atomic_write_never_leaves_temp_files(tmp_path):
    target = str(tmp_path / "deep" / "nested" / "doc.json")
    atomic_write_json(target, {"ok": True})
    atomic_write_json(target, {"ok": False})  # overwrite is atomic too
    with open(target) as handle:
        assert json.load(handle) == {"ok": False}
    leftovers = [name for name in os.listdir(os.path.dirname(target))
                 if name.endswith(".tmp")]
    assert leftovers == []


def test_memory_store_is_a_quiet_noop():
    store = StudyStore(None)
    assert not store.persistent
    store.write_study({"owner": "o", "study_id": "s", "budget": 1})
    store.write_trial("o", "s", TrialRecord(trial_id=1, parameters={}))
    assert store.load_study("o", "s") is None
    assert store.list_studies() == []
    assert store.load_trials("o", "s") == ({}, 0)


# --------------------------------------------------------------------------------
# Lease bookkeeping invariants under randomized interleavings
# --------------------------------------------------------------------------------

class FakeClock:
    def __init__(self, now=1_000_000.0):
        self.now = now

    def __call__(self):
        return self.now


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       budget=st.integers(min_value=1, max_value=14),
       batch=st.integers(min_value=1, max_value=5),
       quota=st.integers(min_value=1, max_value=5))
def test_lease_invariants_under_random_interleavings(seed, budget, batch,
                                                     quota):
    """Claims, completions, stale retries, and expiries in random order:
    every trial completes exactly once and quotas are never exceeded."""
    rng = random.Random(seed)
    clock = FakeClock()
    service = DseService(clock=clock, lease_seconds=10.0)
    study = service.create_study({
        "owner": "prop", "study_id": "lease", "budget": budget,
        "batch": batch, "max_inflight": quota, "algorithm": "random",
        "seed": seed % 1000, "goals": ["a", "b"],
        "space": {"parameters": [{"name": "x", "values": [0, 1, 2]},
                                 {"name": "y", "values": [0, 1, 2]}]},
    })

    held = []          # (trial_id, token) snapshots, including stale ones
    completions = {}   # trial_id -> completion count (must stay at 1)
    steps = 0
    while study.state == "ACTIVE" and steps < 600:
        steps += 1
        action = rng.choice(["claim", "claim", "complete", "complete",
                             "stale", "expire"])
        if action == "claim":
            worker = f"w{rng.randrange(4)}"
            for record in study.claim(worker, rng.randint(1, 3)):
                held.append((record.trial_id, record.lease_token))
        elif action == "complete" and held:
            trial_id, token = held.pop(rng.randrange(len(held)))
            try:
                result = study.complete(
                    trial_id, token, metrics={"a": 1.0, "b": 2.0})
            except ServiceError as error:
                assert error.status == 409  # stale or superseded lease
            else:
                assert result["ok"]
                if not result["duplicate"]:
                    completions[trial_id] = completions.get(trial_id, 0) + 1
        elif action == "stale" and held:
            # a dead worker retries an old token without forgetting it
            trial_id, token = rng.choice(held)
            try:
                result = study.complete(
                    trial_id, token, metrics={"a": 9.0, "b": 9.0})
            except ServiceError as error:
                assert error.status == 409
            else:
                if not result["duplicate"]:
                    completions[trial_id] = completions.get(trial_id, 0) + 1
                held.remove((trial_id, token))
        elif action == "expire":
            clock.now += rng.choice([3.0, 11.0])

        # the standing invariants, checked at every step
        assert study.inflight() <= quota
        assert study.completed_count() == len(completions)
        assert all(count == 1 for count in completions.values())
        assert len(study.study.trials) <= budget

    # drain deterministically: claim-and-complete until done
    for _ in range(600):
        if study.state != "ACTIVE":
            break
        granted = study.claim("drain", batch)
        if not granted:
            clock.now += 11.0  # only live leases can block the drain
            continue
        for record in granted:
            result = study.complete(record.trial_id, record.lease_token,
                                    metrics={"a": 1.0, "b": 2.0})
            if not result["duplicate"]:
                completions[record.trial_id] = \
                    completions.get(record.trial_id, 0) + 1

    assert study.state == "DONE"
    assert study.completed_count() == budget
    assert sorted(completions) == list(range(1, budget + 1))
    assert all(count == 1 for count in completions.values())
