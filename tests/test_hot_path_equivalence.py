"""Behaviour pins for the hot path (timer wheel, slab vectors, batched receipts).

The simulation runs one implementation of each hot-path concept:

* a slotted timer wheel next to the event heap for high-churn periodic
  timers (``schedule(..., wheel=True)``), merged by the global
  ``(time, sequence)`` key,
* slab-backed receive and stability vectors (``MemberVector``), and
* per-instant receipt batches (``NewtopProcess._on_transport_batch``).

Their reference implementations are not kept in ``src/``; they live here
as oracles instead:

* **Whole runs** are pinned by golden fingerprints: counts plus a sha256
  over a canonical serialisation of every trace event.  The three
  fault-free goldens were recorded where the reference scheduler, the
  dict vectors and per-message receipts were still selectable, and each
  was checked to equal the all-reference run byte for byte.
* **The seeded churn run** is also compared live against reference paths
  installed by the test itself: every event on the heap, the dict vector
  model below, and a delivery pass after every receipt.
* **The wheel** is compared against all-heap placement on the same
  :class:`Simulator` (every event scheduled ``wheel=False``).
* **The slab vectors** are compared against the small dict model below
  under randomized operation sequences.
"""

import hashlib
import json
import math
import random

import pytest

from repro.api import Session, StackError
from repro.core import stability, symmetric
from repro.core.process import NewtopProcess
from repro.core.vectors import INFINITY, MemberVector, ReceiveVector, StabilityVector
from repro.net.simulator import Simulator
from repro.net.trace import TraceSink
from repro.scenarios import (
    cascading_partitions_scenario,
    churn_scenario,
    mixed_modes_scenario,
    run_scenario,
)

# ---------------------------------------------------------------------------
# Golden trace fingerprints: whole seeded runs, pinned byte for byte
# ---------------------------------------------------------------------------

def _churn_config(**protocol):
    config = churn_scenario(
        n_processes=60,
        n_groups=6,
        group_size=8,
        crashes=2,
        leaves=2,
        formations=1,
        messages_per_sender=2,
        seed=11,
    )
    config["protocol"] = dict(config.get("protocol") or {}, **protocol)
    return config


def _churn_with_link_faults():
    config = _churn_config()
    config["link_faults"] = {"seed": 11, "duplicate": 0.1, "reorder": 0.1}
    return config


def _canonical(value):
    """A JSON-ready form of a trace detail value that does not depend on
    set iteration order (and so not on ``PYTHONHASHSEED``)."""
    if isinstance(value, (set, frozenset)):
        return sorted(
            (_canonical(item) for item in value),
            key=lambda item: json.dumps(item, sort_keys=True),
        )
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"no canonical form for trace detail {value!r}")


class _TraceHashSink(TraceSink):
    """Streams a sha256 over every trace event; stores nothing."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0

    def on_event(self, event):
        self.count += 1
        row = (
            event.seq, repr(event.time), event.kind, event.process, event.group,
            event.message_id, event.sender, event.clock, _canonical(event.details),
        )
        self._hash.update(json.dumps(row, sort_keys=True).encode())
        self._hash.update(b"\n")

    def hexdigest(self):
        return self._hash.hexdigest()


def _golden_fingerprint(config):
    sink = _TraceHashSink()
    result = run_scenario(config, sinks=[sink])
    return {
        "events_processed": result.events_processed,
        "deliveries": result.deliveries,
        "messages_sent": result.messages_sent,
        "sim_time": result.sim_time,
        "trace_events": sink.count,
        "passed": result.passed,
        "sha256": sink.hexdigest(),
    }


_SCENARIOS = {
    "churn": _churn_config,
    "mixed_modes": mixed_modes_scenario,
    "cascading_partitions": cascading_partitions_scenario,
    "churn_link_faults": _churn_with_link_faults,
}

#: Recorded with streaming verification.  ``churn``, ``mixed_modes`` and
#: ``cascading_partitions`` also equal the all-reference run (heap-only
#: scheduler, dict vectors, per-message receipts).  ``churn_link_faults``
#: is the batched path only: under reorder faults a pass per receipt gives
#: the same per-process delivery order and counts but records some
#: ``deliver`` events before a same-instant ``receive`` (first difference
#: at trace seq 354), so it never was a byte-identical reference there.
GOLDEN = {
    "churn": {
        "events_processed": 11267, "deliveries": 206, "messages_sent": 9589,
        "sim_time": 46.0, "trace_events": 1975, "passed": True,
        "sha256": "9ff20196ce874b5c2cc0fba9e83ddde17380d45a3098c218466767f063f5a98a",
    },
    "mixed_modes": {
        "events_processed": 2456, "deliveries": 69, "messages_sent": 1245,
        "sim_time": 44.0, "trace_events": 412, "passed": True,
        "sha256": "76616200bf4e676d6d214b1abd64b49f2c21ce216f6b9b2baeed92afea1cc7e4",
    },
    "cascading_partitions": {
        "events_processed": 6644, "deliveries": 104, "messages_sent": 3318,
        "sim_time": 76.0, "trace_events": 1186, "passed": True,
        "sha256": "6a5e457addf12e53d152905d186422194fdab1213c9a2d49942911e0a9c53ef8",
    },
    "churn_link_faults": {
        "events_processed": 11476, "deliveries": 202, "messages_sent": 9596,
        "sim_time": 46.0, "trace_events": 1964, "passed": True,
        "sha256": "ccc489cbde7a06d5d48151d1465811e92a72105a2e15e8b7ca450322005d8071",
    },
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_golden_trace_fingerprint(scenario):
    assert _golden_fingerprint(_SCENARIOS[scenario]()) == GOLDEN[scenario]


@pytest.mark.parametrize("key", ["timer_wheel", "use_slab_state", "batch_receipts"])
@pytest.mark.parametrize("stack", ["newtop", "lamport_ack"])
def test_removed_hot_path_toggles_fail_loudly(key, stack):
    """A config naming a deleted toggle must not silently run the kept
    path: that would let a stale "reference" run pass as one."""
    with pytest.raises(StackError, match=key):
        run_scenario(_churn_config(**{key: False}), stack=stack)
    with pytest.raises(StackError, match=key):
        Session(stack, config={key: False})


# ---------------------------------------------------------------------------
# Timer wheel: firing order and O(1) cancellation
# ---------------------------------------------------------------------------

def _record_firing_order(sim, schedule):
    fired = []
    for delay, tag, wheel in schedule:
        sim.schedule(delay, fired.append, (tag, round(sim.now + delay, 9)), wheel=wheel)
    sim.run()
    return fired


def test_wheel_and_heap_fire_in_identical_order():
    rng = random.Random(42)
    schedule = [
        (rng.uniform(0.0, 20.0), index, rng.random() < 0.5) for index in range(400)
    ]
    mixed = _record_firing_order(Simulator(), schedule)
    heap_only = _record_firing_order(
        Simulator(), [(delay, tag, False) for delay, tag, _ in schedule]
    )
    wheel_only = _record_firing_order(
        Simulator(), [(delay, tag, True) for delay, tag, _ in schedule]
    )
    assert len(mixed) == len(schedule)
    assert mixed == heap_only == wheel_only


def test_wheel_interleaves_with_heap_by_global_time_and_sequence():
    sim = Simulator()
    fired = []
    # Same instant, alternating stores: sequence order must win.
    for index in range(10):
        sim.schedule(5.0, fired.append, index, wheel=(index % 2 == 0))
    sim.run()
    assert fired == list(range(10))


def test_wheel_rejects_current_slot_inserts_without_losing_events():
    sim = Simulator(wheel_slot_width=1.0)
    fired = []

    def reschedule():
        fired.append(sim.now)
        if len(fired) < 5:
            # Zero-ish delay lands in the slot being served: the wheel must
            # decline it (falls back to the heap) and it still fires now.
            sim.schedule(0.0, reschedule, wheel=True)

    sim.schedule(0.5, reschedule, wheel=True)
    sim.run()
    assert fired == [0.5] * 5


def test_cancelled_wheel_timer_never_fires_and_costs_no_compaction():
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(1.0 + 0.01 * index, fired.append, index, wheel=True)
        for index in range(500)
    ]
    assert sim.live_pending_events == 500
    for handle in handles[::2]:
        handle.cancel()
    # O(1) cancel: the live count drops immediately, nothing is rebuilt.
    assert sim.live_pending_events == 250
    assert sim.compactions == 0
    sim.run()
    assert fired == list(range(1, 500, 2))
    assert sim.compactions == 0
    assert sim.pending_events == 0


def test_wheel_cancel_is_idempotent_and_counts_stay_consistent():
    sim = Simulator()
    handle = sim.schedule(2.0, lambda: pytest.fail("cancelled timer fired"), wheel=True)
    other = sim.schedule(3.0, lambda: None, wheel=True)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled
    assert sim.live_pending_events == 1
    sim.run()
    assert not other.cancelled
    assert sim.pending_events == 0


# ---------------------------------------------------------------------------
# Slab vectors vs a dict model, under randomized operation sequences
# ---------------------------------------------------------------------------

class DictMemberVector:
    """The obvious dict implementation of :class:`MemberVector`: every
    aggregate is a fresh scan, so there is no cache to get wrong."""

    def __init__(self, members, initial=0):
        self.entries = {member: initial for member in members}
        self.last_finite_minimum = float(initial)

    def __getitem__(self, member):
        return self.entries[member]

    def __contains__(self, member):
        return member in self.entries

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def get(self, member, default=None):
        return self.entries.get(member, default)

    def update(self, member, value):
        if member not in self.entries:
            raise KeyError(member)
        if value > self.entries[member]:
            self.entries[member] = value
            return True
        return False

    def mark_infinite(self, member):
        if member in self.entries:
            self.entries[member] = INFINITY

    def remove(self, member):
        self.entries.pop(member, None)

    def add_member(self, member, initial=0):
        self.entries.setdefault(member, initial)

    def as_dict(self):
        return dict(self.entries)

    def members(self):
        return sorted(self.entries)

    def minimum(self):
        return min(self.entries.values(), default=INFINITY)

    def finite_minimum(self):
        finite = [value for value in self.entries.values() if value != INFINITY]
        if not finite:
            return self.last_finite_minimum
        value = min(finite)
        self.last_finite_minimum = max(self.last_finite_minimum, value)
        return value


class DictReceiveVector(DictMemberVector):
    def record_receipt(self, sender, clock):
        return self.update(sender, clock)

    @property
    def deliverable_bound(self):
        return self.minimum()


class DictStabilityVector(DictMemberVector):
    def record_ldn(self, sender, ldn):
        return self.update(sender, ldn)

    @property
    def stability_bound(self):
        return self.finite_minimum()


def _assert_vectors_agree(slab, reference):
    assert slab.as_dict() == reference.as_dict()
    assert slab.members() == reference.members()
    assert slab.minimum() == reference.minimum()
    assert slab.finite_minimum() == reference.finite_minimum()


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_slab_member_vector_matches_dict_reference(seed):
    rng = random.Random(seed)
    members = [f"P{index}" for index in range(8)]
    slab = MemberVector(members, initial=-1)
    reference = DictMemberVector(members, initial=-1)
    active = set(members)
    removed = set()
    for _ in range(600):
        op = rng.random()
        if op < 0.70 and active:
            member = rng.choice(sorted(active))
            value = rng.randrange(-1, 40)
            assert slab.update(member, value) == reference.update(member, value)
        elif op < 0.80 and active:
            member = rng.choice(sorted(active))
            slab.mark_infinite(member)
            reference.mark_infinite(member)
        elif op < 0.90 and len(active) > 1:
            member = rng.choice(sorted(active))
            slab.remove(member)
            reference.remove(member)
            active.discard(member)
            removed.add(member)
        elif removed:
            member = rng.choice(sorted(removed))
            slab.add_member(member, initial=rng.randrange(0, 5))
            reference.add_member(member, initial=slab[member])
            removed.discard(member)
            active.add(member)
        _assert_vectors_agree(slab, reference)
    # Untracked members raise on both implementations.
    with pytest.raises(KeyError):
        slab.update("stranger", 3)
    with pytest.raises(KeyError):
        reference.update("stranger", 3)


def test_slab_add_member_reactivates_with_dict_semantics():
    members = ["A", "B", "C"]
    slab = MemberVector(members)
    reference = DictMemberVector(members)
    for vector in (slab, reference):
        vector.update("A", 5)
        vector.remove("B")
        vector.add_member("B", initial=2)
        vector.add_member("D", initial=7)
    _assert_vectors_agree(slab, reference)


def test_all_infinite_minimum_matches_reference():
    slab = MemberVector(["A", "B"])
    reference = DictMemberVector(["A", "B"])
    for vector in (slab, reference):
        vector.update("A", 4)
        vector.mark_infinite("A")
        vector.mark_infinite("B")
    assert slab.minimum() == reference.minimum() == INFINITY
    assert math.isinf(slab.minimum())
    # finite_minimum clamps to the last finite bound on both sides.
    assert slab.finite_minimum() == reference.finite_minimum()


@pytest.mark.parametrize(
    "fast_cls, reference_cls, record, bound",
    [
        (ReceiveVector, DictReceiveVector, "record_receipt", "deliverable_bound"),
        (StabilityVector, DictStabilityVector, "record_ldn", "stability_bound"),
    ],
)
def test_protocol_vectors_match_dict_reference(fast_cls, reference_cls, record, bound):
    rng = random.Random(5)
    members = [f"P{index}" for index in range(6)]
    fast = fast_cls(members)
    reference = reference_cls(members)
    for _ in range(300):
        member = rng.choice(members)
        clock = rng.randrange(0, 30)
        assert getattr(fast, record)(member, clock) == getattr(
            reference, record
        )(member, clock)
        assert getattr(fast, bound) == getattr(reference, bound)
    _assert_vectors_agree(fast, reference)


# ---------------------------------------------------------------------------
# Whole runs: the kept hot path vs in-test reference paths
# ---------------------------------------------------------------------------

def _heap_scheduler(monkeypatch):
    """Every event on the heap: ``wheel=True`` requests are ignored."""
    schedule = Simulator.schedule

    def heap_only(self, delay, callback, *args, label="", wheel=False):
        return schedule(self, delay, callback, *args, label=label, wheel=False)

    monkeypatch.setattr(Simulator, "schedule", heap_only)


def _dict_vectors(monkeypatch):
    """Receive and stability vectors built from the dict model above."""
    monkeypatch.setattr(symmetric, "ReceiveVector", DictReceiveVector)
    monkeypatch.setattr(stability, "StabilityVector", DictStabilityVector)


def _per_message_receipts(monkeypatch):
    """A delivery pass and deferred-send flush after every receipt: each
    receipt reaches ``on_data_message`` outside a batch."""

    def per_message(self, messages):
        for tmsg in messages:
            if self.crashed:
                return
            self._on_transport_message(tmsg)

    monkeypatch.setattr(NewtopProcess, "_on_transport_batch", per_message)


@pytest.mark.parametrize(
    "references",
    [
        (_heap_scheduler,),
        (_dict_vectors,),
        (_per_message_receipts,),
        (_heap_scheduler, _dict_vectors, _per_message_receipts),
    ],
    ids=["heap-scheduler", "dict-vectors", "per-message-receipts", "all-reference"],
)
def test_churn_run_identical_across_hot_path_toggles(references, monkeypatch):
    fast = run_scenario(_churn_config())
    for install in references:
        install(monkeypatch)
    reference = run_scenario(_churn_config())
    assert fast.passed and reference.passed
    assert _fingerprint(fast) == _fingerprint(reference)


# ---------------------------------------------------------------------------
# Link-fault models at zero rates must never change a run
# ---------------------------------------------------------------------------

def _fingerprint(result):
    """Everything a run reports about its behaviour (counts, verdicts,
    metrics, latency); not where events were stored."""
    return {
        "events_processed": result.events_processed,
        "deliveries": result.deliveries,
        "messages_sent": result.messages_sent,
        "delivery_events": result.delivery_events,
        "sim_time": result.sim_time,
        "trace_events": result.trace_events,
        "agreement_sets": result.agreement_sets,
        "passed": result.passed,
        "violations": list(result.checks.violations),
        "metrics": result.metrics,
        "latency": (
            result.latency_reservoir.summary()
            if result.latency_reservoir is not None
            else None
        ),
    }


def test_churn_run_identical_with_zero_rate_link_faults_attached():
    """A :class:`repro.net.faults.LinkFaultModel` draws every decision from
    its own RNG, so attaching one whose rates are all zero is byte-identical
    to no model at all -- the invariant that keeps fault-free fuzz corpora
    comparable with the rest of the suite."""
    config = _churn_config()
    config["link_faults"] = {"seed": 11}
    plain = run_scenario(_churn_config())
    attached = run_scenario(config)
    assert plain.passed and attached.passed
    assert _fingerprint(plain) == _fingerprint(attached)


# ---------------------------------------------------------------------------
# Observation (repro.obs) must never change a run
# ---------------------------------------------------------------------------

def _observation_fingerprint(result):
    """The run fingerprint, minus ``events_processed``: the sampler
    schedules its own simulator events, which is exactly the one thing
    observation is *allowed* to add."""
    fingerprint = _fingerprint(result)
    fingerprint.pop("events_processed")
    return fingerprint


@pytest.mark.parametrize(
    "observe", ["metrics", "journeys", "full"], ids=["metrics", "journeys", "full"]
)
def test_churn_run_identical_with_observation_attached(observe):
    plain = run_scenario(_churn_config())
    observed = run_scenario(_churn_config(), observe=observe)
    assert plain.passed and observed.passed
    assert _observation_fingerprint(plain) == _observation_fingerprint(observed)
    assert plain.obs is None and observed.obs is not None
    # The trace counters agree with the totals the run itself reported.
    counters = observed.obs["metrics"]["counters"]
    assert counters["trace.deliver"] == observed.deliveries


def test_observation_leaves_trace_stream_byte_identical():
    """Stronger than the fingerprint: the full event stream --
    every (seq, time, kind, process, message, details) tuple -- must be
    identical with metrics + sampler + profiler + spans + journeys
    attached ("full" includes journey tracing, so this also pins the
    journey tracker as behaviour-free)."""
    from repro.api import Session
    from repro.core.messages import reset_message_counter
    from repro.net.trace import MemorySink

    def stream(observe):
        reset_message_counter()
        sink = MemorySink()
        session = Session("newtop", seed=9, observe=observe, sinks=[sink])
        session.spawn([f"P{index}" for index in range(6)])
        session.group("g")
        for index in range(5):
            session.multicast(f"P{index % 3}", "g", f"m-{index}")
            session.run(0.7)
        session.crash("P5")
        session.run(30.0)
        session.result()
        return [
            (e.seq, e.time, e.kind, e.process, e.group, e.message_id,
             e.sender, e.clock, e.details)
            for e in sink.trace().events()
        ]

    assert stream(None) == stream("full")
