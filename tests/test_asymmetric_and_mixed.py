"""Integration tests for the asymmetric (sequencer) protocol (§4.2) and
mixed-mode multi-group operation (§4.3), including the blocking rules."""

import pytest

from repro.analysis import check_all
from repro.analysis.checkers import check_total_order
from repro.analysis.metrics import blocking_times
from harness import NewtopCluster

from repro.core import NewtopConfig, OrderingMode
from repro.net.trace import BLOCKED_SEND, UNBLOCKED_SEND


def _cluster(names, seed=1, **overrides):
    config = NewtopConfig(omega=2.0, suspicion_timeout=8.0).replace(**overrides)
    return NewtopCluster(names, config=config, seed=seed)


# ----------------------------------------------------------------------
# Asymmetric, single group
# ----------------------------------------------------------------------
def test_asymmetric_total_order_single_group():
    cluster = _cluster(["A", "B", "C", "D"], seed=3)
    cluster.create_group("g", mode=OrderingMode.ASYMMETRIC)
    for i in range(4):
        cluster["B"].multicast("g", f"b{i}")
        cluster["D"].multicast("g", f"d{i}")
        cluster.run(0.5)
    cluster.run(60)
    orders = [tuple(process.delivered_payloads("g")) for process in cluster]
    assert len(set(orders)) == 1
    assert len(orders[0]) == 8
    assert check_total_order(cluster.trace(), "g").passed


def test_asymmetric_sequencer_is_lowest_member_id():
    cluster = _cluster(["A", "B", "C"])
    cluster.create_group("g", mode=OrderingMode.ASYMMETRIC)
    for process in cluster:
        assert process.endpoint("g").engine.sequencer() == "A"
    assert cluster["A"].endpoint("g").engine.is_sequencer()
    assert not cluster["B"].endpoint("g").engine.is_sequencer()


def test_asymmetric_sequencer_own_sends_are_ordered_too():
    cluster = _cluster(["A", "B", "C"], seed=9)
    cluster.create_group("g", mode=OrderingMode.ASYMMETRIC)
    cluster["A"].multicast("g", "from-sequencer")
    cluster["C"].multicast("g", "from-member")
    cluster.run(60)
    orders = {tuple(process.delivered_payloads("g")) for process in cluster}
    assert len(orders) == 1
    assert set(orders.pop()) == {"from-sequencer", "from-member"}


def test_asymmetric_messages_are_sequenced_messages():
    cluster = _cluster(["A", "B"], seed=2)
    cluster.create_group("g", mode=OrderingMode.ASYMMETRIC)
    cluster["B"].multicast("g", "x")
    cluster.run(40)
    record = cluster["A"].delivered[0]
    assert record.sender == "B"  # logical sender preserved end to end


def test_asymmetric_sequencer_crash_failover():
    cluster = _cluster(["A", "B", "C"], seed=4, omega=1.5, suspicion_timeout=6.0)
    cluster.create_group("g", mode=OrderingMode.ASYMMETRIC)
    cluster["B"].multicast("g", "before")
    cluster.run(20)
    cluster.crash("A")  # the sequencer
    cluster.run(120)
    for name in ("B", "C"):
        assert "A" not in cluster[name].view("g").members
        assert cluster[name].endpoint("g").engine.sequencer() == "B"
    cluster["C"].multicast("g", "after")
    cluster.run(80)
    for name in ("B", "C"):
        payloads = cluster[name].delivered_payloads("g")
        assert payloads[0] == "before"
        assert "after" in payloads


# ----------------------------------------------------------------------
# Multi-group and mixed mode
# ----------------------------------------------------------------------
def test_multigroup_process_orders_across_groups():
    cluster = _cluster(["P1", "P2", "P3", "P4"], seed=6)
    cluster.create_group("g1", ["P1", "P2", "P3"])
    cluster.create_group("g2", ["P2", "P3", "P4"])
    cluster["P1"].multicast("g1", "g1-a")
    cluster["P4"].multicast("g2", "g2-a")
    cluster.run(2)
    cluster["P2"].multicast("g1", "g1-b")
    cluster["P3"].multicast("g2", "g2-b")
    cluster.run(80)
    # P2 and P3 are in both groups; their interleaved delivery order of the
    # common messages must agree (MD4').
    shared = [m for m in cluster["P2"].delivered_payloads() if True]
    order_p2 = [r.msg_id for r in cluster["P2"].delivered]
    order_p3 = [r.msg_id for r in cluster["P3"].delivered]
    common = set(order_p2) & set(order_p3)
    assert [m for m in order_p2 if m in common] == [m for m in order_p3 if m in common]
    assert check_all(cluster.trace()).passed
    assert len(cluster["P2"].delivered) == 4


def test_mixed_mode_symmetric_and_asymmetric_groups():
    cluster = _cluster(["P1", "P2", "P3"], seed=8)
    cluster.create_group("sym", ["P1", "P2", "P3"], mode=OrderingMode.SYMMETRIC)
    cluster.create_group("asym", ["P1", "P2", "P3"], mode=OrderingMode.ASYMMETRIC)
    for i in range(3):
        cluster["P2"].multicast("sym", f"s{i}")
        cluster["P2"].multicast("asym", f"a{i}")
        cluster.run(1.0)
    cluster.run(80)
    result = check_all(cluster.trace())
    assert result.passed, result.violations
    for process in cluster:
        assert len(process.delivered_payloads("sym")) == 3
        assert len(process.delivered_payloads("asym")) == 3
    # Cross-group order of the multi-group members agrees.
    orders = [tuple(r.msg_id for r in cluster[p].delivered) for p in ("P1", "P2", "P3")]
    assert len(set(orders)) == 1


def test_blocking_rule_defers_sends_while_unicast_unsequenced():
    # P2 sends in the asymmetric group (unicast to sequencer P1) and then
    # immediately in the symmetric group: the second send must be deferred
    # until the first comes back from the sequencer (Mixed-mode Blocking
    # Rule), and must still be delivered afterwards.
    cluster = _cluster(["P1", "P2", "P3"], seed=10)
    cluster.create_group("asym", mode=OrderingMode.ASYMMETRIC)
    cluster.create_group("sym", mode=OrderingMode.SYMMETRIC)
    first = cluster["P2"].multicast("asym", "needs-sequencing")
    assert first is not None
    assert cluster["P2"].outstanding_unicasts("asym") == 1
    second = cluster["P2"].multicast("sym", "must-wait")
    assert second is None  # deferred
    trace_now = cluster.trace()
    assert trace_now.events(kind=BLOCKED_SEND, process="P2", group="sym")
    cluster.run(80)
    assert cluster["P2"].outstanding_unicasts() == 0
    for process in cluster:
        assert "must-wait" in process.delivered_payloads("sym")
        assert "needs-sequencing" in process.delivered_payloads("asym")
    assert cluster.trace().events(kind=UNBLOCKED_SEND, process="P2", group="sym")
    assert check_all(cluster.trace()).passed


def test_symmetric_only_sends_never_block():
    cluster = _cluster(["P1", "P2", "P3"], seed=11)
    cluster.create_group("g1", mode=OrderingMode.SYMMETRIC)
    cluster.create_group("g2", mode=OrderingMode.SYMMETRIC)
    for i in range(5):
        assert cluster["P1"].multicast("g1", f"a{i}") is not None
        assert cluster["P1"].multicast("g2", f"b{i}") is not None
    assert not cluster.trace().events(kind=BLOCKED_SEND)
    cluster.run(60)
    assert check_all(cluster.trace()).passed


def test_same_group_asymmetric_sends_do_not_block_each_other():
    # The Send Blocking Rule only concerns messages unicast in *other*
    # groups: consecutive sends in the same asymmetric group go out freely.
    cluster = _cluster(["P1", "P2"], seed=12)
    cluster.create_group("g", mode=OrderingMode.ASYMMETRIC)
    first = cluster["P2"].multicast("g", "one")
    second = cluster["P2"].multicast("g", "two")
    assert first is not None and second is not None
    cluster.run(60)
    assert cluster["P1"].delivered_payloads("g") == ["one", "two"]


def test_blocking_time_is_measurable():
    cluster = _cluster(["P1", "P2", "P3"], seed=13)
    cluster.create_group("asym", mode=OrderingMode.ASYMMETRIC)
    cluster.create_group("sym", mode=OrderingMode.SYMMETRIC)
    cluster["P2"].multicast("asym", "x")
    cluster["P2"].multicast("sym", "y")
    cluster.run(60)
    waits = blocking_times(cluster.trace(), group="sym")
    assert len(waits) == 1
    assert waits[0] > 0.0


# ----------------------------------------------------------------------
# Atomic-only groups
# ----------------------------------------------------------------------
def test_atomic_only_group_delivers_without_ordering_gate():
    cluster = _cluster(["P1", "P2", "P3"], seed=14)
    cluster.create_group("g", mode=OrderingMode.ATOMIC_ONLY)
    cluster["P1"].multicast("g", "fast")
    cluster.run(10)
    # Delivered promptly (no need to wait for a full round of traffic).
    for name in ("P2", "P3"):
        assert cluster[name].delivered_payloads("g") == ["fast"]


# ----------------------------------------------------------------------
# Regression: deferred-send flush racing the receive path (PR 4)
# ----------------------------------------------------------------------
def test_sequenced_loopback_does_not_invert_cross_group_order():
    """A process that is a member of one asymmetric group and the sequencer
    of another must not flush deferred sends while the sequenced copy of
    its own request is mid-receive (not yet in the delivery queue): the
    flush loops back through local sequencing and delivery under a bound
    that already covers the in-flight message, inverting the global total
    order (safe2 raised DeliveryOrderViolation before the fix).

    The configuration reproduces the original failure: 24 processes, four
    ring-overlapping asymmetric groups, bursty open-loop traffic.
    """
    from repro.api import Session
    from repro.workloads import OpenLoopClient, get_profile

    names = [f"P{i:03d}" for i in range(1, 25)]
    groups = [
        (f"g{i:02d}", [names[(i * 6 + j) % 24] for j in range(8)]) for i in range(4)
    ]
    session = Session(
        "newtop-asymmetric",
        config=dict(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5),
        checks=("total_order", "sender_in_view", "causal_prefix"),
        seed=7,
    )
    session.spawn(names)
    for group_id, members in groups:
        session.group(group_id, members)
    for index, (group_id, members) in enumerate(groups):
        client = session.attach_client(
            OpenLoopClient(
                get_profile("bursty", rate=0.5),
                members,
                [group_id],
                seed=7 * 9973 + index,
                duration=30.0,
            )
        )
        client.start()
    session.run(70)  # raised DeliveryOrderViolation at ~t=3.9 before the fix
    assert session.result().passed


# ----------------------------------------------------------------------
# Asymmetric view-cut marker (failure detections in sequencer numbering)
# ----------------------------------------------------------------------
def test_view_cut_marker_cuts_detection_into_sequencer_numbering():
    """A crashed non-sequencer member is excluded via the sequencer's
    sequenced view-cut marker: every survivor installs the same view, no
    message is delivered in different views at different members, and
    traffic sequenced after the cut delivers in the new view."""
    from repro.core.vectors import INFINITY

    cluster = _cluster(["A", "B", "C", "D"], seed=5,
                       suspicion_timeout=6.0, suspector_check_interval=0.5)
    cluster.create_group("g", mode=OrderingMode.ASYMMETRIC)
    cluster["B"].multicast("g", "before")
    cluster.run(5)
    cluster["D"].crash()
    cluster.run(30)  # suspicion -> detection -> marker -> install
    survivors = [cluster[name] for name in ("A", "B", "C")]
    for process in survivors:
        assert process.view("g").sorted_members() == ("A", "B", "C")
        endpoint = process.endpoint("g")
        assert endpoint.next_view_change_threshold() == INFINITY
        assert not endpoint.pending_view_changes
    cluster["C"].multicast("g", "after")
    cluster.run(30)
    views = {
        record.payload: record.view_index
        for process in survivors
        for record in process.delivered
    }
    assert views == {"before": 0, "after": 1}
    assert check_all(cluster.trace(),
                     view_agreement_sets={"g": ["A", "B", "C"]}).passed


def test_stale_view_cut_marker_is_ignored():
    """A marker whose targets already left the view (replay after the
    install) must not record a cut -- a stale cut would cap delivery
    forever (the targets can never be detected again)."""
    from repro.core.messages import DataMessage, KIND_VIEW_CUT
    from repro.core.vectors import INFINITY

    cluster = _cluster(["A", "B", "C", "D"], seed=5,
                       suspicion_timeout=6.0, suspector_check_interval=0.5)
    cluster.create_group("g", mode=OrderingMode.ASYMMETRIC)
    cluster.run(5)
    cluster["D"].crash()
    cluster.run(30)
    endpoint = cluster["B"].endpoint("g")
    assert endpoint.view.sorted_members() == ("A", "B", "C")
    stale = DataMessage.sequenced(
        origin="A", group="g", clock=10_000, ldn=0, payload=("D",),
        kind=KIND_VIEW_CUT, sequencer="A", origin_request=None,
    )
    endpoint._on_view_cut(stale)
    assert not endpoint._pending_cut_points
    assert endpoint.next_view_change_threshold() == INFINITY
