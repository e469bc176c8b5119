"""E6 -- Example 3: concurrent subgroup views stabilise into
non-intersecting ones.

Paper claim: after a partition hits in the middle of a membership
agreement, the two sides may transiently hold intersecting views, but the
views are guaranteed to stabilise into non-intersecting ones; with the §6
signature-view extension they never intersect at all.  Measured: final
views of both sides, their intersection, signature-view disjointness, and
the stabilisation latency.
"""

from common import RESULTS, EventProbe, assert_session_correct, fmt, run_session

from repro.analysis.checkers import check_view_sequences
from repro.net.trace import VIEW_INSTALL


def run_example3(use_signatures: bool) -> dict:
    overrides = {"use_signature_views": True} if use_signatures else None
    probe = EventProbe(VIEW_INSTALL)
    # The global view-agreement checks assume a single surviving component;
    # this run *deliberately* ends partitioned, so those two checks are
    # replaced by the per-side check_view_sequences calls below.
    session = run_session(
        ["Pi", "Pj", "Pk", "Pl", "Pm"],
        groups=[("g", None)],
        seed=9,
        mode_overrides=overrides,
        sinks=[probe],
        checks=("total_order", "sender_in_view", "causal_prefix"),
    )
    session.run(5)
    session.crash("Pm")
    partition_time = session.sim.now + 4.0
    session.sim.schedule_at(partition_time, session.partition, [["Pi", "Pj"], ["Pk", "Pl"]])
    session.run(250)
    side_one = session["Pi"].view("g").members
    side_two = session["Pk"].view("g").members
    stabilisation = max(
        event.time
        for process in ("Pi", "Pk")
        for event in probe.trace().events(kind=VIEW_INSTALL, process=process, group="g")
    )
    signature_disjoint = None
    if use_signatures:
        signature_disjoint = not session["Pi"].endpoint("g").signature_view.intersects(
            session["Pk"].endpoint("g").signature_view
        )
    # Each partition side's view sequences agree (VC1), checked over the
    # probe's captured view installs; the rest streams through the suite.
    assert check_view_sequences(probe.trace(), "g", ["Pi", "Pj"]).passed
    assert check_view_sequences(probe.trace(), "g", ["Pk", "Pl"]).passed
    assert_session_correct(session)
    return {
        "side_one": side_one,
        "side_two": side_two,
        "stabilisation_time": stabilisation - partition_time,
        "signature_disjoint": signature_disjoint,
    }


def test_example3_views_stabilise_non_intersecting(benchmark):
    plain = benchmark.pedantic(lambda: run_example3(False), rounds=1, iterations=1)
    signed = run_example3(True)
    RESULTS.add_table(
        "E6 (Example 3) concurrent subgroup views after partition + crash",
        [
            f"side {{Pi,Pj}} final view: {sorted(plain['side_one'])}",
            f"side {{Pk,Pl}} final view: {sorted(plain['side_two'])}",
            f"final views intersect: {bool(plain['side_one'] & plain['side_two'])}",
            f"stabilisation latency after the partition: "
            f"{fmt(plain['stabilisation_time'])} time units",
            f"signature views (section 6 extension) disjoint: {signed['signature_disjoint']}",
            "paper: intersecting concurrent views are short-lived and stabilise into "
            "non-intersecting ones -> reproduced",
        ],
    )
    assert plain["side_one"] == frozenset({"Pi", "Pj"})
    assert plain["side_two"] == frozenset({"Pk", "Pl"})
    assert not (plain["side_one"] & plain["side_two"])
    assert signed["signature_disjoint"]
