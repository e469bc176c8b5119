"""E5 -- Example 2: MD5' under a permanent partition.

Paper claim: when a permanent partition makes a causal predecessor m1
irretrievable, the receiver excludes m1's sender from its view of that
group *before* delivering any causally dependent message, so the
"network failure is perceived to have happened before the multicast".
Measured: exclusion-before-delivery ordering and the latency from the lost
multicast to delivery of the dependent message.
"""

from common import EventProbe, RESULTS, assert_session_correct, fmt, run_session

from repro.net.trace import DELIVER, VIEW_INSTALL


def run_example2():
    probe = EventProbe(DELIVER, VIEW_INSTALL)
    session = run_session(
        ["Pi", "Pj", "Pk", "Pq"],
        groups=[
            ("g1", ["Pi", "Pj", "Pk"]),
            ("g2", ["Pk", "Pq"]),
            ("g3", ["Pq", "Pi", "Pj"]),
        ],
        seed=11,
        view_agreement_sets={"g1": ["Pi", "Pj"], "g2": ["Pq"], "g3": ["Pi", "Pj", "Pq"]},
        sinks=[probe],
    )
    session.run(5)
    # Permanent partition: Pk can no longer reach Pi or Pj (but still Pq).
    session.network.add_filter(
        lambda src, dst, payload: not (src == "Pk" and dst in ("Pi", "Pj"))
    )
    state = {"m2": False, "m4": False}

    def pk_reacts(group, sender, payload, msg_id):
        if payload == "m1" and not state["m2"]:
            state["m2"] = True
            session.multicast("Pk", "g2", "m2")

    def pq_reacts(group, sender, payload, msg_id):
        if payload == "m2" and not state["m4"]:
            state["m4"] = True
            session.multicast("Pq", "g3", "m4")

    session["Pk"].add_delivery_callback(pk_reacts)
    session["Pq"].add_delivery_callback(pq_reacts)
    m1_time = session.sim.now
    session.multicast("Pk", "g1", "m1")
    session.run(250)
    return session, probe, m1_time


def test_example2_md5_prime_under_partition(benchmark):
    cluster, probe, m1_time = benchmark.pedantic(run_example2, rounds=1, iterations=1)
    trace = probe.trace()
    m4_delivery_time = min(
        (e.time for e in trace.events(kind="deliver", process="Pi", group="g3")),
        default=None,
    )
    exclusion_time = None
    for event in trace.events(kind=VIEW_INSTALL, process="Pi", group="g1"):
        if "Pk" not in event.detail("members", ()):
            exclusion_time = event.time
            break
    assert_session_correct(cluster)
    RESULTS.add_table(
        "E5 (Example 2) MD5' under a permanent partition",
        [
            f"m4 delivered at Pi: {m4_delivery_time is not None}",
            f"Pk excluded from Pi's g1 view at t={fmt(exclusion_time or float('nan'))}, "
            f"m4 delivered at t={fmt(m4_delivery_time or float('nan'))}",
            f"exclusion happened before the dependent delivery: "
            f"{exclusion_time is not None and m4_delivery_time is not None and exclusion_time <= m4_delivery_time}",
            f"latency from the lost m1 to m4's delivery at Pi: "
            f"{fmt((m4_delivery_time - m1_time) if m4_delivery_time else float('nan'))} time units "
            "(dominated by the suspicion timeout, as the paper's discussion implies)",
        ],
    )
    assert m4_delivery_time is not None and exclusion_time is not None
    assert exclusion_time <= m4_delivery_time
    assert "m1" not in cluster["Pi"].delivered_payloads("g1")
