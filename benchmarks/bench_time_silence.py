"""E10 -- §4.1: the time-silence mechanism's cost/latency trade-off.

Paper claim: null messages are what keep delivery live when members are
quiet, at the cost of extra traffic; ω controls the trade-off.  Measured:
null-message ratio and mean delivery latency as ω is swept, for a workload
where only one member generates application traffic.
"""

from common import RESULTS, assert_session_correct, fmt, latency_block, run_session

OMEGAS = [1.0, 2.0, 4.0, 8.0]


def run_sweep():
    rows = []
    for omega in OMEGAS:
        session = run_session(
            ["P1", "P2", "P3", "P4"],
            groups=[("g", None)],
            seed=17,
            mode_overrides=dict(omega=omega, suspicion_timeout=omega * 8),
        )
        for index in range(6):
            session.multicast("P1", "g", index)
            session.run(3.0)
        session.run(60)
        result = assert_session_correct(session)
        # One group, so the run-wide MetricsSink counts are the group's.
        by_kind = result.metrics["by_kind"]
        null_ratio = by_kind.get("null_send", 0) / by_kind["send"]
        rows.append((omega, null_ratio, latency_block(result)["mean"],
                     by_kind["deliver"]))
    return rows


def test_time_silence_tradeoff(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = ["omega | null msgs per app send | mean delivery latency | deliveries"]
    for omega, ratio, latency, deliveries in rows:
        table.append(
            f"{fmt(omega):>5} | {fmt(ratio):>22} | {fmt(latency):>21} | {deliveries:10d}"
        )
    table.append(
        "paper: the mechanism 'can increase the message overhead' but is essential "
        "for liveness -> smaller omega = more null traffic and lower delivery "
        "latency; larger omega = the opposite"
    )
    RESULTS.add_table("E10 time-silence overhead vs omega", table)

    ratios = [row[1] for row in rows]
    latencies = [row[2] for row in rows]
    assert ratios[0] > ratios[-1]          # more nulls with a small omega
    assert latencies[0] < latencies[-1]    # and lower delivery latency
    assert all(row[3] == 24 for row in rows)  # 6 sends x 4 members delivered
