"""E9 -- §7 claim: symmetric Newtop never blocks a send; a multi-group
sender blocks only while a message it unicast to a *different* group's
sequencer awaits sequencing.

Measured: number of deferred sends and the distribution of blocking times
for (a) two symmetric groups, (b) a symmetric + an asymmetric group, and
(c) two asymmetric groups, under the same interleaved workload.
"""

from common import RESULTS, EventProbe, assert_session_correct, fmt, run_session

from repro.analysis.metrics import blocking_times
from repro.core import OrderingMode
from repro.net.trace import BLOCKED_SEND, UNBLOCKED_SEND


def run_scenario(mode_one: OrderingMode, mode_two: OrderingMode, seed: int):
    probe = EventProbe(BLOCKED_SEND, UNBLOCKED_SEND)
    session = run_session(
        ["P1", "P2", "P3"],
        groups=[("g1", None, mode_one), ("g2", None, mode_two)],
        seed=seed,
        sinks=[probe],
    )
    for index in range(6):
        session.multicast("P2", "g1", f"one-{index}")
        session.multicast("P2", "g2", f"two-{index}")
        session.run(1.0)
    session.run(80)
    assert_session_correct(session)
    trace = probe.trace()
    blocked = len(trace.events(kind=BLOCKED_SEND, process="P2"))
    waits = blocking_times(trace)
    mean_wait = sum(waits) / len(waits) if waits else 0.0
    delivered = len(session["P3"].delivered)
    return {"blocked": blocked, "mean_wait": mean_wait, "delivered": delivered}


def run_all():
    return {
        "sym+sym": run_scenario(OrderingMode.SYMMETRIC, OrderingMode.SYMMETRIC, 21),
        "sym+asym": run_scenario(OrderingMode.SYMMETRIC, OrderingMode.ASYMMETRIC, 22),
        "asym+asym": run_scenario(OrderingMode.ASYMMETRIC, OrderingMode.ASYMMETRIC, 23),
    }


def test_send_blocking(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = ["configuration | deferred sends | mean blocking time | delivered at P3"]
    for name, row in results.items():
        table.append(
            f"{name:13s} | {row['blocked']:14d} | {fmt(row['mean_wait']):>18} | {row['delivered']:15d}"
        )
    table.append(
        "paper: 'If only symmetric version is used, Newtop is totally non-blocking "
        "on send operations'; blocking appears only when another group's sequencer "
        "is involved -> reproduced"
    )
    RESULTS.add_table("E9 send blocking by group-mode combination", table)

    assert results["sym+sym"]["blocked"] == 0
    assert results["sym+asym"]["blocked"] > 0 or results["asym+asym"]["blocked"] > 0
    # All configurations still deliver the full workload.
    for row in results.values():
        assert row["delivered"] == 12
