"""E11 -- §5.2: membership agreement latency and message cost vs group size.

Paper claim: a crash is detected by the suspectors, agreed via
suspect/confirm messages among the unsuspected members, and a new view is
installed coordinated with delivery.  Measured: time from the first
suspicion to the view installation, and the number of membership messages
exchanged, as the group size grows.
"""

from common import (
    RESULTS,
    EventProbe,
    assert_session_correct,
    fmt,
    run_session,
    run_session_traffic,
)

from repro.analysis.metrics import view_agreement_latency
from repro.net.trace import SUSPECT, VIEW_INSTALL

GROUP_SIZES = [3, 5, 8]


def run_sweep():
    rows = []
    for size in GROUP_SIZES:
        names = [f"P{i}" for i in range(size)]
        survivors = names[:-1]
        probe = EventProbe(SUSPECT, VIEW_INSTALL)
        session = run_session(
            names,
            groups=[("g", names)],
            seed=30 + size,
            sinks=[probe],
            view_agreement_sets={"g": survivors},
        )
        run_session_traffic(session, "g", names[:2], messages_per_sender=2, drain=10)
        victim = names[-1]
        session.crash(victim)
        session.run(150)
        latencies = view_agreement_latency(probe.trace(), "g", victim)
        membership_messages = sum(
            session[name].endpoint("g").gv.stats.suspect_messages_sent
            + session[name].endpoint("g").gv.stats.confirm_messages_sent
            + session[name].endpoint("g").gv.stats.refute_messages_sent
            for name in survivors
        )
        mean_latency = sum(latencies.values()) / len(latencies) if latencies else 0.0
        correct_views = all(
            session[name].view("g").members == frozenset(survivors) for name in survivors
        )
        assert_session_correct(session)
        rows.append((size, mean_latency, membership_messages, correct_views))
    return rows


def test_membership_agreement_scaling(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = ["group size | suspicion->view latency | membership msgs | views correct"]
    for size, latency, messages, correct in rows:
        table.append(
            f"{size:10d} | {fmt(latency):>23} | {messages:15d} | {correct}"
        )
    table.append(
        "paper: agreement needs a suspect message from every unsuspected member "
        "and one confirm round -> message cost grows roughly quadratically with "
        "group size while latency stays dominated by the suspicion timeout"
    )
    RESULTS.add_table("E11 membership agreement vs group size", table)

    assert all(correct for _, _, _, correct in rows)
    assert rows[-1][2] > rows[0][2]  # membership traffic grows with group size
