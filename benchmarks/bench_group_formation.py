"""E12 -- §5.3: dynamic group formation latency vs group size.

Paper claim: forming a new group takes a two-phase vote plus one exchange
of start-group messages; because processes may belong to several groups,
formation subsumes the 'join' facility of other protocols.  Measured: time
from initiation to every member completing the start-number agreement, and
the number of control messages, as group size grows.
"""

from common import RESULTS, assert_session_correct, fmt, run_session, run_until_delivered

GROUP_SIZES = [3, 5, 8]


def run_sweep():
    rows = []
    for size in GROUP_SIZES:
        names = [f"P{i}" for i in range(size)]
        # Pre-existing membership: everyone is already in a base group, as
        # the paper envisages (formation happens alongside existing work).
        session = run_session(
            names, groups=[("base", names)], seed=40 + size
        )
        session.run(5)
        messages_before = session.network.stats.messages_sent
        start = session.sim.now
        session[names[0]].form_group("gn", names)
        done = session.run_until(
            lambda: all(
                session[name].is_member("gn")
                and not session[name].endpoint("gn").in_formation_wait
                for name in names
            ),
            timeout=200,
        )
        formation_latency = session.sim.now - start
        control_messages = session.network.stats.messages_sent - messages_before
        # The new group carries ordered traffic immediately afterwards.
        message_id = session[names[1]].multicast("gn", "post-formation")
        delivered = run_until_delivered(session, message_id, timeout=100)
        assert_session_correct(session)
        rows.append((size, done, formation_latency, control_messages, delivered))
    return rows


def test_group_formation_scaling(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = ["group size | formed | latency | messages during formation | usable after"]
    for size, done, latency, messages, delivered in rows:
        table.append(
            f"{size:10d} | {str(done):6s} | {fmt(latency):>7} | {messages:25d} | {delivered}"
        )
    table.append(
        "paper: a two-phase vote (O(n^2) diffused votes) plus start-group "
        "agreement; the formed group is immediately usable for ordered traffic "
        "-> reproduced"
    )
    RESULTS.add_table("E12 dynamic group formation vs group size", table)

    assert all(done for _, done, _, _, _ in rows)
    assert all(delivered for *_, delivered in rows)
    assert rows[-1][3] > rows[0][3]  # vote diffusion grows with group size
