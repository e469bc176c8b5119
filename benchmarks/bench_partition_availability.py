"""E16 -- §6: availability under partitions, Newtop vs primary-partition
membership.

Paper claim: primary-partition protocols keep a group operational only when
one side holds a majority of the previous view, which "may not always be
possible to meet"; Newtop lets every connected subgroup keep operating and
leaves their fate to the application.  Measured: the fraction of processes
still able to deliver new multicasts after several partition shapes, under
both policies (Newtop measured on the running protocol, the primary
partition via the policy model applied to the same scenarios).
"""

from common import RESULTS, fmt, run_session, run_until_delivered

from repro.baselines import PrimaryPartitionMembership

MEMBERS = ["P1", "P2", "P3", "P4", "P5"]
SCENARIOS = {
    "2 | 3 split": [["P1", "P2"], ["P3", "P4", "P5"]],
    "1 | 4 split": [["P1"], ["P2", "P3", "P4", "P5"]],
    "2 | 2 | 1 split": [["P1", "P2"], ["P3", "P4"], ["P5"]],
}


def newtop_available_fraction(components, seed: int) -> float:
    session = run_session(MEMBERS, groups=[("g", MEMBERS)], seed=seed)
    session.run(5)
    session.partition(components)
    session.run(200)
    available = 0
    for component in components:
        # A side is operational if a fresh multicast from one of its members
        # is delivered by every member of that side.
        sender = component[0]
        message_id = session[sender].multicast("g", f"probe-{sender}")
        if run_until_delivered(session, message_id, processes=component, timeout=120):
            available += len(component)
    return available / len(MEMBERS)


def run_sweep():
    rows = []
    for index, (name, components) in enumerate(SCENARIOS.items()):
        policy = PrimaryPartitionMembership(MEMBERS)
        primary = policy.availability_fraction(components)
        newtop = newtop_available_fraction(components, seed=80 + index)
        rows.append((name, primary, newtop))
    return rows


def test_partition_availability(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = ["partition shape   | primary-partition availability | Newtop availability"]
    for name, primary, newtop in rows:
        table.append(f"{name:17s} | {primary:30.0%} | {newtop:19.0%}")
    table.append(
        "paper: Newtop keeps every connected subgroup operational (application "
        "decides their fate); primary-partition protocols lose the minority and, "
        "with no majority side, everything -> reproduced"
    )
    RESULTS.add_table("E16 availability under partitions", table)

    for name, primary, newtop in rows:
        assert newtop == 1.0
        assert newtop >= primary
    assert any(primary == 0.0 for _, primary, _ in rows)  # the no-majority case
