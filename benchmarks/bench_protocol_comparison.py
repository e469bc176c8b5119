"""E20 -- churn-under-load comparison: Newtop vs every §6 baseline.

The paper's central claim is *comparative*: Newtop orders multicasts with
constant per-message overhead and keeps operating through crashes and
membership churn, where sequencer-, ISIS-, Lamport- and Psync-style
protocols either pay more per message or stall.  With the unified
``repro.api`` session layer, one declarative churn scenario (the E18/E19
generator) now runs unchanged on all six stacks -- Newtop symmetric,
Newtop asymmetric, fixed sequencer, ISIS, Lamport all-ack and Psync --
under identical network conditions, with streaming verification selecting
each stack's own claimed guarantees (total order for the sequencer
protocols, causal order for Psync, everything for Newtop).

Events a baseline has no capability for (voluntary ``leave``) are skipped
with a recorded warning; crashes apply to every stack.  That asymmetry is
the measurement: after a crash the Lamport all-ack group can never gather
a full acknowledgement set again and the affected baselines' delivery
counts flatline, while Newtop's membership service excludes the failed
process and keeps delivering -- quantified below as per-stack delivered
counts, latency statistics and message overhead at 200 processes.

Run as a script to record the per-stack JSON for CI (``--parallel N``
runs the six per-stack sessions on a :mod:`repro.parallel` pool -- they
are independent simulations, so the rows are identical either way)::

    python benchmarks/bench_protocol_comparison.py --scale full \
        --json BENCH_protocol_comparison.json --parallel 3
"""

import time

from common import RESULTS, benchmark_arg_parser, fmt, write_bench_json

from repro.api import COMPARISON_STACKS
from repro.parallel import WorkUnit, run_units
from repro.scenarios import churn_scenario, run_scenario

#: The headline configuration: >=200 processes across 20 overlapping groups.
FULL_SCALE = dict(
    n_processes=200,
    n_groups=20,
    group_size=12,
    crashes=3,
    leaves=3,
    messages_per_sender=4,  # traffic continues past the crash window
    seed=7,
)

#: Tiny configuration for the tier-1 smoke test (same code path, ~2s).
SMOKE_SCALE = dict(
    n_processes=10,
    n_groups=3,
    group_size=5,
    crashes=1,
    leaves=1,
    messages_per_sender=2,
    seed=5,
)

SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE}


def _stack_row(config, stack):
    """One stack's verified run on the shared scenario (a pool work unit)."""
    start = time.time()
    result = run_scenario(
        config, stack=stack, on_unsupported="skip"
    )
    wall = time.time() - start
    assert result.passed, (stack, result.checks.violations[:3])
    assert result.trace_events_stored == 0, "online mode materialized a trace"
    return {
        "passed": result.passed,
        "deliveries": result.deliveries,
        "messages_sent": result.messages_sent,
        "delivery_events": result.delivery_events,
        "latency": result.metrics["latency"],
        "msgs_per_delivery": (
            round(result.messages_sent / result.deliveries, 2)
            if result.deliveries
            else None
        ),
        "trace_events": result.trace_events,
        "skipped_events": len(result.skipped_events),
        "wall_seconds": round(wall, 3),
    }


def run_comparison(scale=None, stacks=COMPARISON_STACKS, parallel=None):
    """Run the same churn scenario on every stack; returns per-stack rows.

    Every run is verified online against the stack's declared checks; a
    verdict failure raises, so the table below only ever shows runs whose
    claimed guarantees actually held.  ``parallel=N`` shards the per-stack
    sessions across a worker pool; each session's randomness derives from
    the scenario seed, so the rows match the serial ones exactly.
    """
    overrides = dict(FULL_SCALE if scale is None else scale)
    config = churn_scenario(**overrides)
    if (parallel or 1) <= 1:
        return {stack: _stack_row(config, stack) for stack in stacks}
    units = [
        WorkUnit(unit_id=stack, fn=_stack_row, args=(config, stack))
        for stack in stacks
    ]
    outcomes = run_units(units, parallel=parallel)
    failed = [outcome for outcome in outcomes if not outcome.ok]
    assert not failed, [(outcome.unit_id, outcome.status, outcome.error)
                        for outcome in failed]
    return {stack: outcome.value for stack, outcome in zip(stacks, outcomes)}


def test_protocol_comparison(benchmark):
    comparison = benchmark.pedantic(
        run_comparison, kwargs=dict(scale=FULL_SCALE), rounds=1, iterations=1
    )
    table = [
        f"churn scenario at {FULL_SCALE['n_processes']} processes / "
        f"{FULL_SCALE['n_groups']} overlapping groups, crashes under load",
        "stack             | delivered | msgs sent | msgs/deliv | mean latency",
    ]
    for stack, row in comparison.items():
        mean = row["latency"]["mean"]
        table.append(
            f"{stack:17s} | {fmt(row['deliveries']):>9} | "
            f"{fmt(row['messages_sent']):>9} | {row['msgs_per_delivery'] or float('nan'):>10} | "
            f"{fmt(mean) if mean is not None else 'n/a':>12}"
        )
    newtop = comparison["newtop-symmetric"]
    baselines = [row for stack, row in comparison.items() if not stack.startswith("newtop")]
    table.append(
        "every stack verified ONLINE against its own claimed guarantees; "
        "baselines skip the membership events they cannot express"
    )
    table.append(
        "paper: Newtop keeps delivering through churn where static-membership "
        "baselines stall -> reproduced (compare delivered counts)"
    )
    RESULTS.add_table("E20 protocol comparison under churn (six stacks)", table)

    # Shape assertions: everyone passed its own checks; only the baselines
    # had to skip membership events; and the all-ack protocol -- which can
    # never complete an acknowledgement round once a member crashed --
    # visibly stalls where Newtop's membership service keeps delivering.
    assert all(row["passed"] for row in comparison.values())
    assert comparison["newtop-symmetric"]["skipped_events"] == 0
    assert all(row["skipped_events"] > 0 for row in baselines)
    assert newtop["deliveries"] > comparison["lamport_ack"]["deliveries"]


def record_results(scale_name, json_path, parallel=None):
    """Run the named scale on all six stacks and write the JSON (CI hook)."""
    start = time.time()
    comparison = run_comparison(scale=SCALES[scale_name], parallel=parallel)
    return write_bench_json(
        json_path,
        "protocol_comparison",
        scale_name,
        {"parallel": parallel or 1, "stacks": comparison},
        config=SCALES[scale_name],
        seed=SCALES[scale_name]["seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(
        __doc__, "BENCH_protocol_comparison.json", SCALES, default_scale="full"
    )
    args = parser.parse_args()
    payload = record_results(args.scale, args.json, parallel=args.parallel)
    for stack, row in payload["stacks"].items():
        print(
            f"{stack:17s} passed={row['passed']} deliveries={row['deliveries']} "
            f"msgs={row['messages_sent']} wall={row['wall_seconds']}s"
        )
    print(f"-> {args.json}")


if __name__ == "__main__":
    main()
