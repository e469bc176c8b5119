"""E22 -- repro.parallel at scale: the 5,000-process push and pool speedup.

The ROADMAP's scale items have been simulation-side so far (batched
delivery, streaming verification); the remaining ceiling was that every
sweep cell and scenario ran serially in one Python process, leaving all
but one core idle.  This benchmark exercises the :mod:`repro.parallel`
worker pool on both of its integration points:

* **Scale shards** -- a churn + dynamic-formation scenario set totalling
  **5,000 processes across 200 overlapping groups** (full scale: 20
  shards of 250 processes / 10 groups), dispatched over the pool with
  :func:`repro.scenarios.run_scenarios` and verified *online* -- every
  shard streams its trace through the incremental checkers, zero events
  stored.  One laptop-size Python process could never hold this run; a
  pool of independent simulations does it in minutes.
* **Grid speedup** -- an E21-style (stack x load x fault) sweep executed
  twice: serially and on the pool.  Cell seeds derive from the spec, not
  from shard order, so the two reports must be *identical* apart from
  per-cell wall clock -- asserted here, cell by cell -- while the
  parallel run's wall clock shrinks with the pool (the recorded
  ``speedup``; >=2x on a 4-core runner).  A pure-CPU calibration measures
  what the runner actually gives N processes (CPU quotas and SMT sharing
  make ``os.cpu_count()`` a fiction in containers) and the speedup is
  asserted against that yardstick.  The grid is split per fault pattern
  and recombined with :func:`common.merge_sweep_reports`, the
  merged-report path sharded executions use.

Run as a script to record the JSON artifact for CI::

    python benchmarks/bench_parallel_scale.py --scale smoke \
        --json BENCH_parallel_scale.json --parallel 2
"""

import copy
import time

from common import RESULTS, benchmark_arg_parser, merge_sweep_reports, write_bench_json

from repro.parallel import ParallelExecutor, WorkUnit, default_pool_size
from repro.experiments import SweepSpec, run_sweep
from repro.scenarios import RollingReport, churn_scenario, run_scenarios

#: The headline configuration: 20 shards x 250 processes / 10 groups =
#: 5,000 processes and 200 overlapping groups under churn + formations.
FULL_SCALE = dict(
    shards=20,
    shard_processes=250,
    shard_groups=10,
    group_size=12,
    crashes=2,
    leaves=2,
    formations=1,
    messages_per_sender=1,
    seed=7,
    grid=dict(
        stacks=("newtop-symmetric", "newtop-asymmetric", "fixed_sequencer", "lamport_ack"),
        loads=(1.0, 2.0),
        processes=16,
        groups=4,
        group_size=6,
        duration=30.0,
        drain=40.0,
    ),
)

#: Tiny configuration for CI and the tier-1 smoke path (~seconds).
SMOKE_SCALE = dict(
    shards=4,
    shard_processes=20,
    shard_groups=3,
    group_size=6,
    crashes=1,
    leaves=1,
    formations=1,
    messages_per_sender=1,
    seed=7,
    grid=dict(
        stacks=("newtop-symmetric", "lamport_ack"),
        loads=(1.0,),
        processes=8,
        groups=2,
        group_size=5,
        duration=18.0,
        drain=24.0,
    ),
)

SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE}


def shard_configs(scale):
    """The scenario shard set: seed-distinct churn+formation scenarios."""
    return [
        churn_scenario(
            n_processes=scale["shard_processes"],
            n_groups=scale["shard_groups"],
            group_size=scale["group_size"],
            crashes=scale["crashes"],
            leaves=scale["leaves"],
            formations=scale["formations"],
            messages_per_sender=scale["messages_per_sender"],
            seed=scale["seed"] + shard,
        )
        for shard in range(scale["shards"])
    ]


def run_scale_shards(scale=None, parallel=None, progress=None):
    """Run the shard set on the pool, verified online; returns a summary.

    Aggregation is *streaming*: a :class:`repro.scenarios.RollingReport`
    consumes each shard's result as its worker finishes (completion order),
    folding the shard's actual delivery-latency reservoir -- carried on
    :attr:`ScenarioResult.latency_reservoir` -- into one merged reservoir,
    so the cross-shard percentiles come from real sample pools rather than
    moment sketches.
    """
    scale = SMOKE_SCALE if scale is None else scale
    configs = shard_configs(scale)
    report = RollingReport(expected=len(configs))

    def observe(result):
        report.add(result)
        if progress is not None:
            progress(result)

    start = time.time()
    results = run_scenarios(
        configs, parallel=parallel, progress=observe
    )
    wall = time.time() - start
    for result in results:
        assert result.passed, (result.name, result.checks.violations[:3])
        assert result.trace_events_stored == 0, "online mode materialized a trace"
    assert report.completed == len(results)
    return {
        "shards": report.completed,
        "processes_total": scale["shards"] * scale["shard_processes"],
        "groups_total": scale["shards"] * scale["shard_groups"],
        "groups_formed": scale["shards"] * scale["formations"],
        "pool_size": parallel or 1,
        "wall_seconds": round(wall, 3),
        "passed": report.all_passed,
        "deliveries": report.deliveries,
        "messages_sent": report.messages_sent,
        "events_processed": report.events_processed,
        "trace_events": report.trace_events,
        "trace_events_stored": report.trace_events_stored,
        "delivery_latency": report.latency.summary(),
        "delivery_latency_exact": report.latency.is_exact,
    }


def _burn(iterations):
    total = 0
    for value in range(iterations):
        total += value * value
    return total


def cpu_scaling(pool, iterations=6_000_000):
    """Measured speedup this runner can actually give ``pool`` processes.

    Containers routinely advertise more cores than they schedule (CPU
    quotas, SMT siblings, noisy neighbours), so asserting "Nx on an
    N-process pool" against ``os.cpu_count()`` is fiction.  This runs the
    same pure-CPU burn serially and across the pool and reports the real
    ratio -- the yardstick the grid speedup is then held to.
    """
    start = time.time()
    for _ in range(pool):
        _burn(iterations)
    serial = time.time() - start
    units = [WorkUnit(f"burn-{index}", _burn, (iterations,)) for index in range(pool)]
    start = time.time()
    ParallelExecutor(pool_size=pool).run(units)
    parallel = time.time() - start
    return round(serial / parallel, 3) if parallel else 1.0


def grid_specs(scale):
    """The E21-style grid, split per fault pattern (the merge path)."""
    grid = scale["grid"]
    base = dict(
        stacks=tuple(grid["stacks"]),
        profiles=("poisson",),
        loads=tuple(grid["loads"]),
        processes=grid["processes"],
        groups=grid["groups"],
        group_size=grid["group_size"],
        duration=grid["duration"],
        drain=grid["drain"],
        seed=scale["seed"],
    )
    return [
        SweepSpec(faults=("none",), **base),
        SweepSpec(faults=("crash",), **base),
    ]


def strip_wall_clock(report_dict):
    """A report's cells without the one legitimately nondeterministic
    field, for serial-vs-parallel equality comparison."""
    cells = copy.deepcopy(report_dict["cells"])
    for cell in cells:
        cell.pop("wall_seconds", None)
    return cells


def run_grid_speedup(scale=None, parallel=None, progress=None):
    """Run the grid serially and on the pool; equality + speedup."""
    scale = SMOKE_SCALE if scale is None else scale
    specs = grid_specs(scale)
    pool = parallel or default_pool_size()
    scaling = cpu_scaling(pool)
    serial_start = time.time()
    serial = merge_sweep_reports(*[run_sweep(spec, progress=progress) for spec in specs])
    serial_wall = time.time() - serial_start
    parallel_start = time.time()
    sharded = merge_sweep_reports(
        *[run_sweep(spec, progress=progress, parallel=pool) for spec in specs]
    )
    parallel_wall = time.time() - parallel_start
    assert strip_wall_clock(serial.as_dict()) == strip_wall_clock(sharded.as_dict()), (
        "parallel sweep diverged from the serial run"
    )
    assert serial.passed and sharded.passed
    return {
        "cells": len(sharded.cells),
        "pool_size": pool,
        "cpu_scaling_calibration": scaling,
        "serial_wall_seconds": round(serial_wall, 3),
        "parallel_wall_seconds": round(parallel_wall, 3),
        "speedup": round(serial_wall / parallel_wall, 3) if parallel_wall else None,
        "identical_reports": True,
        "report": sharded.as_dict(),
    }


def run_all(scale=None, parallel=None, progress=None):
    return {
        "scale_shards": run_scale_shards(scale, parallel, progress),
        "grid": run_grid_speedup(scale, parallel),
    }


def _assert_payload(payload, scale, pool):
    shards = payload["scale_shards"]
    grid = payload["grid"]
    assert shards["passed"] and shards["trace_events_stored"] == 0
    assert shards["processes_total"] == scale["shards"] * scale["shard_processes"]
    assert grid["identical_reports"]
    if pool >= 2 and grid["cells"] >= 8:
        # The pool must deliver a solid fraction of what this runner's
        # hardware measurably gives `pool` CPU-bound processes (the
        # calibration absorbs CPU quotas, SMT sharing and noisy
        # neighbours).  On an unconstrained 4-core runner the calibration
        # is ~3.5-4x, so this floor demands the >=2x headline there.
        floor = max(1.02, 0.6 * grid["cpu_scaling_calibration"])
        assert grid["speedup"] >= floor, (grid["speedup"], floor)


def test_parallel_scale(benchmark):
    pool = min(2, default_pool_size())
    payload = benchmark.pedantic(
        run_all, kwargs=dict(scale=SMOKE_SCALE, parallel=pool),
        rounds=1, iterations=1,
    )
    shards = payload["scale_shards"]
    grid = payload["grid"]
    table = [
        f"shard set: {shards['shards']} scenarios x "
        f"{SMOKE_SCALE['shard_processes']} processes, pool={shards['pool_size']}, "
        f"verified online ({shards['trace_events']} events streamed, 0 stored)",
        f"grid: {grid['cells']} cells serial {grid['serial_wall_seconds']}s vs "
        f"pool {grid['parallel_wall_seconds']}s -> speedup {grid['speedup']}x "
        f"(runner gives {grid['cpu_scaling_calibration']}x to {grid['pool_size']} "
        f"CPU-bound processes), reports byte-identical (minus wall clock)",
        "seed-stable sharding: the pool changes wall clock, never numbers",
    ]
    RESULTS.add_table("E22 multi-core experiment execution (repro.parallel)", table)
    assert shards["passed"]
    assert grid["identical_reports"]


def record_results(scale_name, json_path, parallel=None):
    """Run both parts at the named scale and write the JSON (CI hook)."""
    scale = SCALES[scale_name]
    pool = parallel or default_pool_size()
    start = time.time()
    done = []

    def progress(result):
        done.append(result)
        print(
            f"  [shard {len(done):3d}/{scale['shards']}] {result.name}: "
            f"passed={result.passed} deliveries={result.deliveries} "
            f"(online, {result.trace_events_stored} stored)"
        )

    payload = run_all(scale, pool, progress)
    _assert_payload(payload, scale, pool)
    config = {
        key: (dict(value) if isinstance(value, dict) else
              list(value) if isinstance(value, tuple) else value)
        for key, value in scale.items()
    }
    config["grid"] = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in scale["grid"].items()
    }
    return write_bench_json(
        json_path,
        "parallel_scale",
        scale_name,
        {
            "parallel": pool,
            "scale_shards": payload["scale_shards"],
            "grid": payload["grid"],
        },
        config=config,
        seed=scale["seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(
        __doc__, "BENCH_parallel_scale.json", SCALES,
        default_parallel=default_pool_size(),
    )
    args = parser.parse_args()
    payload = record_results(args.scale, args.json, parallel=args.parallel)
    shards = payload["scale_shards"]
    grid = payload["grid"]
    print(
        f"{payload['benchmark']} [{payload['scale']}] pool={payload['parallel']}: "
        f"{shards['processes_total']} processes / {shards['groups_total']} groups "
        f"across {shards['shards']} shards in {shards['wall_seconds']}s (online, "
        f"{shards['trace_events_stored']} stored); grid speedup {grid['speedup']}x "
        f"over {grid['cells']} cells (calibration "
        f"{grid['cpu_scaling_calibration']}x) -> {args.json}"
    )


if __name__ == "__main__":
    main()
