"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload churn-1k --seed 23 --seconds 40 --trace 0

The run repeats the workload's verified simulation, each repetition from
the same seed, within ``--seconds``, and reports the medians of the
wall-clock metrics over the repetitions, in reference seconds (wall
seconds corrected for the host's speed at the time, see ``hostref.py``).
Every repetition must pass its correctness gate and reproduce the same
behaviour fingerprint (application deliveries, transport sends,
simulator events, final simulated time); otherwise the run is reported as incorrect, with no
numbers.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the median traced one instead of the
end-to-end metrics.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Iterations of E22's pure-CPU ``_burn`` loop timed as host calibration.
CALIBRATION_ITERATIONS = 2_000_000

#: Unit of every end-to-end metric (the ``end_to_end`` list of
#: BENCHMARK.json, in order).
END_TO_END_UNITS = {
    "setup_s": "s",
    "deliveries_per_s": "1/s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sends_per_delivery": "ratio",
    "delivery_mean_sim": "sim_s",
    "delivery_tail10_sim": "sim_s",
    "write_mean_sim": "sim_s",
    "write_tail10_sim": "sim_s",
}

#: Extra set-up-only passes per untraced repetition; ``setup_s`` is the
#: median over all of them.
SETUPS_PER_REP = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_stamp() -> dict:
    """What code and host produced the run."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = found.stdout.strip() or None
    return {
        "sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def calibrate() -> float:
    """Median seconds of three pure-CPU burns (tells host drift from code)."""
    from bench_parallel_scale import _burn

    times = []
    for _ in range(3):
        start = perf_counter()
        _burn(CALIBRATION_ITERATIONS)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_reps(run_workload, seed: int, seconds: float, traced: bool):
    """Rounds of repetitions within ``seconds``: a new round starts only
    when a round as long as the last one still ends in time, so a run
    never overshoots by more than its first round.

    Untraced: each round is one full repetition plus
    :data:`SETUPS_PER_REP` set-up-only passes.  Traced: each round is one
    untraced and one traced repetition.  Returns the untraced and traced
    repetitions and every set-up time measured, in reference seconds (by
    the host factor of the round's untraced repetition).
    """
    from tracing import Tracer
    from workloads import measure_setup

    plain, with_spans, setups = [], [], []
    measure_setup(run_workload, seed)  # warm-up, not timed
    start = perf_counter()
    last_round = 0.0
    while not plain or perf_counter() - start + last_round <= seconds:
        round_start = perf_counter()
        gc.collect()
        plain.append(run_workload(seed))
        factor = plain[-1].host_factor
        setups.append(plain[-1].setup_s / factor)
        if traced:
            gc.collect()
            tracer = Tracer().install()
            try:
                with_spans.append(run_workload(seed, tracer))
            finally:
                tracer.remove()
        else:
            for _ in range(SETUPS_PER_REP):
                gc.collect()
                setups.append(measure_setup(run_workload, seed) / factor)
        last_round = perf_counter() - round_start
    return plain, with_spans, setups


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end_metrics(reps, setups) -> dict:
    """The end-to-end metrics (BENCHMARK.json ``end_to_end``)."""
    values = {
        "setup_s": statistics.median(setups),
        "deliveries_per_s": statistics.median(
            rep.deliveries * rep.host_factor / rep.run_s for rep in reps
        ),
        "ops_per_s": statistics.median(
            rep.completed * rep.host_factor / rep.run_s for rep in reps
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **reps[0].sim,
    }
    return with_units(values, END_TO_END_UNITS)


def layer_metrics(rep, plain) -> dict:
    """The per-layer metrics (BENCHMARK.json ``per_layer``) of one traced
    repetition, with the layer table printed alongside.  ``plain`` are the
    untraced repetitions of the same run."""
    untraced_ref_s = statistics.median(other.wall_s / other.host_factor for other in plain)
    tracer = rep.tracer
    self_s, counts, inclusive = tracer.self_s, tracer.counts, tracer.inclusive_s
    rows, residue = tracer.table(rep.wall_s)
    print(f"layer split of the median traced repetition ({rep.wall_s:.3f} s wall):")
    print(f"  {'layer':18s} {'calls':>10s} {'self s':>9s} {'share':>7s}")
    for layer, calls, seconds in rows:
        print(f"  {layer:18s} {calls:10d} {seconds:9.3f} {seconds / rep.wall_s:7.1%}")
    print(f"  {'residue':18s} {'':>10s} {residue:9.3f} {residue / rep.wall_s:7.1%}")
    overhead = rep.wall_s / rep.host_factor / untraced_ref_s
    print(
        f"  self times + residue = {sum(s for _, _, s in rows) + residue:.3f} s; "
        f"tracing overhead {overhead:.2f}x (traced wall / untraced median, "
        "both in reference seconds)"
    )
    receive_calls = counts["core.receive.calls"]
    attempts = counts["core.delivery.attempts"]
    values = dict(rep.counts)
    values.update(
        {
            "sim.schedules": counts["sim.schedules"],
            "sim.cancels": counts["sim.cancels"],
            "sim.peak_pending": counts["sim.peak_pending"],
            "sim.self_s": self_s["sim"],
            "net.null_sends": counts["net.null_sends"],
            "net.send.self_s": self_s["net.send"],
            "net.deliver.self_s": self_s["net.deliver"],
            "core.receive.calls": receive_calls,
            "core.receive.null_share": counts["core.receive.nulls"] / max(1, receive_calls),
            "core.receive.self_s": self_s["core.receive"],
            "core.delivery.attempts": attempts,
            "core.delivery.yield": counts["core.delivery.delivered"] / max(1, attempts),
            "core.delivery.self_s": self_s["core.delivery"],
            "core.ordering.self_s": self_s["core.ordering"] + self_s["core.sequencer"],
            "core.time_silence.self_s": self_s["core.time_silence"],
            "core.stability.self_s": self_s["core.stability"],
            "core.suspector.self_s": self_s["core.suspector"],
            "core.membership.self_s": self_s["core.membership"] + self_s["core.formation"],
            "verify.self_s": self_s["verify"] + self_s["kv.oracle"],
            "app.self_s": sum(
                self_s[layer] for layer in ("client", "kv.ring", "kv.store", "kv.workload")
            ),
            "kv.ring.lookups": counts["kv.ring.lookups"],
            "setup.spawn_s": inclusive["setup.spawn"],
            "setup.group_s": inclusive["setup.group"],
            "setup.compile_s": inclusive["setup.compile"],
            "trace.residue_s": residue,
            "trace.overhead_x": overhead,
            "wall.deliveries_per_s": statistics.median(
                other.deliveries / other.run_s for other in plain
            ),
            "wall.ops_per_s": statistics.median(other.completed / other.run_s for other in plain),
            "host.factor": statistics.median(other.host_factor for other in plain),
        }
    )
    return with_units(values, PER_LAYER_UNITS)


#: Unit of every per-layer metric (the ``per_layer`` list of BENCHMARK.json).
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_delivery": "ratio",
    "sim.schedules": "count",
    "sim.cancels": "count",
    "sim.peak_pending": "count",
    "sim.self_s": "s",
    "net.sends": "count",
    "net.null_sends": "count",
    "net.bytes": "bytes",
    "net.dropped": "count",
    "net.msgs_per_batch": "ratio",
    "net.send.self_s": "s",
    "net.deliver.self_s": "s",
    "core.receive.calls": "count",
    "core.receive.null_share": "ratio",
    "core.receive.self_s": "s",
    "core.delivery.attempts": "count",
    "core.delivery.yield": "ratio",
    "core.delivery.self_s": "s",
    "core.ordering.self_s": "s",
    "core.nulls": "count",
    "core.time_silence.self_s": "s",
    "core.stability.self_s": "s",
    "core.stability.retained_peak": "count",
    "core.suspector.self_s": "s",
    "core.suspicions": "count",
    "core.membership.self_s": "s",
    "core.view_installs": "count",
    "core.view_change_p50_sim": "sim_s",
    "verify.trace_events": "count",
    "verify.events_per_delivery": "ratio",
    "verify.self_s": "s",
    "app.self_s": "s",
    "kv.ring.lookups": "count",
    "kv.retries": "count",
    "kv.attempts_per_op": "ratio",
    "kv.write_outage_sim": "sim_s",
    "setup.spawn_s": "s",
    "setup.group_s": "s",
    "setup.compile_s": "s",
    "trace.residue_s": "s",
    "trace.overhead_x": "ratio",
    "wall.deliveries_per_s": "1/s",
    "wall.ops_per_s": "1/s",
    "host.factor": "ratio",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    sys.path.append(os.path.join(ROOT, "benchmarks"))
    from workloads import DEFAULT_SEEDS, GOLDEN_FINGERPRINTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    stamp = source_stamp()
    stamp["calibration_s"] = calibrate()
    print(f"run set: {json.dumps(stamp)}")

    plain, traced, setups = run_reps(
        WORKLOADS[args.workload], seed, args.seconds, bool(args.trace)
    )
    reps = plain + traced
    for index, rep in enumerate(reps):
        kind = "traced" if rep.tracer is not None else "untraced"
        print(
            f"rep {index} {kind}: setup {rep.setup_s:.4f} s, run {rep.run_s:.3f} s, "
            f"{rep.deliveries / rep.run_s:.0f} deliveries/s, host factor "
            f"{rep.host_factor:.3f} ({len(rep.host.samples)} slices), "
            f"{rep.deliveries * rep.host_factor / rep.run_s:.0f} deliveries/ref s, "
            f"fingerprint {rep.fingerprint}"
        )
    first = reps[0]
    print(f"workload {args.workload} seed {seed}: {json.dumps(first.notes, default=str)}")
    golden = GOLDEN_FINGERPRINTS.get((args.workload, seed))
    if golden is not None:
        verdict = "matches" if first.fingerprint == golden else f"DIFFERS from {golden}"
        print(f"fingerprint {first.fingerprint} {verdict} the recorded golden value")
    gate = [failure for rep in reps for failure in rep.gate]
    if any(rep.fingerprint != first.fingerprint for rep in reps):
        gate.append(
            "behaviour fingerprint differs between repetitions: "
            + ", ".join(str(rep.fingerprint) for rep in reps)
        )
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(
        f"operations: {attempted} attempted, {failed} failed "
        f"(failed_frac {failed / max(1, attempted):.6f})"
    )
    for failure in dict.fromkeys(gate):
        print(f"GATE FAILED: {failure}")
    if gate:
        metrics = {}  # a failed run is reported as failed, never as numbers
    elif args.trace:
        traced.sort(key=lambda rep: rep.wall_s)
        metrics = layer_metrics(traced[(len(traced) - 1) // 2], plain)
    else:
        metrics = end_to_end_metrics(plain, setups)
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:>16.6f} {metric['unit']}")
    result = {"correct": not gate, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 1 if gate else 0


if __name__ == "__main__":
    sys.exit(main())
