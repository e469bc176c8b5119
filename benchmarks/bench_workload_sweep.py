"""E21 -- open-loop load and availability sweeps across every stack.

The paper's comparative argument (§6-§7) is about behaviour *under load*:
Newtop pays constant protocol overhead per multicast and keeps operating
through membership changes, so as offered load rises -- or faults land
mid-traffic -- its goodput curve keeps climbing where the baselines pay
quadratic acknowledgement costs or stall outright.  Single-point runs
(E17, E20) cannot show that; this benchmark sweeps.

Built on the two PR-4 subsystems: :mod:`repro.workloads` drives open-loop
traffic (Poisson and bursty arrival processes, per-group clients that
account offered vs admitted vs delivered load) and
:mod:`repro.experiments` grids the cells.  Three sweeps, all verified
online with zero stored trace events:

* **Load curves** -- every comparison stack x {poisson, bursty} x three
  or more offered-load points: offered load vs goodput and delivery
  latency percentiles.
* **Crash cells** -- the same open-loop traffic with one non-leader group
  member crash-stopping mid-window.  The all-ack baseline can never
  complete an acknowledgement round again and its recovery-phase delivery
  count flatlines (*stall detection*), while Newtop's membership service
  excludes the victim and keeps delivering.
* **Partition availability** -- a majority/minority split during the
  middle third: the primary-partition policy refuses the minority's sends
  (availability < 1) where Newtop admits on both sides, the E16 contrast
  under open-loop load.

``newtop-asymmetric`` runs in every cell, fault cells included: the
sequenced view-cut marker translates a detection into the sequencer
numbering that gates asymmetric delivery, closing the virtual-synchrony
gap that used to force its exclusion (the old ``lnmn`` cut was in
sender-clock units and marked no position in the sequencer's stream).

One extra fault-free cell runs Newtop under the heavy-tailed
``lognormal`` latency model (``SweepSpec.latency_model``) -- the paper's
"delays are unbounded and unpredictable" regime -- so the sweep also
covers a non-uniform network.

Run as a script to record the JSON artifact for CI (``--parallel N``
shards the cells across a :mod:`repro.parallel` worker pool)::

    python benchmarks/bench_workload_sweep.py --scale smoke \
        --json BENCH_workload_sweep.json --parallel 4
"""

import time

from common import (
    RESULTS,
    benchmark_arg_parser,
    fmt,
    unavailability_windows,
    write_bench_json,
)

from repro.api import COMPARISON_STACKS
from repro.experiments import SweepSpec, run_cell, run_sweep

#: Every comparison stack holds its guarantees through the fault cells
#: (newtop-asymmetric included since the view-cut marker fix).
FAULT_STACKS = COMPARISON_STACKS

#: Stacks in the partition-availability sweep: the fault-capable
#: comparison stacks plus the primary-partition policy they contrast with.
AVAILABILITY_STACKS = FAULT_STACKS + ("primary_partition",)

SMOKE_SCALE = dict(
    processes=8,
    groups=2,
    group_size=5,
    loads=(0.5, 1.0, 2.0),
    fault_load=1.0,
    duration=24.0,
    drain=30.0,
    seed=7,
)

FULL_SCALE = dict(
    processes=24,
    groups=4,
    group_size=8,
    loads=(0.5, 1.0, 2.0, 4.0),
    fault_load=2.0,
    duration=30.0,
    drain=40.0,
    seed=7,
)

SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE}


def _spec(scale, **overrides):
    base = dict(
        processes=scale["processes"],
        groups=scale["groups"],
        group_size=scale["group_size"],
        duration=scale["duration"],
        drain=scale["drain"],
        seed=scale["seed"],
    )
    base.update(overrides)
    return SweepSpec(**base)


def run_load_curves(scale=None, progress=None, parallel=None):
    """Offered-load vs goodput/latency curves for all six stacks."""
    scale = SMOKE_SCALE if scale is None else scale
    spec = _spec(
        scale,
        stacks=COMPARISON_STACKS,
        profiles=("poisson", "bursty"),
        loads=tuple(scale["loads"]),
        faults=("none",),
    )
    return run_sweep(spec, progress=progress, parallel=parallel)


def run_crash_cells(scale=None, progress=None, parallel=None):
    """Open-loop traffic with a mid-window crash, per stack."""
    scale = SMOKE_SCALE if scale is None else scale
    spec = _spec(
        scale,
        stacks=FAULT_STACKS,
        profiles=("poisson",),
        loads=(scale["fault_load"],),
        faults=("crash",),
    )
    return run_sweep(spec, progress=progress, parallel=parallel)


def run_availability_cells(scale=None, progress=None, parallel=None):
    """Majority/minority partition during the middle third, per stack."""
    scale = SMOKE_SCALE if scale is None else scale
    spec = _spec(
        scale,
        stacks=AVAILABILITY_STACKS,
        profiles=("poisson",),
        loads=(scale["fault_load"],),
        faults=("partition",),
    )
    return run_sweep(spec, progress=progress, parallel=parallel)


def run_latency_model_cells(scale=None, progress=None, parallel=None):
    """Newtop under the heavy-tailed lognormal latency model.

    One fault-free cell per Newtop ordering mode at the fault load: the
    ``SweepSpec.latency_model`` knob routed through
    :func:`repro.net.latency.get_latency_model` -- the network the paper
    actually postulates (unpredictable delays), as a sweep dimension.
    """
    scale = SMOKE_SCALE if scale is None else scale
    spec = _spec(
        scale,
        stacks=("newtop-symmetric", "newtop-asymmetric"),
        profiles=("poisson",),
        loads=(scale["fault_load"],),
        faults=("none",),
        latency_model="lognormal",
        # Skewed WAN-like delays, with the suspicion window widened so the
        # tail stays comfortably below it: a delay beyond the timeout
        # stalls a FIFO channel long enough to *correctly* trigger
        # suspicion, which is the fault cells' business, not this one's.
        latency_options={"median": 0.8, "sigma": 0.35},
        protocol={"suspicion_timeout": 8.0},
    )
    return run_sweep(spec, progress=progress, parallel=parallel)


def run_all(scale=None, progress=None, parallel=None):
    return {
        "curves": run_load_curves(scale, progress, parallel),
        "crash": run_crash_cells(scale, progress, parallel),
        "availability": run_availability_cells(scale, progress, parallel),
        "latency_models": run_latency_model_cells(scale, progress, parallel),
    }


def cell_outage_windows(cell):
    """Per-group unavailability windows for one sweep cell.

    Builds a ``(start, end, served, offered)`` series per group from the
    cell's per-group phase deltas and the phase boundaries, and runs the
    shared :func:`common.unavailability_windows` extractor over it -- the
    same window definition benchmark E26 applies to its KV shards.
    """
    bounds = cell["phase_bounds"]
    windows = {}
    for group, phases in cell["group_phases"].items():
        series = [
            (bounds[name][0], bounds[name][1],
             phases[name]["delivered_unique"], phases[name]["offered"])
            for name in ("pre", "fault", "recovery", "drain")
        ]
        found = unavailability_windows(series)
        if found:
            windows[group] = found
    return windows


def _assert_reports(reports, scale):
    """The E21 acceptance shape, asserted identically by test and CI."""
    curves, crash, availability = (
        reports["curves"], reports["crash"], reports["availability"],
    )
    assert not any("execution_status" in cell for report in reports.values()
                   for cell in report.cells), "a sweep cell crashed or timed out"
    # Every cell verified online against the stack's own checks, with no
    # materialized trace, and consistent offered >= admitted >= delivered.
    for report in reports.values():
        assert report.passed, [c for c in report.cells if not c["passed"]]
        for cell in report.cells:
            assert cell["trace_events_stored"] == 0
            assert cell["offered"] >= cell["admitted"] >= cell["delivered_unique"]
    # Full curves: every stack x profile has one point per load.
    table = curves.curves()
    for stack in COMPARISON_STACKS:
        for profile in ("poisson", "bursty"):
            points = table[stack][profile]
            assert len(points) == len(scale["loads"]), (stack, profile)
    # The headline contrast: the all-ack baseline stalls after the crash
    # while Newtop keeps delivering through the same window.
    lamport = crash.cell("lamport_ack", "poisson", scale["fault_load"], "crash")
    newtop = crash.cell("newtop-symmetric", "poisson", scale["fault_load"], "crash")
    assert lamport["stalled_groups"] > 0, lamport
    assert newtop["stalled_groups"] == 0, newtop
    assert newtop["delivered_unique"] > lamport["delivered_unique"]
    # The same contrast as unavailability *windows*: the stalled baseline
    # group goes dark for a measurable interval; no Newtop group does.
    assert cell_outage_windows(lamport), lamport["group_phases"]
    assert not cell_outage_windows(newtop), cell_outage_windows(newtop)
    # The view-cut marker fix: asymmetric Newtop now holds virtual
    # synchrony through the fault cells it used to be excluded from.
    asym = crash.cell("newtop-asymmetric", "poisson", scale["fault_load"], "crash")
    assert asym["passed"] and asym["stalled_groups"] == 0, asym
    # The latency-model cells ran on the heavy-tailed network and held.
    for cell in reports["latency_models"].cells:
        assert cell["passed"], cell
    assert reports["latency_models"].spec["latency_model"] == "lognormal"
    # E16 under load: the primary-partition policy refuses the minority's
    # sends; Newtop admits on both sides of the split.
    primary = availability.cell(
        "primary_partition", "poisson", scale["fault_load"], "partition"
    )
    newtop_part = availability.cell(
        "newtop-symmetric", "poisson", scale["fault_load"], "partition"
    )
    assert primary["availability"] < 1.0, primary
    assert newtop_part["availability"] > primary["availability"]


def test_workload_sweep(benchmark):
    reports = benchmark.pedantic(
        run_all, kwargs=dict(scale=SMOKE_SCALE), rounds=1, iterations=1
    )
    _assert_reports(reports, SMOKE_SCALE)
    curves = reports["curves"].curves()
    table = [
        f"{SMOKE_SCALE['processes']} processes / {SMOKE_SCALE['groups']} overlapping "
        f"groups, open-loop poisson+bursty, loads {list(SMOKE_SCALE['loads'])}",
        "stack             | profile | load | goodput | admitted | p50 lat | p99 lat",
    ]
    for stack in COMPARISON_STACKS:
        for profile in ("poisson", "bursty"):
            for point in curves[stack][profile]:
                table.append(
                    f"{stack:17s} | {profile:7s} | {point['offered_load']:4.1f} | "
                    f"{point['goodput']:7.2f} | {point['admitted']:8d} | "
                    f"{fmt(point['latency_p50']):>7} | {fmt(point['latency_p99']):>7}"
                )
    lamport = reports["crash"].cell(
        "lamport_ack", "poisson", SMOKE_SCALE["fault_load"], "crash"
    )
    newtop = reports["crash"].cell(
        "newtop-symmetric", "poisson", SMOKE_SCALE["fault_load"], "crash"
    )
    primary = reports["availability"].cell(
        "primary_partition", "poisson", SMOKE_SCALE["fault_load"], "partition"
    )
    table.append(
        f"crash cell: lamport_ack stalls ({lamport['stalled_groups']} group(s), "
        f"{lamport['delivered_unique']} delivered) vs newtop-symmetric "
        f"({newtop['stalled_groups']} stalled, {newtop['delivered_unique']} delivered)"
    )
    outages = cell_outage_windows(lamport)
    longest = max(
        (window["duration"] for found in outages.values() for window in found),
        default=0.0,
    )
    table.append(
        f"outage windows (shared extractor): lamport_ack {len(outages)} dark "
        f"group(s), longest {longest:.1f}s; newtop-symmetric none"
    )
    table.append(
        f"partition cell: primary_partition availability "
        f"{primary['availability']:.0%} vs newtop 100% -- E16 under open-loop load"
    )
    asym = reports["crash"].cell(
        "newtop-asymmetric", "poisson", SMOKE_SCALE["fault_load"], "crash"
    )
    table.append(
        f"newtop-asymmetric crash cell: PASS (view-cut marker), "
        f"{asym['delivered_unique']} delivered, {asym['stalled_groups']} stalled"
    )
    lognormal = reports["latency_models"].cell(
        "newtop-symmetric", "poisson", SMOKE_SCALE["fault_load"], "none"
    )
    table.append(
        f"lognormal latency model: goodput {lognormal['goodput']:.2f}, "
        f"p99 {fmt(lognormal['latency']['p99'])} -- unpredictable-delay regime"
    )
    table.append(
        "paper: Newtop's decentralized ordering keeps goodput tracking offered "
        "load through faults where all-ack stalls and primary-partition blocks "
        "the minority -> reproduced as curves, not points"
    )
    RESULTS.add_table("E21 open-loop load & availability sweep (six stacks)", table)


def observed_cell(scale, observe):
    """One representative fault-free Newtop cell re-run under observation.

    The sweeps themselves stay unobserved (hundreds of cells would bloat
    the artifact); one poisson cell at the fault load carries the obs
    block -- sampler time series, messages-per-delivery curve and (with
    ``observe="full"``) the profiler/span breakdowns -- for the E21 JSON.
    Re-running the cell is sound because observation never changes a
    cell's numbers (pinned by the observation tests in
    ``tests/test_hot_path_equivalence.py``).
    """
    spec = _spec(
        scale,
        stacks=("newtop-symmetric",),
        profiles=("poisson",),
        loads=(scale["fault_load"],),
        faults=("none",),
    )
    row = run_cell(
        spec, "newtop-symmetric", "poisson", scale["fault_load"], observe=observe
    )
    return {
        "stack": row["stack"],
        "profile": row["profile"],
        "offered_load": row["offered_load"],
        "obs": row.get("obs"),
    }


def record_results(scale_name, json_path, parallel=None, observe=None):
    """Run all four sweeps and write the shared-schema JSON (CI hook)."""
    scale = SCALES[scale_name]
    start = time.time()
    done = []

    def progress(row):
        done.append(row)
        print(
            f"  [{len(done):3d}] {row['stack']:18s} {row['profile']:8s} "
            f"load={row['offered_load']:<4} {row['fault']:9s} "
            f"passed={row['passed']} goodput={row.get('goodput')}"
        )

    reports = run_all(scale, progress, parallel)
    _assert_reports(reports, scale)
    payload = {
        "parallel": parallel or 1,
        "curves": reports["curves"].as_dict(),
        "crash": reports["crash"].as_dict(),
        "availability": reports["availability"].as_dict(),
        "latency_models": reports["latency_models"].as_dict(),
        "crash_outage_windows": {
            cell["stack"]: cell_outage_windows(cell)
            for cell in reports["crash"].cells
        },
    }
    if observe is not None:
        payload["observed_cell"] = observed_cell(scale, observe)
    return write_bench_json(
        json_path,
        "workload_sweep",
        scale_name,
        payload,
        config={key: list(value) if isinstance(value, tuple) else value
                for key, value in scale.items()},
        seed=scale["seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(__doc__, "BENCH_workload_sweep.json", SCALES)
    args = parser.parse_args()
    payload = record_results(
        args.scale, args.json, parallel=args.parallel, observe=args.observe
    )
    cells = sum(
        len(payload[key]["cells"])
        for key in ("curves", "crash", "availability", "latency_models")
    )
    print(
        f"{payload['benchmark']} [{payload['scale']}] {cells} cells "
        f"(pool={payload['parallel']}) wall={payload['wall_seconds']}s -> {args.json}"
    )


if __name__ == "__main__":
    main()
