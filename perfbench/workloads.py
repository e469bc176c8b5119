"""The three benchmark workloads, one verified simulation per repetition.

Each workload function runs one complete, online-verified simulation from
its seed and returns a :class:`Rep` holding the timings, the behaviour
fingerprint, the correctness gate and the deterministic metrics.  The
network is the default simulated one (one-way delay uniform in
[0.5, 1.5] simulated seconds) and all traffic is open-loop: operations
arrive on a seeded schedule whatever the system does, and latency is
timed from each operation's arrival.

* ``churn-1k`` -- the E23 smoke shape: 1,000 processes in 50 overlapping
  symmetric groups of 12, 3 crashes, 3 leaves, 2 formations; two senders
  per group send one message each.  Null messages, timers, the
  suspector and membership do nearly all the work.
* ``dense-sym`` -- 48 processes in 6 overlapping symmetric groups of 12,
  no faults, one Poisson client per group at 12 multicasts per second
  drawing senders from that group's members: every member sends faster
  than 1/omega, so ordering, delivery, stability and the online checkers
  carry the load instead of nulls.
* ``kv-failover`` -- the E26 full shape: 6 shards x 3 asymmetric
  replicas plus 2 spares, 2,000 logical clients, zipf(1.1) keys from
  1,024, 70% reads; one shard's sequencer crashes at T/4 and the hot
  shard is split live at T/2.  The only workload with application,
  sequencer and oracle work, and with a failover clients can see.
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Callable, Dict, List, Optional

from bench_kv_shards import FULL_SCALE as KV_SCALE
from bench_single_scale import SMOKE_SCALE, single_scale_config

from repro.api import Session
from repro.apps.kv import KVOracle, KVWorkload, Rebalancer, ShardedKV
from repro.core.config import OrderingMode
from repro.scenarios import ScenarioEngine, from_config
from repro.scenarios.library import ring_overlap_groups
from repro.scenarios.spec import default_process_names

from hostref import HostReference
from observe import RunObserver, mean, median, pct, tail_mean

#: Default seeds: E23's for churn-1k, E26's for kv-failover.
DEFAULT_SEEDS = {"churn-1k": 23, "dense-sym": 5, "kv-failover": 11}

#: Behaviour fingerprints (application deliveries, transport sends,
#: simulator events, final simulated time) at the default seeds, recorded
#: when the benchmark was defined.  A change meant to keep behaviour must
#: reproduce them; ``run.py`` reports whether a run does.
GOLDEN_FINGERPRINTS = {
    ("churn-1k", 23): (1210, 197470, 151423, 45.0),
    ("dense-sym", 5): (51420, 77066, 99043, 91.0),
    ("kv-failover", 11): (15291, 14902, 43841, 186.0),
}

DENSE_SYM = dict(
    processes=48, groups=6, group_size=12, rate=12.0, duration=60.0, drain=30.0
)


class SetupComplete(Exception):
    """Raised at the first simulated event of a set-up-only repetition."""


class Rep:
    """Timings, fingerprint, gate and metrics of one repetition.

    ``setup_s`` runs from the start of the repetition to the first
    simulated event; ``run_s`` from there until the verdict and the gate
    are known, less the host reference slices taken meanwhile.  Both are
    wall seconds; ``host_factor`` converts them to reference seconds (see
    :mod:`hostref`).  A ``setup_only`` repetition stops at the first
    simulated event by raising :class:`SetupComplete`.
    """

    def __init__(self, tracer=None, setup_only: bool = False) -> None:
        self.tracer = tracer
        self.setup_only = setup_only
        self.start = perf_counter()
        self.first_event: Optional[float] = None
        self.setup_s = 0.0
        self.run_s = 0.0
        self.wall_s = 0.0
        #: Trace sink that times the host reference slices.
        self.host = HostReference()
        self.host_factor = 1.0
        self.fingerprint: tuple = ()
        self.deliveries = 0
        self.gate: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        #: Deterministic end-to-end metrics (simulated seconds, ratios).
        self.sim: Dict[str, float] = {}
        #: Deterministic per-layer counts.
        self.counts: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}

    def phase(self, layer: str):
        """A harness-level span (a no-op context when untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.region(layer)

    def watch(self, session) -> None:
        """Note the instant the simulator first runs: the end of set-up."""
        sim = session.sim
        for name in ("run", "run_until"):
            original = getattr(sim, name)

            def entry(*args, _original=original, **kwargs):
                if self.first_event is None:
                    self.first_event = perf_counter()
                    if self.setup_only:
                        raise SetupComplete(self.first_event - self.start)
                    self.host.start()
                return _original(*args, **kwargs)

            setattr(sim, name, entry)

    def check(self, condition: bool, failure: str) -> None:
        if not condition:
            self.gate.append(failure)

    def finish(self, session, result, observer: RunObserver) -> "Rep":
        """Close the timings and record what every workload shares."""
        end = perf_counter()
        self.setup_s = self.first_event - self.start
        self.run_s = end - self.first_event - self.host.spent
        self.host_factor = self.host.factor()
        self.wall_s = end - self.start
        self.check(result.passed, f"online checks failed: {_violations(result)}")
        self.check(
            result.trace_events_stored == 0,
            f"{result.trace_events_stored} trace events stored in online mode",
        )
        stats = session.network.stats
        self.deliveries = result.deliveries
        self.fingerprint = (
            result.deliveries,
            stats.messages_sent,
            session.sim.events_processed,
            round(result.sim_time, 9),
        )
        self.check(self.deliveries > 0, "no application delivery")
        latencies = observer.delivery_latencies
        durations, incomplete = observer.view_change_durations()
        self.check(incomplete == 0, f"{incomplete} view-change episode(s) never completed")
        by_kind = session.metrics_sink.by_kind if session.metrics_sink else {}
        self.sim.update(
            sends_per_delivery=stats.messages_sent / max(1, self.deliveries),
            delivery_mean_sim=mean(latencies),
            delivery_tail10_sim=tail_mean(latencies),
        )
        self.counts.update(
            {
                "sim.events": session.sim.events_processed,
                "sim.events_per_delivery": session.sim.events_processed
                / max(1, self.deliveries),
                "net.sends": stats.messages_sent,
                "net.bytes": stats.bytes_sent,
                "net.dropped": stats.messages_dropped,
                "net.msgs_per_batch": stats.messages_delivered
                / max(1, stats.delivery_events),
                "core.nulls": by_kind.get("null_send", 0),
                "core.suspicions": by_kind.get("suspect", 0),
                "core.view_installs": observer.view_installs,
                "core.view_change_p50_sim": median(durations),
                "core.stability.retained_peak": _retained_peak(session),
                "verify.trace_events": result.trace_events,
                "verify.events_per_delivery": result.trace_events
                / max(1, self.deliveries),
                "kv.retries": 0,
                "kv.attempts_per_op": 0.0,
                "kv.write_outage_sim": 0.0,
            }
        )
        self.notes.update(
            delivery_samples=len(latencies),
            delivery_p50_sim=pct(latencies, 50),
            delivery_p95_sim=pct(latencies, 95),
            delivery_p99_sim=pct(latencies, 99),
            view_change_episodes=len(durations),
            sim_time=result.sim_time,
        )
        return self


def _violations(result) -> str:
    found = list(result.checks.violations[:3]) + list(result.sink_errors[:3])
    return "; ".join(str(item) for item in found)


def _retained_peak(session) -> int:
    """Summed peak occupancy of every live endpoint's retention buffer."""
    total = 0
    for process in session.processes.values():
        for group in process.groups:
            total += process.endpoint(group).stability.buffer.peak_size
    return total


# ----------------------------------------------------------------------
# Scenario-engine workloads (churn-1k, dense-sym)
# ----------------------------------------------------------------------
def churn_config(seed: int) -> dict:
    return single_scale_config(dict(SMOKE_SCALE, seed=seed))


def dense_sym_config(seed: int) -> dict:
    shape = DENSE_SYM
    processes = list(default_process_names(shape["processes"]))
    return {
        "name": "dense-sym",
        "seed": seed,
        "processes": processes,
        "groups": ring_overlap_groups(processes, shape["groups"], shape["group_size"]),
        "workload": {
            "profile": "poisson",
            "rate": shape["rate"],
            "duration": shape["duration"],
            "senders_per_group": 0,
        },
        "events": [],
        "drain": shape["drain"],
    }


def _scenario_rep(make_config: Callable[[int], dict], seed: int, tracer, setup_only) -> Rep:
    rep = Rep(tracer, setup_only)
    with rep.phase("setup.compile"):
        spec = from_config(make_config(seed))
    observer = RunObserver()
    engine = ScenarioEngine(spec, analysis="online", sinks=[observer, rep.host])
    rep.watch(engine.session)
    observer.track_multicasts(engine.session)
    result = engine.run()
    rep.finish(engine.session, result, observer)
    outcome = observer.multicast_outcomes()
    skipped = (result.workload or {}).get("skipped", 0)
    rep.attempted = outcome["offered"] + skipped
    rep.failed = outcome["blocked"] + outcome["undelivered"] + skipped
    rep.completed = len(outcome["completion"])
    rep.check(rep.completed > 0, "no multicast reached every surviving member")
    rep.sim.update(
        write_mean_sim=mean(outcome["completion"]),
        write_tail10_sim=tail_mean(outcome["completion"]),
    )
    rep.notes.update(
        blocked=outcome["blocked"],
        undelivered=outcome["undelivered"],
        skipped=skipped,
        write_samples=rep.completed,
        write_p50_sim=pct(outcome["completion"], 50),
        write_p95_sim=pct(outcome["completion"], 95),
        write_p99_sim=pct(outcome["completion"], 99),
    )
    return rep


def churn_1k(seed: int, tracer=None, setup_only: bool = False) -> Rep:
    return _scenario_rep(churn_config, seed, tracer, setup_only)


def dense_sym(seed: int, tracer=None, setup_only: bool = False) -> Rep:
    return _scenario_rep(dense_sym_config, seed, tracer, setup_only)


# ----------------------------------------------------------------------
# kv-failover
# ----------------------------------------------------------------------
def kv_failover(seed: int, tracer=None, setup_only: bool = False) -> Rep:
    scale = KV_SCALE
    rep = Rep(tracer, setup_only)
    with rep.phase("setup.compile"):
        layout = {
            f"s{index}": [f"s{index}r{r}" for r in range(scale["replicas"])]
            for index in range(scale["shards"])
        }
        spares = [f"x{index}" for index in range(scale["spares"])]
    oracle = KVOracle()
    observer = RunObserver()
    session = Session(
        "newtop", seed=seed, analysis="online", sinks=[oracle, observer, rep.host]
    )
    rep.watch(session)
    session.spawn([pid for members in layout.values() for pid in members])
    session.spawn(spares)
    store = ShardedKV(session, mode=OrderingMode.ASYMMETRIC)
    store.bootstrap(layout)
    observer.track_kv_submits(store)
    workload = KVWorkload(
        store,
        clients=scale["clients"],
        keys=scale["keys"],
        rate=scale["rate"],
        duration=scale["duration"],
        drain=scale["drain"],
        read_fraction=scale["read_fraction"],
        zipf_exponent=scale["zipf_exponent"],
        bin_width=scale["bin_width"],
        seed=seed,
    )
    rebalancer = Rebalancer(store)
    # The hottest key (zipf rank 0) decides the split source; the crash
    # hits the sequencer (smallest member) of a different shard.
    hot_shard = store.ring.lookup("k0")
    crash_shard = next(shard for shard in sorted(layout) if shard != hot_shard)
    victim = min(layout[crash_shard])
    events: Dict[str, object] = {}

    def do_crash() -> None:
        events["crash_at"] = session.sim.now
        session.crash(victim)

    def do_split() -> None:
        coordinator = store.alive_members(hot_shard)[0]
        events["split"] = rebalancer.split_shard(
            hot_shard, f"s{scale['shards']}", [coordinator, *spares]
        )

    session.run(1.0)
    workload.start()
    session.sim.schedule(scale["duration"] * 0.25, do_crash, label="bench_crash")
    session.sim.schedule(scale["duration"] * 0.50, do_split, label="bench_split")
    session.run(scale["duration"] + scale["drain"])
    split = events["split"]
    session.run_until(lambda: split.complete or split.failed is not None, timeout=120.0)
    session.run(5.0)
    result = session.result()
    live = [shard for shard in sorted(store.shards) if not store.shards[shard].retired]
    converged = all(store.converged(shard) for shard in live)
    rep.check(oracle.passed, f"KV oracle failed: {oracle.summary()['first_violations']}")
    rep.check(split.complete, f"live split did not complete: {split.describe()}")
    rep.check(split.describe()["moved_keys"] > 0, "live split moved no key")
    rep.check(converged, "alive replicas of a shard diverged")
    rep.finish(session, result, observer)

    counters = workload.counters
    completed = counters["completed_reads"] + counters["completed_writes"]
    stranded = workload.in_flight()
    retries = sum(
        counters[name]
        for name in (
            "stale_refreshes",
            "moved_retries",
            "behind_retries",
            "failover_redirects",
            "unavailable_retries",
        )
    )
    rep.attempted = counters["offered"] + counters["blocked_all_busy"]
    rep.failed = counters["blocked_all_busy"] + counters["abandoned"] + stranded
    rep.completed = completed
    writes = workload.write_latency.summary(percentiles=(50, 95, 99))
    first_ack = observer.first_ack_after(crash_shard, events["crash_at"])
    rep.check(
        first_ack is not None, f"{crash_shard} never acknowledged a write after the crash"
    )
    outage = first_ack - events["crash_at"] if first_ack is not None else 0.0
    rep.sim.update(
        write_mean_sim=writes["mean"],
        write_tail10_sim=tail_mean(workload.write_latency.samples),
    )
    rep.counts.update(
        {
            "kv.retries": retries,
            "kv.attempts_per_op": (completed + retries) / max(1, completed),
            "kv.write_outage_sim": outage,
        }
    )
    rep.notes.update(
        blocked_all_busy=counters["blocked_all_busy"],
        abandoned=counters["abandoned"],
        stranded=stranded,
        crash_shard=crash_shard,
        hot_shard=hot_shard,
        write_samples=writes["count"],
        write_p50_sim=writes["p50"],
        write_p95_sim=writes["p95"],
        write_p99_sim=writes["p99"],
    )
    return rep


def measure_setup(workload: Callable[..., Rep], seed: int) -> float:
    """Seconds one set-up of ``workload`` takes, up to its first event."""
    try:
        workload(seed, setup_only=True)
    except SetupComplete as done:
        return done.args[0]
    raise RuntimeError("the workload never reached its first simulated event")


WORKLOADS: Dict[str, Callable[..., Rep]] = {
    "churn-1k": churn_1k,
    "dense-sym": dense_sym,
    "kv-failover": kv_failover,
}
