"""Per-layer spans for the traced run, installed from outside ``src/``.

:class:`Tracer` wraps the public entry points of each layer (the
:data:`SPANS` table) and every callback handed to ``Simulator.schedule``
(which ``schedule_at`` and ``call_soon`` go through) or to
``NewtopProcess.add_delivery_callback``.  A callback is attributed to the
layer of the module that defines it (:data:`MODULE_LAYERS`).  Spans nest
on one stack; a span's self time is its duration minus its child spans,
so the self times of all layers plus the residue (time outside every
span) add up to the traced wall time.

Wrapping is installed on the classes before a traced repetition builds its
session and removed afterwards, so untraced repetitions run the code
exactly as shipped.  The wrappers only observe: the fingerprint check in
``run.py`` compares every traced repetition with the untraced ones.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.analysis.online import OnlineCheckSuite
from repro.api import Session
from repro.apps.kv import KVOracle, KVWorkload, Rebalancer, ShardedKV
from repro.apps.kv.ring import HashRing
from repro.apps.kv.store import KVReplica
from repro.core.asymmetric import AsymmetricOrdering
from repro.core.delivery import DeliveryQueue
from repro.core.endpoint import GroupEndpoint
from repro.core.group_formation import FormationCoordinator
from repro.core.membership import GroupViewProcess
from repro.core.process import NewtopProcess
from repro.core.stability import StabilityTracker
from repro.core.suspector import FailureSuspector
from repro.core.symmetric import SymmetricOrdering
from repro.core.time_silence import TimeSilence
from repro.net.network import Network
from repro.net.simulator import EventHandle, Simulator
from repro.net.trace import TraceRecorder
from repro.net.transport import Endpoint as TransportEndpoint
from repro.workloads.client import OpenLoopClient

from hostref import HostReference
from observe import RunObserver

#: (class, public method, layer) spans.  Set-up spans are measured
#: inclusively as well (``setup.*`` per-layer metrics).
SPANS: List[Tuple[type, str, str]] = [
    (Simulator, "run", "sim"),
    (Simulator, "run_until", "sim"),
    (Network, "multicast", "net.send"),
    (TransportEndpoint, "send", "net.send"),
    (TransportEndpoint, "multicast", "net.send"),
    (GroupEndpoint, "on_sequencer_request", "core.sequencer"),
    (AsymmetricOrdering, "on_sequencer_request", "core.sequencer"),
    (AsymmetricOrdering, "emit_view_cut", "core.sequencer"),
    (AsymmetricOrdering, "send", "core.ordering"),
    (AsymmetricOrdering, "on_data", "core.ordering"),
    (SymmetricOrdering, "send", "core.ordering"),
    (SymmetricOrdering, "on_data", "core.ordering"),
    (NewtopProcess, "multicast", "core.ordering"),
    (NewtopProcess, "flush_deferred_sends", "core.delivery"),
    (NewtopProcess, "deliver_immediately", "core.delivery"),
    (DeliveryQueue, "enqueue", "core.delivery"),
    (DeliveryQueue, "pop_deliverable", "core.delivery"),
    (StabilityTracker, "on_message", "core.stability"),
    (StabilityTracker, "record_global_ldn", "core.stability"),
    (StabilityTracker, "handle_member_removed", "core.stability"),
    (TimeSilence, "start", "core.time_silence"),
    (TimeSilence, "stop", "core.time_silence"),
    (FailureSuspector, "heard_from", "core.suspector"),
    (FailureSuspector, "clear_suspicion", "core.suspector"),
    (FailureSuspector, "remove_member", "core.suspector"),
    (FailureSuspector, "force_suspect", "core.suspector"),
    (FailureSuspector, "start", "core.suspector"),
    (FailureSuspector, "stop", "core.suspector"),
    (GroupViewProcess, "on_suspector_notification", "core.membership"),
    (GroupViewProcess, "on_membership_message", "core.membership"),
    (GroupViewProcess, "on_data_from", "core.membership"),
    (GroupViewProcess, "regossip_unresolved", "core.membership"),
    (GroupViewProcess, "on_view_installed", "core.membership"),
    (GroupEndpoint, "on_membership_message", "core.membership"),
    (GroupEndpoint, "execute_failure_detection", "core.membership"),
    (GroupEndpoint, "maybe_install_views", "core.membership"),
    (NewtopProcess, "leave_group", "core.membership"),
    (NewtopProcess, "form_group", "core.formation"),
    (NewtopProcess, "activate_formed_group", "core.formation"),
    (FormationCoordinator, "initiate", "core.formation"),
    (FormationCoordinator, "on_invite", "core.formation"),
    (FormationCoordinator, "on_vote", "core.formation"),
    (FormationCoordinator, "on_activation_evidence", "core.formation"),
    (TraceRecorder, "record", "verify"),
    (OnlineCheckSuite, "result", "verify"),
    (KVOracle, "on_event", "kv.oracle"),
    (HashRing, "owners", "kv.ring"),
    (HashRing, "with_shard", "kv.ring"),
    (HashRing, "without_shard", "kv.ring"),
    (HashRing, "moved_keys", "kv.ring"),
    (ShardedKV, "submit", "kv.store"),
    (ShardedKV, "read", "kv.store"),
    (ShardedKV, "converged", "kv.store"),
    (KVReplica, "read", "kv.store"),
    (Rebalancer, "split_shard", "kv.store"),
    (KVWorkload, "start", "kv.workload"),
    (OpenLoopClient, "start", "client"),
    (OpenLoopClient, "on_event", "client"),
    (RunObserver, "on_event", "harness"),
    (HostReference, "on_event", "harness"),
    (Session, "spawn", "setup.spawn"),
    (Session, "group", "setup.group"),
    (ShardedKV, "bootstrap", "setup.group"),
]

#: Module prefix -> layer of the callbacks that module defines (first
#: match wins).
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.net.simulator", "sim"),
    ("repro.net", "net.deliver"),
    ("repro.core.time_silence", "core.time_silence"),
    ("repro.core.suspector", "core.suspector"),
    ("repro.core.membership", "core.membership"),
    ("repro.core.group_formation", "core.formation"),
    ("repro.core.asymmetric", "core.sequencer"),
    ("repro.core.symmetric", "core.ordering"),
    ("repro.core.stability", "core.stability"),
    ("repro.core", "core.delivery"),
    ("repro.analysis", "verify"),
    ("repro.apps.kv.ring", "kv.ring"),
    ("repro.apps.kv.oracle", "kv.oracle"),
    ("repro.apps.kv.workload", "kv.workload"),
    ("repro.apps", "kv.store"),
    ("repro.workloads", "client"),
    ("repro.scenarios", "client"),
    ("workloads", "harness"),
    ("observe", "harness"),
)

#: Every layer the table can name, in report order.
LAYERS = (
    "sim", "net.send", "net.deliver", "core.receive", "core.ordering",
    "core.sequencer", "core.delivery", "core.time_silence", "core.stability",
    "core.suspector", "core.membership", "core.formation", "verify",
    "kv.oracle", "kv.ring", "kv.store", "kv.workload", "client",
    "setup.compile", "setup.spawn", "setup.group", "harness", "other",
)


class Tracer:
    """A span stack plus per-layer calls, self and inclusive time."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(int)
        self._stack: List[list] = []
        self._saved: List[Tuple[type, str, object]] = []
        self._module_layer: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _close(self, layer: str, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        self.self_s[layer] += elapsed - frame[1]
        self.calls[layer] += 1
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            if parent[0] == layer:
                return
        self.inclusive_s[layer] += elapsed

    def span(self, layer: str, function: Callable) -> Callable:
        """``function`` wrapped in a span of ``layer``."""
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                close(layer, frame, perf_counter() - start)

        return traced

    @contextmanager
    def region(self, layer: str):
        """A span around a block of harness code."""
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(layer, frame, perf_counter() - start)

    def layer_of(self, callback: Callable) -> str:
        module = getattr(callback, "__module__", None) or ""
        layer = self._module_layer.get(module)
        if layer is None:
            layer = next(
                (name for prefix, name in MODULE_LAYERS if module.startswith(prefix)),
                "other",
            )
            self._module_layer[module] = layer
        return layer

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: type, name: str, wrapper: Callable) -> None:
        self._saved.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, wrapper)

    def install(self) -> "Tracer":
        """Wrap every :data:`SPANS` entry, plus the entry points that also
        count (schedules, cancels, null sends, receipts, delivery attempts,
        ring lookups) or hand callbacks on."""
        for owner, name, layer in SPANS:
            method = getattr(owner, name)
            self._patch(owner, name, functools.wraps(method)(self.span(layer, method)))
        counts = self.counts
        span = self.span
        layer_of = self.layer_of

        schedule = Simulator.schedule

        def traced_schedule(sim, delay, callback, *args, **kwargs):
            counts["sim.schedules"] += 1
            handle = schedule(
                sim, delay, span(layer_of(callback), callback), *args, **kwargs
            )
            pending = sim.pending_events
            if pending > counts["sim.peak_pending"]:
                counts["sim.peak_pending"] = pending
            return handle

        self._patch(Simulator, "schedule", span("sim", traced_schedule))

        cancel = EventHandle.cancel

        def traced_cancel(handle):
            counts["sim.cancels"] += 1
            return cancel(handle)

        self._patch(EventHandle, "cancel", span("sim", traced_cancel))

        add_delivery_callback = NewtopProcess.add_delivery_callback

        def traced_add_delivery_callback(process, callback):
            return add_delivery_callback(process, span(layer_of(callback), callback))

        self._patch(NewtopProcess, "add_delivery_callback", traced_add_delivery_callback)

        network_send = Network.send

        def traced_network_send(network, src, dst, payload, *args, **kwargs):
            if getattr(getattr(payload, "payload", None), "is_null", False):
                counts["net.null_sends"] += 1
            return network_send(network, src, dst, payload, *args, **kwargs)

        self._patch(Network, "send", span("net.send", traced_network_send))

        on_data_message = GroupEndpoint.on_data_message

        def traced_on_data_message(endpoint, message, *args, **kwargs):
            counts["core.receive.calls"] += 1
            if message.is_null:
                counts["core.receive.nulls"] += 1
            return on_data_message(endpoint, message, *args, **kwargs)

        self._patch(
            GroupEndpoint, "on_data_message", span("core.receive", traced_on_data_message)
        )

        attempt_delivery = NewtopProcess.attempt_delivery

        def traced_attempt_delivery(process):
            delivered = attempt_delivery(process)
            counts["core.delivery.attempts"] += 1
            counts["core.delivery.delivered"] += delivered
            return delivered

        self._patch(
            NewtopProcess, "attempt_delivery", span("core.delivery", traced_attempt_delivery)
        )

        lookup = HashRing.lookup

        def traced_lookup(ring, key):
            counts["kv.ring.lookups"] += 1
            return lookup(ring, key)

        self._patch(HashRing, "lookup", span("kv.ring", traced_lookup))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def table(self, wall_s: float) -> Tuple[List[Tuple[str, int, float]], float]:
        """``[(layer, calls, self seconds)]`` and the residue."""
        rows = [
            (layer, self.calls.get(layer, 0), self.self_s.get(layer, 0.0))
            for layer in LAYERS
            if self.calls.get(layer, 0)
        ]
        return rows, wall_s - sum(self.self_s.values())
