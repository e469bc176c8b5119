"""The benchmark's own trace sink: latency, failure and fault-episode accounting.

:class:`RunObserver` rides the session's trace stream next to the online
check suite and never stores trace events.  From the events it derives
what a user of the system would see:

* multicast -> delivery latency for every application multicast;
* for each multicast the harness offered (see :meth:`track_multicasts`),
  whether it was deferred and never sent, whether every surviving member
  of its group delivered it, and the time until the last one did;
* view-change episodes: a crash or leave starts one per group the process
  belonged to; it ends when every surviving member of that group has
  installed a view without the process;
* for the KV workload, when each shard acknowledged a client write (the
  coordinator replica's apply) and when that write was submitted.
"""

from __future__ import annotations

import statistics
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.net.trace import (
    CRASH,
    DELIVER,
    DEPART,
    KV_APPLY,
    SEND,
    UNBLOCKED_SEND,
    VIEW_INSTALL,
    TraceSink,
)
from repro.stats import percentile

#: ``origin["client"]`` of the KV rebalancer's own control traffic.
REBALANCE_CLIENT = "__rebalance__"


class _Episode:
    __slots__ = ("group", "target", "start", "done")

    def __init__(self, group: str, target: str, start: float) -> None:
        self.group = group
        self.target = target
        self.start = start
        #: survivor -> instant it installed a view without ``target``.
        self.done: Dict[str, float] = {}


class RunObserver(TraceSink):
    """Streaming, store-nothing accounting over one run's trace."""

    def __init__(self) -> None:
        self._handlers = {
            SEND: self._on_send,
            UNBLOCKED_SEND: self._on_unblocked_send,
            DELIVER: self._on_deliver,
            VIEW_INSTALL: self._on_view,
            CRASH: self._on_crash,
            DEPART: self._on_depart,
            KV_APPLY: self._on_kv_apply,
        }
        self._sent_at: Dict[str, float] = {}
        #: message id -> [(process, delivery instant)]
        self._deliveries: Dict[str, List[Tuple[str, float]]] = {}
        self.delivery_latencies: List[float] = []
        #: (process, group) -> members of the process's latest view.
        self._views: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._groups_of: Dict[str, set] = {}
        self._crashed: set = set()
        self._departed: set = set()
        self._episodes: List[_Episode] = []
        self._open: Dict[str, List[_Episode]] = {}
        self.view_installs = 0
        #: shard id -> [(acknowledged, submitted)] per client write.
        self.kv_acks: Dict[str, List[Tuple[float, float]]] = {}
        self._kv_submitted: Dict[Tuple[str, int], float] = {}
        #: Multicasts offered through :meth:`track_multicasts`, each
        #: ``[group, message id or None while deferred, arrival]``.
        self._offered: List[list] = []
        #: (sender, group) -> offered multicasts the sender deferred, in
        #: the order the protocol will transmit them.
        self._deferred: Dict[Tuple[str, str], Deque[list]] = {}
        #: (sender, group) -> the deferred multicast whose SEND is next.
        self._unblocking: Dict[Tuple[str, str], list] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def track_multicasts(self, session) -> None:
        """Count every ``session.multicast`` call as one offered operation.

        A call that returns ``None`` was deferred by the protocol (formation
        wait, view-change or flow-control blocking); the sender transmits
        its deferred payloads in order once the obstacle clears, so the
        operation takes the id of that later SEND.
        """
        original = session.multicast
        sim = session.sim
        offered = self._offered
        deferred = self._deferred

        def multicast(sender, group_id, payload):
            message_id = original(sender, group_id, payload)
            entry = [group_id, message_id, sim.now]
            offered.append(entry)
            if message_id is None:
                deferred.setdefault((sender, group_id), deque()).append(entry)
            return message_id

        session.multicast = multicast

    def track_kv_submits(self, store) -> None:
        """Note when every client write is submitted to ``store``."""
        original = store.submit
        sim = store.session.sim
        submitted = self._kv_submitted

        def submit(**kwargs):
            submitted[(kwargs["client"], kwargs["client_op"])] = sim.now
            return original(**kwargs)

        store.submit = submit

    def on_event(self, event) -> None:
        handler = self._handlers.get(event.kind)
        if handler is not None:
            handler(event)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_send(self, event) -> None:
        if event.message_id is not None:
            self._sent_at.setdefault(event.message_id, event.time)
            entry = self._unblocking.pop((event.process, event.group), None)
            if entry is not None:
                entry[1] = event.message_id

    def _on_unblocked_send(self, event) -> None:
        queue = self._deferred.get((event.process, event.group))
        if queue:
            self._unblocking[(event.process, event.group)] = queue.popleft()

    def _on_deliver(self, event) -> None:
        message_id = event.message_id
        sent = self._sent_at.get(message_id)
        if sent is not None:
            self.delivery_latencies.append(event.time - sent)
        self._deliveries.setdefault(message_id, []).append((event.process, event.time))

    def _on_view(self, event) -> None:
        members = tuple(event.detail("members", ()))
        process, group = event.process, event.group
        if event.detail("index", 0):
            self.view_installs += 1
        self._views[(process, group)] = members
        if process in members:
            self._groups_of.setdefault(process, set()).add(group)
        for episode in self._open.get(group, ()):
            if episode.target not in members and process not in episode.done:
                episode.done[process] = event.time

    def _start_episode(self, group: str, target: str, time: float) -> None:
        episode = _Episode(group, target, time)
        self._episodes.append(episode)
        self._open.setdefault(group, []).append(episode)

    def _on_crash(self, event) -> None:
        self._crashed.add(event.process)
        for group in sorted(self._groups_of.get(event.process, ())):
            if (event.process, group) not in self._departed:
                self._start_episode(group, event.process, event.time)

    def _on_depart(self, event) -> None:
        self._departed.add((event.process, event.group))
        self._start_episode(event.group, event.process, event.time)

    def _on_kv_apply(self, event) -> None:
        if (
            event.detail("op") == "set"
            and event.detail("outcome") == "applied"
            and event.detail("client") != REBALANCE_CLIENT
            and event.detail("via") == event.process
        ):
            submitted = self._kv_submitted.get(
                (event.detail("client"), event.detail("client_op")), event.time
            )
            self.kv_acks.setdefault(event.detail("shard"), []).append(
                (event.time, submitted)
            )

    # ------------------------------------------------------------------
    # Results (call after the run)
    # ------------------------------------------------------------------
    def survivors(self, group: str) -> List[str]:
        """Processes still in ``group`` at the end: alive, not departed,
        and holding a view that contains themselves."""
        return sorted(
            process
            for (process, view_group), members in self._views.items()
            if view_group == group
            and process in members
            and process not in self._crashed
            and (process, group) not in self._departed
        )

    def view_change_durations(self) -> Tuple[List[float], int]:
        """Durations of the completed episodes, and the incomplete count."""
        durations: List[float] = []
        incomplete = 0
        survivors: Dict[str, List[str]] = {}
        for episode in self._episodes:
            group_survivors = survivors.setdefault(
                episode.group, self.survivors(episode.group)
            )
            waiting = [p for p in group_survivors if p != episode.target]
            if not waiting:
                continue
            if any(p not in episode.done for p in waiting):
                incomplete += 1
                continue
            durations.append(max(episode.done[p] for p in waiting) - episode.start)
        return durations, incomplete

    def multicast_outcomes(self) -> Dict[str, object]:
        """Offered multicasts split into blocked (deferred and never
        transmitted) / undelivered / completed, with the arrival ->
        delivered-at-every-survivor time of each completed one."""
        blocked = undelivered = 0
        completion: List[float] = []
        survivors: Dict[str, List[str]] = {}
        for group, message_id, arrival in self._offered:
            if message_id is None:
                blocked += 1
                continue
            group_survivors = survivors.setdefault(group, self.survivors(group))
            delivered = dict(self._deliveries.get(message_id, ()))
            if not group_survivors or any(p not in delivered for p in group_survivors):
                undelivered += 1
                continue
            completion.append(max(delivered[p] for p in group_survivors) - arrival)
        return {
            "offered": len(self._offered),
            "blocked": blocked,
            "undelivered": undelivered,
            "completion": completion,
        }

    def first_ack_after(self, shard: str, instant: float) -> Optional[float]:
        """First acknowledgement by ``shard`` of a client write submitted at
        or after ``instant`` (``None`` when there is none).  Writes already
        sequenced before ``instant`` do not count: their acks say nothing
        about when the shard could take new writes again."""
        later = [
            acked
            for acked, submitted in self.kv_acks.get(shard, ())
            if submitted >= instant
        ]
        return min(later) if later else None


def mean(values) -> float:
    """Arithmetic mean (0 for an empty sample)."""
    return statistics.fmean(values) if values else 0.0


def median(values) -> float:
    """Median (0 for an empty sample)."""
    return statistics.median(values) if values else 0.0


def pct(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    return percentile(sorted(values), q) if values else 0.0


def tail_mean(values, share: float = 0.10) -> float:
    """Mean of the slowest ``share`` of ``values`` (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return statistics.fmean(ordered[-max(1, round(len(ordered) * share)):])
