"""Trace queries for the timing quantities the paper argues about.

The paper reports no absolute performance numbers, so the benchmark harness
reports *relative* and *structural* quantities.  Counts and delivery
latency come from the run's rolling
:class:`~repro.net.trace.MetricsSink` snapshot (``SessionResult.metrics``,
percentiles by :func:`repro.stats.percentile`); this module keeps the two
per-event queries no rolling summary answers: how long each deferred send
waited (:func:`blocking_times`) and how long each survivor took from
suspecting a crashed member to excluding it
(:func:`view_agreement_latency`).  Both run over an
:class:`~repro.net.trace.EventTrace` -- e.g. the trace of a
:class:`~repro.net.trace.MemorySink` attached to the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.trace import (
    BLOCKED_SEND,
    EventTrace,
    SUSPECT,
    UNBLOCKED_SEND,
    VIEW_INSTALL,
)


def blocking_times(trace: EventTrace, group: Optional[str] = None) -> List[float]:
    """Durations between a blocked send and its eventual transmission.

    Pairs BLOCKED_SEND and UNBLOCKED_SEND events per (process, group) in
    FIFO order, which matches how the deferred-send queue drains.
    """
    blocked: Dict[tuple, List[float]] = {}
    durations: List[float] = []
    for event in trace:
        key = (event.process, event.group)
        if group is not None and event.group != group:
            continue
        if event.kind == BLOCKED_SEND:
            blocked.setdefault(key, []).append(event.time)
        elif event.kind == UNBLOCKED_SEND:
            queue = blocked.get(key)
            if queue:
                durations.append(event.time - queue.pop(0))
    return durations


def view_agreement_latency(
    trace: EventTrace, group: str, crashed_process: str
) -> Dict[str, float]:
    """Per-process latency from the first suspicion of ``crashed_process``
    to the installation of a view excluding it."""
    result: Dict[str, float] = {}
    for process in trace.processes():
        suspect_time: Optional[float] = None
        for event in trace.events(kind=SUSPECT, process=process, group=group):
            if event.detail("target") == crashed_process:
                suspect_time = event.time
                break
        if suspect_time is None:
            continue
        for event in trace.events(kind=VIEW_INSTALL, process=process, group=group):
            members = event.detail("members", ())
            if crashed_process not in members and event.time >= suspect_time:
                result[process] = event.time - suspect_time
                break
    return result
