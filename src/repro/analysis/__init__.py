"""Analysis tooling: property checkers, trace queries and overhead models.

* :mod:`repro.analysis.online` -- the runtime verifier: the paper's delivery
  and view guarantees (MD1-MD5', VC1-VC3) checked incrementally while
  events stream through the trace recorder's sink API; every session and
  scenario verdict comes from it, and it scales to 1000-process runs with
  no materialized trace.
* :mod:`repro.analysis.checkers` -- the same guarantees evaluated post hoc
  over a materialized :class:`~repro.net.trace.EventTrace`: the
  independent oracle tests compare the streaming suite against (no run
  derives its verdict from it).
* :mod:`repro.analysis.metrics` -- trace queries for blocking time and
  view-agreement latency (counts and latency percentiles come from the
  run's :class:`~repro.net.trace.MetricsSink`).
* :mod:`repro.analysis.overhead` -- per-message protocol overhead models
  for Newtop and the §6 comparison protocols (ISIS vector clocks, Psync
  context graphs, piggybacking).

Application traffic is generated open-loop by :mod:`repro.workloads`.
"""

from repro.analysis.checkers import (
    CheckResult,
    check_all,
    check_causal_prefix,
    check_same_view_delivery_sets,
    check_sender_in_view,
    check_total_order,
    check_view_sequences,
)
from repro.analysis.online import (
    ALL_CHECKS,
    GroupScopedCheckSuite,
    OnlineCausalOrder,
    OnlineCheckSuite,
    OnlineChecker,
    OnlineSenderInView,
    OnlineTotalOrder,
    OnlineViewAgreement,
    OnlineVirtualSynchrony,
    check_events,
)
from repro.analysis.overhead import (
    isis_overhead_bytes,
    newtop_overhead_bytes,
    piggyback_overhead_bytes,
    psync_overhead_bytes,
)

__all__ = [
    "ALL_CHECKS",
    "CheckResult",
    "GroupScopedCheckSuite",
    "OnlineCausalOrder",
    "OnlineCheckSuite",
    "OnlineChecker",
    "OnlineSenderInView",
    "OnlineTotalOrder",
    "OnlineViewAgreement",
    "OnlineVirtualSynchrony",
    "check_all",
    "check_events",
    "check_causal_prefix",
    "check_same_view_delivery_sets",
    "check_sender_in_view",
    "check_total_order",
    "check_view_sequences",
    "isis_overhead_bytes",
    "newtop_overhead_bytes",
    "piggyback_overhead_bytes",
    "psync_overhead_bytes",
]
