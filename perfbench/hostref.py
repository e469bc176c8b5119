"""Host-speed reference: a fixed pure-Python slice timed throughout a run.

The benchmark host is shared, and its speed drifts by a third or more
within minutes, which moves every raw wall-clock figure with it.  A
:class:`HostReference` rides a repetition's trace stream and, every
:data:`SAMPLE_EVERY_S` wall seconds, runs and times the *reference
slice*: a small fixed piece of benchmark-owned code (small objects
pushed through a heap and drained into a dict, the same kind of work the
simulator does).  The program and the slice then run under the same host
conditions, so their times move together and the ratio follows the
program's speed, not the host's.  The time spent in slices is taken out
of the run time.

Wall-clock metrics are reported in *reference seconds*: wall seconds
divided by :meth:`HostReference.factor`, the median slice time over
:data:`REFERENCE_SLICE_S`, raised to :data:`ELASTICITY`.

The slice runs with the cyclic garbage collector paused, so it never
pays for a collection of the program's heap.  It must never change:
editing it moves every baseline.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter
from typing import List, Optional

from repro.net.trace import TraceSink

#: Wall seconds between two reference slices within a repetition.
SAMPLE_EVERY_S = 0.1

#: Slice time that defines a reference second.
REFERENCE_SLICE_S = 0.001

#: Objects one slice pushes through its heap.
SLICE_ITEMS = 400

#: How strongly the program's speed follows the slice's.  The slice is a
#: tight loop over a small working set and reacts more to the host's
#: state than the simulator does.  Fitted on a 2-core shared host over 84
#: runs (3 workloads; 8 seeds of 20 s, then two sets of 10 seeds of 40 s):
#: the quartile spread over median of the run medians, per workload and
#: set, was 0.02-0.09 with this exponent, up to 0.16 with exponent 1, and
#: 0.11-0.30 uncorrected.
ELASTICITY = 0.7


class _Item:
    __slots__ = ("key", "value", "links")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0
        self.links = {}


def reference_slice() -> int:
    """The fixed reference work."""
    heap = []
    table = {}
    for index in range(SLICE_ITEMS):
        heapq.heappush(heap, ((index * 7919) % 1009, index, _Item(index)))
    while heap:
        _, index, item = heapq.heappop(heap)
        item.value += index
        other = table.get(index % 97)
        if other is not None:
            item.links[other.key] = other.value
        table[index % 97] = item
    return len(table)


class HostReference(TraceSink):
    """Times a reference slice every :data:`SAMPLE_EVERY_S` wall seconds
    of the run phase (polled on every trace event)."""

    def __init__(self) -> None:
        #: Wall seconds of each slice.
        self.samples: List[float] = []
        #: Wall seconds spent in slices, to be taken out of the run time.
        self.spent = 0.0
        self._due: Optional[float] = None

    def start(self) -> None:
        """Begin sampling (at the end of set-up)."""
        self._due = perf_counter() + SAMPLE_EVERY_S

    def on_event(self, event) -> None:
        if self._due is not None and perf_counter() >= self._due:
            self.sample()

    def sample(self) -> None:
        """Run and time one slice."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_slice()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(end - start)
        self.spent += end - start
        self._due = end + SAMPLE_EVERY_S

    def factor(self) -> float:
        """How much slower than the reference host this host ran the
        program: the median slice time over :data:`REFERENCE_SLICE_S`,
        raised to :data:`ELASTICITY`."""
        if not self.samples:
            self.sample()
        return (statistics.median(self.samples) / REFERENCE_SLICE_S) ** ELASTICITY
