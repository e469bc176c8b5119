"""Discrete-event simulation kernel.

The Newtop paper assumes an *asynchronous* system: message transmission
times cannot be accurately estimated and processes have no synchronised
clocks.  A discrete-event simulator reproduces this faithfully while being
deterministic and seedable, which is what the test-suite and the benchmark
harness need.  Simulated time is a ``float`` in arbitrary "time units";
the protocol never reads it for correctness decisions (only timers such as
the time-silence period ``omega`` and the suspicion timeout ``Omega`` are
expressed in it, exactly as the paper's timeouts are).

The kernel is intentionally small but built for throughput:

* :class:`Simulator` owns the virtual clock, the pending-event stores and a
  seeded :class:`random.Random` instance.
* :meth:`Simulator.schedule` registers a callback after a delay and returns
  an :class:`EventHandle` that can be cancelled.  Sparse one-shot events
  (message deliveries, scenario events) live on a binary heap; cancellation
  there is lazy (the heap entry is only marked dead), but the heap is
  *compacted* whenever the dead fraction crosses
  :attr:`Simulator.compaction_threshold`.
* High-churn periodic timers -- the protocol's per-(process, group)
  suspector probes and time-silence nulls, thousands of them per tick at
  10k-process scale -- opt into the :class:`_TimerWheel` with
  ``schedule(..., wheel=True)``: a slot-bucketed store where insertion is
  an O(1) append, cancellation is an O(1) mark (the record leaves memory
  when its slot's instant passes -- no tombstone ever reaches the heap, so
  timer churn can no longer trigger heap compactions at all), and slots
  are sorted only when their time arrives.  Heap and wheel merge by the
  global ``(time, sequence)`` key at execution, so the firing order is
  *byte-identical* to an all-heap run.  There is no switch to turn the
  wheel off: the all-heap reference is the same :class:`Simulator` with
  every event scheduled ``wheel=False``.
* Dead event records are recycled through a bounded free list; at high
  event rates this keeps allocation pressure flat.  A per-record
  *generation* counter makes recycled records safe: a stale
  :class:`EventHandle` whose event already fired (or was compacted away)
  can never cancel the record's next occupant.
* :meth:`Simulator.run` / :meth:`Simulator.run_until` drive the simulation.

Everything above the kernel (network, transport, protocol processes) is
built from these primitives.
"""

from __future__ import annotations

import heapq
import math
import random
from operator import attrgetter
from time import perf_counter
from typing import Any, Callable, List, Optional


class SimulatorError(RuntimeError):
    """Raised when the simulation kernel is used incorrectly."""


class _ScheduledEvent:
    """Internal event record.

    Fired in ``(time, sequence)`` order so that events scheduled for the
    same instant fire in the order they were scheduled (stable,
    deterministic).  Plain ``__slots__`` class (not a dataclass): these
    records are the hottest allocation in the whole simulator and are
    recycled via the kernel's free list, with ``generation`` guarding stale
    handles.
    """

    __slots__ = (
        "time", "sequence", "callback", "args", "cancelled", "label",
        "generation", "in_wheel",
    )

    def __init__(self) -> None:
        self.time = 0.0
        self.sequence = 0
        self.callback: Optional[Callable[..., None]] = None
        self.args: tuple = ()
        self.cancelled = False
        self.label = ""
        self.generation = 0
        #: Whether the record currently lives in the timer wheel rather
        #: than the heap (drives the O(1) cancellation path).
        self.in_wheel = False


#: Sort key of an event record: the global firing order.
_firing_order = attrgetter("time", "sequence")


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`, usable to cancel.

    The handle pins down the exact (event record, generation) pair it was
    created for; once the event has fired -- and its record possibly been
    recycled for a later event -- the handle becomes inert.
    """

    __slots__ = ("_sim", "_event", "_generation", "_time", "_label", "_cancelled")

    def __init__(self, sim: "Simulator", event: _ScheduledEvent) -> None:
        self._sim = sim
        self._event = event
        self._generation = event.generation
        self._time = event.time
        self._label = event.label
        self._cancelled = False

    @property
    def time(self) -> float:
        """Simulated time at which the event will (or would) fire."""
        return self._time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this handle."""
        return self._cancelled

    @property
    def label(self) -> str:
        """Optional human-readable label given at scheduling time."""
        return self._label

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent).

        Cancelling drops the callback and argument references immediately:
        a cancelled long-dated timer must not keep its closure (and
        whatever object graph it captures) alive until the original fire
        time rolls around.
        """
        if self._cancelled:
            return
        self._cancelled = True
        self._sim._cancel_event(self._event, self._generation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(time={self.time!r}, label={self.label!r}, {state})"


class _TimerWheel:
    """Slot-bucketed event store for high-churn periodic timers.

    Events are filed under their absolute slot index ``floor(time / width)``
    in plain per-slot lists: insertion appends (O(1)), cancellation marks
    the record dead (O(1) -- the slot is dropped wholesale when its instant
    passes, so cancelled records never accumulate the way lazy heap
    tombstones do).  A small heap of *slot indices* (one entry per open
    slot, never per event) finds the next non-empty slot; a slot's events
    are sorted by the global ``(time, sequence)`` key only when the wheel
    reaches it, which preserves exactly the order an all-heap simulator
    would fire them in.

    The wheel is "hierarchical" in the lazy sense: far-future slots stay
    unsorted dict entries at full width regardless of horizon, so there is
    no cascade step and no horizon limit -- the cost of ordering an event
    is paid once, in the slot-local sort amortised over the slot's
    occupants.
    """

    __slots__ = (
        "slot_width", "_slots", "_slot_heap", "_current", "_current_pos",
        "_current_index", "count", "live", "_recycle",
    )

    def __init__(self, slot_width: float, recycle: Callable[["_ScheduledEvent"], None]) -> None:
        if slot_width <= 0:
            raise SimulatorError("wheel slot width must be positive")
        self.slot_width = slot_width
        self._slots: dict[int, List[_ScheduledEvent]] = {}
        self._slot_heap: List[int] = []
        #: Sorted events of the slot currently being served.
        self._current: List[_ScheduledEvent] = []
        self._current_pos = 0
        #: Index of the slot currently being served (inserts at or before
        #: it must go to the main heap -- the sorted run is never reopened).
        self._current_index: Optional[int] = None
        self.count = 0
        self.live = 0
        self._recycle = recycle

    def slot_for(self, time: float) -> int:
        """Absolute slot index an event at ``time`` files under."""
        return int(time / self.slot_width)

    def accepts(self, slot_index: int) -> bool:
        """Whether an event in ``slot_index`` may still enter the wheel.

        Once a slot has been sorted and is being served, late arrivals for
        it (zero-delay reschedules inside the same slot) fall back to the
        heap; the merged pop order keeps them exactly placed.
        """
        return self._current_index is None or slot_index > self._current_index

    def insert(self, event: _ScheduledEvent, slot_index: int) -> None:
        bucket = self._slots.get(slot_index)
        if bucket is None:
            self._slots[slot_index] = bucket = []
            heapq.heappush(self._slot_heap, slot_index)
        bucket.append(event)
        event.in_wheel = True
        self.count += 1
        self.live += 1

    def on_cancelled(self) -> None:
        """Bookkeeping for an O(1) in-wheel cancellation."""
        self.live -= 1

    def peek(self) -> Optional[_ScheduledEvent]:
        """The next live wheel event, advancing slots as needed."""
        while True:
            current = self._current
            position = self._current_pos
            while position < len(current):
                event = current[position]
                if event.cancelled:
                    position += 1
                    self.count -= 1
                    self._recycle(event)
                    continue
                self._current_pos = position
                return event
            self._current_pos = position
            if not self._slot_heap:
                if current:
                    self._current = []
                    self._current_pos = 0
                return None
            index = heapq.heappop(self._slot_heap)
            bucket = self._slots.pop(index)
            self._current_index = index
            live = []
            for event in bucket:
                if event.cancelled:
                    self.count -= 1
                    self._recycle(event)
                else:
                    live.append(event)
            live.sort(key=_firing_order)
            self._current = live
            self._current_pos = 0

    def pop(self) -> _ScheduledEvent:
        """Remove and return the event :meth:`peek` just found."""
        event = self._current[self._current_pos]
        self._current_pos += 1
        self.count -= 1
        self.live -= 1
        return event


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  All
        randomness in a simulation (latency sampling, workload generation)
        should be drawn from :attr:`rng` so runs are reproducible.
    wheel_slot_width:
        Bucket granularity of the timer wheel, in simulated time units.
        Periodic protocol timers (suspector checks at 0.5-1.0, time-silence
        at omega ~1.5-2.0) land a handful of slots ahead, keeping per-slot
        sorts small.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry` (duck-typed --
        the kernel never imports :mod:`repro.obs`).  When given, the kernel
        counts events scheduled / fired / cancelled and registers polled
        occupancy gauges for the heap and the wheel.  When ``None`` (the
        default) the hot paths pay one ``is None`` check per event.
    profiler:
        Optional :class:`repro.obs.profiler.HotPathProfiler`.  When given,
        :meth:`step` wall-clocks every callback and files it under the
        category derived from its scheduling label.
    journeys:
        Optional :class:`repro.obs.journey.JourneyTracker` (duck-typed, like
        ``metrics``).  The kernel itself never calls it; it rides here so
        the network/transport/protocol layers can read ``sim.journeys`` at
        their own construction time.
    """

    #: Compact the heap once more than this fraction of it is cancelled
    #: entries (and the heap is at least ``_MIN_COMPACTION_SIZE`` long).
    compaction_threshold: float = 0.5
    _MIN_COMPACTION_SIZE = 64
    _FREE_LIST_LIMIT = 4096
    #: Relative tolerance for clamping epsilon-negative delays: absolute
    #: scheduling (``schedule_at``) computes ``t - now``, and float rounding
    #: can turn an intended zero into e.g. ``-1e-16`` mid-run.  Kept within
    #: a few thousand ulps of double precision so genuinely past-scheduled
    #: events (real timer-arithmetic bugs) still raise instead of being
    #: silently clamped.
    _NEGATIVE_DELAY_EPSILON = 1e-12

    def __init__(
        self,
        seed: int = 0,
        wheel_slot_width: float = 0.5,
        metrics=None,
        profiler=None,
        journeys=None,
    ) -> None:
        self._now: float = 0.0
        #: ``(time, sequence, record)`` entries.
        self._heap: List[tuple] = []
        self._next_sequence = 0
        self._events_processed = 0
        self._running = False
        self._cancelled_in_heap = 0
        self._free: list[_ScheduledEvent] = []
        self.compactions = 0
        self.rng = random.Random(seed)
        self.seed = seed
        self._wheel = _TimerWheel(wheel_slot_width, self._recycle)
        #: Observation hooks (see the class docstring); downstream layers
        #: (network, transport, protocol) read ``sim.metrics`` at their own
        #: construction time, so the registry rides the object everything
        #: already holds.
        self.metrics = metrics
        self.profiler = profiler
        self.journeys = journeys
        if metrics is not None:
            self._c_scheduled = metrics.counter("sim.events_scheduled")
            self._c_fired = metrics.counter("sim.events_fired")
            self._c_cancelled = metrics.counter("sim.events_cancelled")
            metrics.gauge("sim.heap_pending", lambda: len(self._heap))
            metrics.gauge(
                "sim.heap_live", lambda: len(self._heap) - self._cancelled_in_heap
            )
            metrics.gauge("sim.wheel_pending", lambda: self._wheel.count)
            metrics.gauge("sim.wheel_live", lambda: self._wheel.live)
        else:
            self._c_scheduled = None
            self._c_fired = None
            self._c_cancelled = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (monitoring / debugging)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently queued (including cancelled ones)."""
        return len(self._heap) + self._wheel.count

    @property
    def live_pending_events(self) -> int:
        """Number of queued events that have not been cancelled."""
        return len(self._heap) - self._cancelled_in_heap + self._wheel.live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
        wheel: bool = False,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        ``delay`` must be non-negative; a zero delay schedules the callback
        for the current instant but *after* the currently executing event
        completes (run-to-completion semantics, like an event loop).
        Epsilon-negative delays produced by float rounding of absolute
        times are clamped to zero rather than rejected.

        ``wheel=True`` marks the event as a high-churn periodic timer that
        should live in the timer wheel (O(1) cancellation, no heap
        tombstones).  It is purely a placement hint: firing order is the
        global ``(time, sequence)`` order regardless of store.
        """
        if delay < 0:
            if delay >= -self._NEGATIVE_DELAY_EPSILON * max(1.0, abs(self._now)):
                delay = 0.0
            else:
                raise SimulatorError(
                    f"cannot schedule an event in the past (delay={delay})"
                )
        if self._c_scheduled is not None:
            self._c_scheduled.value += 1
        free = self._free
        event = free.pop() if free else _ScheduledEvent()
        event.time = time = self._now + delay
        event.sequence = sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event.callback = callback
        event.args = args
        event.label = label
        if wheel:
            timer_wheel = self._wheel
            slot_index = timer_wheel.slot_for(time)
            if timer_wheel.accepts(slot_index):
                timer_wheel.insert(event, slot_index)
                return EventHandle(self, event)
        heapq.heappush(self._heap, (time, sequence, event))
        return EventHandle(self, event)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        return self.schedule(time - self._now, callback, *args, label=label)

    def call_soon(self, callback: Callable[..., None], *args: Any, label: str = "") -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant."""
        return self.schedule(0.0, callback, *args, label=label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        was empty (only cancelled events or nothing at all).
        """
        event = self._pop_due(math.inf)
        if event is None:
            return False
        self._fire(event)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached or
        ``max_events`` events have been executed.

        ``until`` is an absolute simulated time; events scheduled at exactly
        ``until`` are executed.  When the run stops because of ``until`` the
        clock is advanced to ``until`` so subsequent relative scheduling
        behaves intuitively.
        """
        if self._running:
            raise SimulatorError("Simulator.run is not re-entrant")
        self._running = True
        deadline = math.inf if until is None else until
        pop_due = self._pop_due
        fire = self._fire
        executed = 0
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    return
                event = pop_due(deadline)
                if event is None:
                    break
                fire(event)
                executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int = 10_000_000,
    ) -> bool:
        """Run until ``predicate()`` becomes true or ``timeout`` time passes.

        Returns ``True`` if the predicate became true, ``False`` on timeout
        or queue exhaustion.  The predicate is evaluated after every event.
        """
        deadline = self._now + timeout
        executed = 0
        if predicate():
            return True
        while executed < max_events:
            event = self._pop_due(deadline)
            if event is None:
                break
            self._fire(event)
            executed += 1
            if predicate():
                return True
        return predicate()

    def _pop_due(self, deadline: float) -> Optional[_ScheduledEvent]:
        """Remove and return the next live event if it is due at or before
        ``deadline``; ``None`` (nothing removed) otherwise.

        The heap and the timer wheel are merged here by the global
        ``(time, sequence)`` key, so the firing order is independent of
        which store an event was placed in.  Cancelled entries at the top
        of the heap are discarded on the way.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            self._cancelled_in_heap -= 1
            self._recycle(heapq.heappop(heap)[2])
        timer_wheel = self._wheel
        wheel_event = timer_wheel.peek()
        if heap:
            time, sequence, event = heap[0]
            if (
                wheel_event is None
                or time < wheel_event.time
                or (time == wheel_event.time and sequence < wheel_event.sequence)
            ):
                if time > deadline:
                    return None
                heapq.heappop(heap)
                return event
        if wheel_event is None or wheel_event.time > deadline:
            return None
        return timer_wheel.pop()

    def _fire(self, event: _ScheduledEvent) -> None:
        """Advance the clock to ``event`` and run its callback."""
        if event.time < self._now:
            raise SimulatorError("event queue corrupted: time went backwards")
        callback = event.callback
        args = event.args
        self._now = event.time
        self._events_processed += 1
        if self._c_fired is not None:
            self._c_fired.value += 1
        profiler = self.profiler
        if profiler is not None:
            # The label must be captured before recycling clears it.
            label = event.label
            self._recycle(event)
            start = perf_counter()
            callback(*args)
            profiler.record_event(label, perf_counter() - start)
            return
        # Recycle before invoking: the callback frequently schedules new
        # events, which can then reuse this record immediately.
        self._recycle(event)
        callback(*args)

    # ------------------------------------------------------------------
    # Event-record lifecycle (free list + lazy-deletion compaction)
    # ------------------------------------------------------------------
    def _recycle(self, event: _ScheduledEvent) -> None:
        """Retire an event record that left the heap.

        Bumping the generation invalidates every outstanding handle; clearing
        the callback/args drops whatever the closure kept alive.
        """
        event.generation += 1
        event.callback = None
        event.args = ()
        event.label = ""
        event.cancelled = False
        event.in_wheel = False
        if len(self._free) < self._FREE_LIST_LIMIT:
            self._free.append(event)

    def _cancel_event(self, event: _ScheduledEvent, generation: int) -> None:
        """Cancel the queued occurrence a handle refers to (if still queued)."""
        if event.generation != generation or event.cancelled:
            return
        event.cancelled = True
        if self._c_cancelled is not None:
            self._c_cancelled.value += 1
        # Release the references right away; the record itself stays in its
        # store until its turn comes (heap: lazy deletion with compaction;
        # wheel: dropped when its slot's instant passes -- O(1), no
        # compaction pressure).
        event.callback = None
        event.args = ()
        if event.in_wheel:
            self._wheel.on_cancelled()
            return
        self._cancelled_in_heap += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        heap_size = len(self._heap)
        if heap_size < self._MIN_COMPACTION_SIZE:
            return
        if self._cancelled_in_heap <= heap_size * self.compaction_threshold:
            return
        live = []
        for entry in self._heap:
            if entry[2].cancelled:
                self._recycle(entry[2])
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._cancelled_in_heap = 0
        self.compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending_events}, "
            f"live={self.live_pending_events}, processed={self._events_processed})"
        )
