"""Event queue and simulated clock.

A classic calendar-based DES core: events are ``[time, seq, callback]``
list entries; ties break by insertion order so runs are deterministic
for a given seed.

The hot path is built around three ideas:

* **Slim heap entries.**  Entries are plain three-element lists, so
  ``heapq`` orders them with C-level list comparison -- no dataclass
  ``__lt__`` dispatch, no attribute chasing.  :class:`Event` is only a
  thin handle wrapped around the entry for callers that need to cancel.
* **O(1) cancellation with compaction.**  ``Event.cancel()`` blanks the
  entry's callback slot in place (lazy deletion).  Dead entries are
  skipped when they surface; when they outnumber live ones the heap is
  compacted, so cancellations cannot accumulate unboundedly.
* **A bucketed near-future event wheel.**  High-rate homogeneous timers
  (poll loops, NIC DMA ticks, link serialization) go through
  :meth:`Simulator.schedule_timer`, which files them into per-quantum
  mini-heap buckets instead of the main heap.  Most such timers land a
  fixed small delay ahead of ``now``, so each bucket stays tiny and the
  wheel replaces ``O(log n)`` heap churn with near-``O(1)`` dict pushes.
  The run loop merges the wheel head and the heap head by ``(time,
  seq)``, so global execution order is exactly what a single heap would
  produce.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Callable, Optional

from ..errors import SimulationError

_INF = float("inf")

#: Callback-slot sentinel marking an entry that already executed, so a
#: late ``cancel()`` on its handle is a no-op instead of a miscount.
_RAN = object()

#: Start compacting only past this many dead entries (tiny heaps are
#: cheaper to scan than to rebuild).
_COMPACT_MIN = 64


class Event:
    """Handle for one scheduled callback.  Ordering is (time, seq).

    The handle wraps the engine's mutable ``[time, seq, callback]`` heap
    entry; :meth:`cancel` invalidates the entry in place (O(1)), leaving
    removal to the engine's lazy-deletion sweep.
    """

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim: "Simulator", entry: list):
        self._sim = sim
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    @property
    def callback(self) -> Optional[Callable[[], None]]:
        slot = self._entry[2]
        return None if slot is None or slot is _RAN else slot

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when dequeued."""
        entry = self._entry
        slot = entry[2]
        if slot is None or slot is _RAN:
            return
        entry[2] = None
        sim = self._sim
        sim._dead += 1
        if sim._dead > _COMPACT_MIN and sim._dead * 2 > len(sim._heap):
            sim._compact()


class PeriodicTask:
    """Handle for a :meth:`Simulator.schedule_every` chain."""

    def __init__(self):
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    ``metrics`` (or the active :mod:`repro.obs` registry, when enabled)
    receives a ``sim_events`` timeline of executed events -- the event-
    rate trajectory bottleneck reports bin everything else against --
    plus an ``engine_wall_seconds`` counter of real time spent inside
    :meth:`run` (the ``wall_clock_s`` BENCH field).  When the registry
    carries a :class:`~repro.obs.profile.SpanProfiler` the engine also
    resets its span stack at each event boundary, so frames pushed by
    one callback can never leak into the next.  All hooks are resolved
    once at construction and :meth:`run` dispatches to a pre-bound loop,
    so an un-instrumented run pays nothing per event for observability.
    """

    def __init__(self, metrics=None):
        from ..obs.metrics import active_registry
        self._heap = []
        self._dead = 0
        # Event wheel: bucket index -> mini-heap of entries, plus a
        # min-heap of live bucket indices.  The quantum is learned from
        # the first positive schedule_timer delay (deterministic).
        self._buckets = {}
        self._bucket_keys = []
        self._quantum = 0.0
        self._seq = itertools.count()
        self.now = 0.0
        self.events_run = 0
        #: Real seconds spent inside :meth:`run` (accumulates).
        self.wall_clock_s = 0.0
        registry = metrics if metrics is not None else active_registry()
        if registry.enabled:
            self._obs_events = registry.timeline("sim_events")
            self._obs_record = self._obs_events.bind()
            self._obs_wall = registry.counter(
                "engine_wall_seconds",
                help="real time spent inside Simulator.run")
            self._profiler = registry.profiler
        else:
            self._obs_events = None
            self._obs_record = None
            self._obs_wall = None
            self._profiler = None

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%r)"
                                  % delay)
        entry = [self.now + delay, next(self._seq), callback]
        heappush(self._heap, entry)
        return Event(self, entry)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule at %r, clock already at %r" % (time, self.now))
        entry = [time, next(self._seq), callback]
        heappush(self._heap, entry)
        return Event(self, entry)

    def schedule_timer(self, delay: float,
                       callback: Callable[[], None]) -> None:
        """Schedule a fire-and-forget callback ``delay`` seconds from now.

        The fast path for high-rate homogeneous timers: the event lands
        in the bucketed near-future wheel instead of the main heap and
        no handle is returned, so it cannot be cancelled.  Execution
        order relative to heap events is still globally (time, seq).
        """
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%r)"
                                  % delay)
        time = self.now + delay
        quantum = self._quantum
        if quantum == 0.0:
            if delay <= 0.0:
                # No timescale known yet: the heap is always correct.
                heappush(self._heap, [time, next(self._seq), callback])
                return
            self._quantum = quantum = delay
        index = int(time / quantum)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [[time, next(self._seq), callback]]
            heappush(self._bucket_keys, index)
        else:
            heappush(bucket, [time, next(self._seq), callback])

    def schedule_timer_at(self, time: float,
                          callback: Callable[[], None]) -> None:
        """Absolute-time variant of :meth:`schedule_timer` (bulk arrival
        injection)."""
        now = self.now
        if time < now:
            raise SimulationError(
                "cannot schedule at %r, clock already at %r" % (time, now))
        quantum = self._quantum
        if quantum == 0.0:
            if time <= now:
                heappush(self._heap, [time, next(self._seq), callback])
                return
            self._quantum = quantum = time - now
        index = int(time / quantum)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [[time, next(self._seq), callback]]
            heappush(self._bucket_keys, index)
        else:
            heappush(bucket, [time, next(self._seq), callback])

    def preschedule_timers(self, times, callback: Callable[[], None]) -> None:
        """Bulk-file fire-and-forget callbacks at ascending absolute times.

        ``TimedForwardingRun`` files its identical arrival events a chunk
        at a time (the first before :meth:`run` starts, each later one
        from the last arrival of the previous chunk), so the loop never
        pays ``schedule_timer`` per arrival.
        ``times`` must be sorted ascending and at/after the current
        clock; each entry gets a fresh sequence number in list order, so
        execution order is exactly what per-event ``schedule_timer``
        calls at those times would have produced.  Appending in
        ascending time order keeps every bucket a valid min-heap without
        a single ``heappush``.
        """
        if not len(times):
            return
        now = self.now
        if times[0] < now:
            raise SimulationError(
                "cannot schedule at %r, clock already at %r"
                % (times[0], now))
        if self._quantum == 0.0:
            if times[0] > now:
                self._quantum = times[0] - now
            elif len(times) > 1 and times[1] > times[0]:
                self._quantum = times[1] - times[0]
            else:
                for time in times:
                    self.schedule_timer_at(time, callback)
                return
        quantum = self._quantum
        seq = self._seq
        buckets = self._buckets
        bucket_keys = self._bucket_keys
        bucket = None
        bucket_index = None
        fresh = False
        new_keys = []
        for time in times:
            index = int(time / quantum)
            if index != bucket_index:
                bucket_index = index
                bucket = buckets.get(index)
                fresh = bucket is None
                if fresh:
                    bucket = buckets[index] = []
                    new_keys.append(index)
            if fresh:
                # Ascending appends into a fresh bucket keep the list
                # sorted, and a sorted list is a valid min-heap.
                bucket.append([time, next(seq), callback])
            else:
                # Pre-existing bucket with arbitrary entries: real push.
                heappush(bucket, [time, next(seq), callback])
        if bucket_keys:
            for index in new_keys:
                heappush(bucket_keys, index)
        else:
            bucket_keys.extend(new_keys)  # ascending: already a heap

    def timer_filer(self) -> Callable[[float, Callable[[], None]], None]:
        """A prebound ``file_at(time, callback)`` closure over the wheel.

        ``TimedForwardingRun`` schedules one successor timer per poll from
        its innermost loop; this closure is :meth:`schedule_timer_at` minus
        per-call attribute chasing and validation.  The caller must pass
        ``time >= now`` (poll delays are always positive).  Falls back to
        the full method while the quantum is still unknown -- the first
        absolute-time call through that path learns it.
        """
        quantum = self._quantum
        if quantum == 0.0:
            return self.schedule_timer_at
        seq = self._seq
        buckets = self._buckets
        keys = self._bucket_keys
        get = buckets.get

        def file_at(time: float, callback: Callable[[], None]) -> None:
            entry = [time, next(seq), callback]
            index = int(time / quantum)
            bucket = get(index)
            if bucket is None:
                buckets[index] = [entry]
                heappush(keys, index)
            else:
                heappush(bucket, entry)
        return file_at

    def schedule_every(self, interval: float, callback: Callable[[], None],
                       until: Optional[float] = None,
                       start_delay: Optional[float] = None) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds (heartbeats, health
        probes).  Rescheduling stops after ``until`` (absolute time) or
        once the returned task's :meth:`~PeriodicTask.cancel` is called.

        Tick ``k`` fires at exactly ``start + k * interval`` -- computed
        from an integer tick index against the task's start time, never
        by repeatedly adding ``interval`` to the current clock, so
        long-horizon periodic timers stay on the grid instead of
        accumulating float rounding drift.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")
        task = PeriodicTask()
        first_delay = interval if start_delay is None else start_delay
        start = self.now + first_delay
        ticks = itertools.count(1)

        def tick():
            if task.cancelled:
                return
            callback()
            next_time = start + next(ticks) * interval
            if until is None or next_time <= until:
                self.schedule_at(next_time, tick)

        self.schedule(first_delay, tick)
        return task

    # -- queue maintenance -------------------------------------------------

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap (amortized O(n))."""
        self._heap = [entry for entry in self._heap if entry[2] is not None]
        heapify(self._heap)
        self._dead = 0

    def _prune_dead_head(self) -> None:
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1

    def _wheel_pop(self):
        """Pop the wheel's earliest entry (caller checked it is wanted)."""
        keys = self._bucket_keys
        bucket = self._buckets[keys[0]]
        entry = heappop(bucket)
        if not bucket:
            del self._buckets[keys[0]]
            heappop(keys)
        return entry

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        self._prune_dead_head()
        heap = self._heap
        if self._bucket_keys:
            wheel_time = self._buckets[self._bucket_keys[0]][0][0]
            if heap and heap[0][0] <= wheel_time:
                return heap[0][0]
            return wheel_time
        return heap[0][0] if heap else None

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Run the next event.  Returns False when no events remain."""
        self._prune_dead_head()
        heap = self._heap
        if self._bucket_keys:
            wheel_entry = self._buckets[self._bucket_keys[0]][0]
            if heap and heap[0] < wheel_entry:
                entry = heappop(heap)
                callback = entry[2]
                entry[2] = _RAN
            else:
                entry = self._wheel_pop()
                callback = entry[2]
        elif heap:
            entry = heappop(heap)
            callback = entry[2]
            entry[2] = _RAN
        else:
            return False
        self._run_event(entry[0], callback)
        return True

    def _run_event(self, time: float, callback: Callable[[], None]) -> None:
        """Execute one event at ``time`` and book it (the un-inlined form
        of what the :meth:`run` loops do per event)."""
        self.now = time
        if self._profiler is not None:
            self._profiler.begin_event()
        callback()
        self.events_run += 1
        if self._obs_record is not None:
            self._obs_record(time)

    def run_as_of(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` now, as the event at past ``time`` it replaces.

        For work that is known only after the clock passed its timestamp
        but that nothing executed in ``(time, now]`` could have observed
        (a partitioned run's late deliveries, see
        :meth:`repro.simnet.partition.Partition.inject`).  The callback
        sees ``sim.now == time``, so whatever it schedules lands relative
        to ``time`` exactly as if it had run on time; it is counted and
        binned as one event at ``time`` (``events_run``, ``sim_events``,
        the profiler's event boundary -- the same booking :meth:`step`
        does); then the clock is restored.  Anything left pending before
        the restored clock means the caller's "nothing could have
        observed it" was wrong, and raises instead of letting the run
        diverge.
        """
        clock = self.now
        if time > clock:
            raise SimulationError(
                "cannot run as of %r, clock only at %r" % (time, clock))
        try:
            self._run_event(time, callback)
        finally:
            self.now = clock
        pending = self.peek_time()
        if pending is not None and pending < clock:
            raise SimulationError(
                "running as of %r left an event pending at %r, before the "
                "clock (%r): the lookahead window is too large"
                % (time, pending, clock))

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the horizon, event budget, or queue exhaustion.

        ``until`` advances the clock to exactly that time even if the
        queue drains -- or the event budget is exhausted -- earlier, so
        rate computations over a fixed window are exact.
        """
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        start = perf_counter()
        try:
            if self._obs_record is not None or self._profiler is not None:
                self._run_instrumented(horizon, budget)
            else:
                self._run_plain(horizon, budget)
        finally:
            elapsed = perf_counter() - start
            self.wall_clock_s += elapsed
            if self._obs_wall is not None:
                self._obs_wall.inc(elapsed)
        if until is not None and self.now < until:
            self.now = until

    def _run_plain(self, horizon: float, budget: float) -> None:
        """Merged heap+wheel loop with every hot name bound to a local."""
        heap = self._heap
        buckets = self._buckets
        keys = self._bucket_keys
        pop = heappop
        executed = 0
        try:
            while executed < budget:
                while heap and heap[0][2] is None:
                    pop(heap)
                    self._dead -= 1
                if keys:
                    bucket = buckets[keys[0]]
                    entry = bucket[0]
                    if heap and heap[0] < entry:
                        entry = heap[0]
                        if entry[0] > horizon:
                            return
                        pop(heap)
                        callback = entry[2]
                        entry[2] = _RAN
                    else:
                        if entry[0] > horizon:
                            return
                        pop(bucket)
                        if not bucket:
                            del buckets[keys[0]]
                            pop(keys)
                        callback = entry[2]
                elif heap:
                    entry = heap[0]
                    if entry[0] > horizon:
                        return
                    pop(heap)
                    callback = entry[2]
                    entry[2] = _RAN
                else:
                    return
                self.now = entry[0]
                callback()
                executed += 1
        finally:
            self.events_run += executed

    def _run_instrumented(self, horizon: float, budget: float) -> None:
        """Same loop with the observability hooks inlined (no per-event
        attribute chasing or closure calls; the ``is None`` checks ran
        once, here).  The span-stack reset and the ``sim_events``
        timeline's bin update are open-coded: both touch stable objects
        (the profiler's stack list, the timeline's bin dict), so binding
        them once is exactly equivalent to calling per event."""
        heap = self._heap
        buckets = self._buckets
        keys = self._bucket_keys
        pop = heappop
        profiler = self._profiler
        # Truthiness doubles as the None check: an empty stack and a
        # missing profiler both skip the clear.
        prof_stack = profiler._stack if profiler is not None else None
        record = self._obs_record
        timeline = self._obs_events
        bin_sec = timeline.bin_sec if timeline is not None else 1.0
        # Bin dict of the unlabeled sim_events series; resolved after the
        # first record() so series creation stays as lazy as before.
        ebins = None
        executed = 0
        try:
            while executed < budget:
                while heap and heap[0][2] is None:
                    pop(heap)
                    self._dead -= 1
                if keys:
                    bucket = buckets[keys[0]]
                    entry = bucket[0]
                    if heap and heap[0] < entry:
                        entry = heap[0]
                        if entry[0] > horizon:
                            return
                        pop(heap)
                        callback = entry[2]
                        entry[2] = _RAN
                    else:
                        if entry[0] > horizon:
                            return
                        pop(bucket)
                        if not bucket:
                            del buckets[keys[0]]
                            pop(keys)
                        callback = entry[2]
                elif heap:
                    entry = heap[0]
                    if entry[0] > horizon:
                        return
                    pop(heap)
                    callback = entry[2]
                    entry[2] = _RAN
                else:
                    return
                now = entry[0]
                self.now = now
                if prof_stack:
                    del prof_stack[:]
                callback()
                executed += 1
                if ebins is not None:
                    index = int(now / bin_sec)
                    cell = ebins.get(index)
                    if cell is None:
                        ebins[index] = [1.0, 1, 1.0]
                    else:
                        cell[0] += 1.0
                        cell[1] += 1
                elif record is not None:
                    record(now)
                    ebins = timeline._series[()].bins
        finally:
            self.events_run += executed
