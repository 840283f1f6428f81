"""Event queue and simulated clock.

A binary-heap DES core.  An event is a ``(time, seq, callback)`` tuple;
``seq`` comes from one global counter, so ties break by filing order and
runs are deterministic for a given seed.

The queue is one ``heapq`` list of those tuples.  Tuples compare at C
level, element by element, and no two entries share a ``seq``, so the
heap pops by ``(time, seq)`` and never looks at a callback.  Every event
is fire-and-forget: nothing is withdrawn once filed, as in the paper's
polling servers, where a core files its next poll and never takes it
back.  Arrivals stream in a chunk at a time
(:meth:`Simulator.schedule_stream`), so the heap holds what is in
flight, not the horizon.
"""

from __future__ import annotations

import gc
import itertools
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Optional

from ..errors import SimulationError

_INF = float("inf")


def _past(time: float, now: float) -> SimulationError:
    return SimulationError("cannot schedule at %r, clock at %r" % (time, now))


#: Sequence numbers a stream reserves when armed: more than a run pulls.
_STREAM_SEQS = 1 << 40


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    ``metrics`` (or the active :mod:`repro.obs` registry, when enabled)
    receives a ``sim_events`` timeline of executed events -- the event-
    rate trajectory bottleneck reports bin everything else against.
    :meth:`run` counts a bin's events in a local and books the count
    once, when the clock leaves the bin or the loop ends, so an observed
    event costs no call for the timeline.  When the registry carries a
    :class:`~repro.obs.profile.SpanProfiler` the engine also resets its
    span stack at each event boundary, so frames pushed by one callback
    can never leak into the next.  The hooks are resolved once at
    construction; the one event loop in :meth:`run` reads them into
    locals, so an unobserved run pays one ``is None`` check per event
    for observability.

    Events are filed by :meth:`schedule_timer` / :meth:`schedule_timer_at`
    (one at a time), :meth:`schedule_stream` (a chunked stream) or a
    :meth:`timer_filer` closure (the server poll loop); all four draw
    from one sequence counter, and none returns a handle.  Every front
    but :meth:`timer_filer` checks each time it files: anything but
    ``now <= time < inf`` raises.
    """

    #: Observability hooks; set per instance only under an enabled registry.
    _obs_count = _obs_bin_sec = _profiler = None

    def __init__(self, metrics=None):
        from ..obs.metrics import active_registry
        self._queue = []    # heap of (time, seq, callback)
        self._seq = itertools.count()
        self.now = 0.0
        self.events_run = 0
        registry = metrics if metrics is not None else active_registry()
        if registry.enabled:
            timeline = registry.timeline("sim_events")
            self._obs_count = timeline.bind_count()
            self._obs_bin_sec = timeline.bin_sec
            self._profiler = registry.profiler

    # -- scheduling --------------------------------------------------------

    def schedule_timer(self, delay: float,
                       callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        now = self.now
        time = now + delay
        if not now <= time < _INF:
            raise _past(time, now)
        heappush(self._queue, (time, next(self._seq), callback))

    def schedule_timer_at(self, time: float,
                          callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if not self.now <= time < _INF:
            raise _past(time, self.now)
        heappush(self._queue, (time, next(self._seq), callback))

    def schedule_stream(self, chunks) -> None:
        """File a stream of ``(time, callback)`` timers a chunk at a time.

        ``chunks`` iterates over chunks, each any iterable of entries
        (``zip(times, repeat(callback))`` for homogeneous arrivals).  The
        first is filed now, as :meth:`schedule_timer_at` would file each
        entry; the one filed last in a chunk, when it runs, runs its
        callback and then files the next chunk -- no event is added, the
        queue is never empty while chunks remain, and it holds one chunk
        of the stream at a time.  Times may come in any order within a
        chunk but must not step back from one chunk to the next (a chunk
        that starts behind the clock raises).  An empty chunk ends the
        stream.  Producing a chunk must not itself schedule anything.

        The stream's sequence numbers are reserved here as one block, so
        every ``(time, seq)`` tie orders as if it had all been filed now:
        after what was filed before, in stream order, before anything
        filed later (take a :meth:`timer_filer` after this, not before).
        """
        first = next(self._seq)
        self._seq = itertools.count(first + _STREAM_SEQS)
        seqs = itertools.count(first)
        chunks = iter(chunks)
        queue = self._queue

        def file_next(callback=None):
            if callback is not None:
                callback()
            # Each entry is filed once the next one is read, so the last
            # is known -- and wrapped -- before it is filed.  Nothing
            # runs in between, so checking a time as it is read is
            # checking it as it is filed.
            now = self.now
            last = None
            for time, timer in next(chunks, ()):
                if not now <= time < _INF:
                    raise _past(time, now)
                if last is not None:
                    heappush(queue, last)
                last = (time, next(seqs), timer)
            if last is not None:
                time, seq, timer = last
                heappush(queue, (time, seq, partial(file_next, timer)))

        file_next()

    def timer_filer(self) -> Callable[[float, Callable[[], None]], None]:
        """A prebound ``file_at(time, callback)`` closure over the queue.

        ``TimedForwardingRun`` schedules one successor timer per poll from
        its innermost loop; this closure is :meth:`schedule_timer_at` minus
        per-call attribute chasing and validation.  The caller must pass
        a finite ``time >= now`` (poll delays are always positive).
        """
        queue = self._queue
        seq = self._seq

        def file_at(time: float, callback: Callable[[], None]) -> None:
            heappush(queue, (time, next(seq), callback))
        return file_at

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next event, or None if the queue is empty."""
        queue = self._queue
        return queue[0][0] if queue else None

    # -- execution ---------------------------------------------------------

    def run_as_of(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` now, as the event at past ``time`` it replaces.

        For work that is known only after the clock passed its timestamp
        but that nothing executed in ``(time, now]`` could have observed
        (a partitioned run's late deliveries, see
        :meth:`repro.simnet.partition.Partition.inject`).  The callback
        sees ``sim.now == time``, so whatever it schedules lands relative
        to ``time`` exactly as if it had run on time; it is counted and
        binned as one event at ``time`` (``events_run``, ``sim_events``,
        the profiler's event boundary -- the same booking :meth:`run`
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
            self.now = time
            if self._profiler is not None:
                self._profiler.begin_event()
            callback()
            self.events_run += 1
            if self._obs_count is not None:
                self._obs_count(int(time / self._obs_bin_sec), 1)
        finally:
            self.now = clock
        pending = self.peek_time()
        if pending is not None and pending < clock:
            raise SimulationError(
                "running as of %r left an event pending at %r, before the "
                "clock (%r): the lookahead window is too large"
                % (time, pending, clock))

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the horizon or queue exhaustion.

        ``until`` advances the clock to exactly that time even if the
        queue drains earlier, so rate computations over a fixed window
        are exact.

        The cyclic garbage collector is paused while the loop runs and
        left as the caller had it on return, raise or not: every packet
        and queue entry is a container, so each collection walks the
        whole run's live objects for garbage the run does not make (what
        is left when a run ends does not grow with its horizon).
        """
        horizon = _INF if until is None else until
        queue = self._queue
        pop = heappop
        # The hooks, as locals: the bound ``sim_events`` bin counter and
        # the profiler's span stack (cleared at each event boundary; it
        # is a stable list, so binding it once equals calling
        # ``begin_event`` per event).  Both exist only under an enabled
        # registry, so an unobserved run pays one ``is None`` check per
        # event for them.  An observed event adds one to ``binned``, the
        # count of bin ``index``; the count is booked when an event
        # lands in another bin and when the loop ends, as many one-event
        # records in that bin would have booked it.
        count = self._obs_count
        bin_sec = self._obs_bin_sec
        profiler = self._profiler
        prof_stack = profiler._stack if profiler is not None else None
        index = binned = executed = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            while queue:
                if queue[0][0] > horizon:
                    break
                now, _, callback = pop(queue)
                self.now = now
                if count is None:
                    callback()
                else:
                    if prof_stack:
                        del prof_stack[:]
                    callback()
                    if int(now / bin_sec) != index:
                        if binned:
                            count(index, binned)
                        index = int(now / bin_sec)
                        binned = 0
                    binned += 1
                executed += 1
        finally:
            self.events_run += executed
            if binned:
                count(index, binned)
            if collecting:
                gc.enable()
        if until is not None and self.now < until:
            self.now = until
