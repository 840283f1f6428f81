"""The one epoch loop behind every packet-level cluster run.

:func:`run_partitions` builds ``workers`` partitions of a
:class:`~repro.core.router.RouteBricksRouter` cluster and runs them in
lock-stepped epochs under conservative lookahead; ``router.simulate`` is
its one-partition case, :func:`simulate_parallel` its entry point for
several.  An epoch starts at ``m``, the later of the clock and the
earliest thing pending anywhere (a queued event, an undelivered parcel,
the next observer tick), and ends at ``min(m + W, next tick, horizon)``.
``W`` is the minimum cross-link propagation delay plus the minimum
receive-side server latency: a cross-partition send committed in the
epoch may deliver inside it, but nothing another event can observe
happens until after it.  One partition has no cross-link, so its ``W``
is unbounded: it runs tick to tick, then to the horizon (or, open-ended,
until drained).  At the barrier each partition hands over its transit
records packed as one opaque parcel per destination partition; the
parent routes parcels by their headers, and the destination applies
records behind its clock as of their timestamp
(``Simulator.run_as_of``, which raises if ``W`` was too large).

Observation lives at the barrier, the one point where "is anything
pending anywhere" is known: the tick rule is
:func:`repro.obs.hooks.next_tick`, and partition 0 books each sample as
the tick event a single heap would have run
(:meth:`~repro.core.partition.ClusterPartition.sample_barrier`).

Two backends share this loop and the parcel path: ``"inline"`` runs
every partition in the parent process, ``"process"`` gives each
partition a dedicated worker process that keeps its simulation state
alive between epochs; one partition always runs inline.  Results merge
in partition-id order either way.
"""

from __future__ import annotations

from time import perf_counter, process_time
from typing import List, Optional

from ..core.partition import (
    ClusterPartition,
    PartitionFragment,
    PartitionSpec,
    checked_horizon,
    checked_inputs,
    empty_registry_like,
    merge_fragments,
    range_checked,
)
from ..core.router import RouteBricksRouter, SimulationReport
from ..core.topology import balanced_partitions
from ..errors import ConfigurationError, SimulationError
from ..net.packet import packet_id_floor
from ..obs.hooks import next_tick, observer_interval
from ..obs.metrics import active_registry

BACKENDS = ("inline", "process")

#: An open-ended run's horizon, and one partition's lookahead window.
_UNBOUNDED = float("inf")


def ProcessPoolExecutor(max_workers: int):
    """``concurrent.futures.ProcessPoolExecutor``, imported on first use:
    the process machinery costs ~20 ms and ~1 MiB to import, which a
    one-partition run (every ``simulate``) never needs."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _split_arrivals(arrivals, assignment: List[int]):
    """A caller's events, split by the partition owning each ingress
    node; the live packets ride the spec through ``Packet.__reduce__``.
    (A workload is not split: every partition replays it for itself.)"""
    shares: List[List[tuple]] = [[] for _ in range(max(assignment) + 1)]
    for event in arrivals:
        shares[assignment[event[1]]].append(event)
    return shares


# -- worker-process protocol --------------------------------------------------
#
# Each partition gets its own single-process pool; the partition object
# lives in that process's module global between epoch calls.  Everything
# crossing the boundary (spec, parcels, fragments) is picklable.

_WORKER: Optional[ClusterPartition] = None


def _advance(part: ClusterPartition, until: Optional[float], parcels,
             sample: bool):
    """One partition's epoch: take delivery, run to the barrier (``None``:
    until drained), report (parcels by destination partition, next
    pending time, CPU seconds spent on delivery and advancing, clock)."""
    start = process_time()
    part.inject(parcels)
    outgoing = part.advance(until)
    busy = process_time() - start
    if sample:
        part.sample_barrier()
    return outgoing, part.peek_time(), busy, part.sim.now


def _build(spec: PartitionSpec):
    """Build one partition and report its initial state: (next pending
    time, lookahead, CPU seconds the build took).  A replayed workload's
    arrivals are realized as the epochs reach them, on the busy ledger."""
    start = process_time()
    part = ClusterPartition(spec)
    return part, (part.peek_time(), part.lookahead_sec,
                  process_time() - start)


def _worker_init(spec: PartitionSpec):
    global _WORKER
    _WORKER, state = _build(spec)
    return state


def _worker_advance(*epoch):
    return _advance(_WORKER, *epoch)


def _worker_finish() -> PartitionFragment:
    return _WORKER.finish()


class _InlineBackend:
    """All partitions in the parent process (debugging, determinism
    tests, and ``workers`` > cores)."""

    def __init__(self, specs: List[PartitionSpec]):
        self.specs = specs

    def init_state(self):
        self.partitions, state = zip(*(_build(spec) for spec in self.specs))
        return state

    def advance_all(self, until, inboxes, sample):
        return [_advance(part, until, inboxes[pid], sample)
                for pid, part in enumerate(self.partitions)]

    def finish(self) -> List[PartitionFragment]:
        return [part.finish() for part in self.partitions]

    def close(self):
        pass


class _ProcessBackend:
    """One dedicated worker process per partition.

    A single-worker pool per partition pins the partition's simulation
    state to one process across epochs; submissions to different pools
    run concurrently, which is where the wall-clock speedup comes from
    on a multi-core host.
    """

    def __init__(self, specs: List[PartitionSpec]):
        self.pools = [ProcessPoolExecutor(max_workers=1) for _ in specs]
        self.specs = specs

    def _on_all(self, fn, args_of):
        """``fn(*args_of(pid))`` on every partition's worker at once;
        results in partition order.  A worker that died (killed, out of
        memory) took its partition's state with it, so the run cannot
        continue: report which one instead of a bare pool error."""
        from concurrent.futures.process import BrokenProcessPool

        pid = 0
        try:
            futures = []
            for pid, pool in enumerate(self.pools):
                futures.append(pool.submit(fn, *args_of(pid)))
            results = []
            for pid, future in enumerate(futures):
                results.append(future.result())
            return results
        except BrokenProcessPool as error:
            raise SimulationError(
                "the worker process of partition %d died; its simulation "
                "state is lost and the run cannot continue" % pid) from error

    def init_state(self):
        return self._on_all(_worker_init, lambda pid: (self.specs[pid],))

    def advance_all(self, until, inboxes, sample):
        return self._on_all(
            _worker_advance, lambda pid: (until, inboxes[pid], sample))

    def finish(self) -> List[PartitionFragment]:
        return self._on_all(_worker_finish, lambda pid: ())

    def close(self):
        # cancel_futures: after a failure nothing queued behind it is
        # wanted, and a surviving worker must not hold the exit for it.
        for pool in self.pools:
            pool.shutdown(cancel_futures=True)


def simulate_parallel(router: RouteBricksRouter,
                      events,
                      until: float,
                      workers: int = 1,
                      backend: str = "process",
                      rate_limited_egress: bool = False,
                      faults=None,
                      manager=None,
                      detection_latency_sec: Optional[float] = None,
                      fib_push_latency_sec: float = 0.0,
                      metrics=None) -> SimulationReport:
    """Run :meth:`RouteBricksRouter.simulate`'s workload sharded across
    ``workers`` contiguous balanced node ranges.

    Both are :func:`run_partitions`, so ``workers=1`` is ``simulate``
    whatever the ``backend``.  Features that need one partition owning
    every node -- a control-plane ``manager``, ``router.resequence`` --
    are refused by :class:`~repro.core.partition.PartitionSpec`, and the
    horizon must be finite.  Fault-free runs merge to bit-identical
    reports and metric snapshots at any worker count
    (``tests/test_parallel.py``).
    """
    checked_horizon(until)
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if backend not in BACKENDS:
        raise ConfigurationError(
            "unknown backend %r (choose from %s)" % (backend,
                                                     ", ".join(BACKENDS)))
    return run_partitions(
        router, events, until, workers, backend, metrics,
        rate_limited_egress=rate_limited_egress, faults=faults,
        manager=manager, detection_latency_sec=detection_latency_sec,
        fib_push_latency_sec=fib_push_latency_sec)


def run_partitions(router: RouteBricksRouter, events,
                   until: Optional[float], workers: int = 1,
                   backend: str = "inline", metrics=None, faults=None,
                   route_via_fib: bool = False,
                   **spec_fields) -> SimulationReport:
    """Run ``events`` through ``workers`` partitions to ``until`` (one
    partition may run open-ended, ``None``) and merge one report.

    ``spec_fields`` are the other :class:`~repro.core.partition
    .PartitionSpec` options.  A replayed ``WorkloadSpec`` is realized by
    each partition for its own ingress nodes; a caller's event list is
    split by owner.  One partition charges the caller's registry and its
    report says nothing about partitions (``epochs == 0``); several each
    charge their own registry, merged in partition order, and the report
    carries where the host time went.
    """
    registry = metrics if metrics is not None else active_registry()
    single = workers == 1
    assignment = balanced_partitions(router.num_nodes, workers)
    workload, arrivals, faults = checked_inputs(
        router, events, until, faults, route_via_fib)
    # One partition files the caller's iterable as it is, consumed once.
    shares = [arrivals] if single else _split_arrivals(
        range_checked(arrivals, router.num_nodes, route_via_fib), assignment)
    id_base = packet_id_floor()

    interval = observer_interval(until)
    observe = registry.enabled
    specs = [PartitionSpec(
        router=router, assignment=tuple(assignment), partition_id=pid,
        registry=registry if single else empty_registry_like(registry),
        faults=faults, route_via_fib=route_via_fib, workload=workload,
        until=until, packet_id_base=id_base, arrivals=shares[pid],
        observe=observe, observer_interval_sec=interval, **spec_fields)
        for pid in range(workers)]

    driver = (_ProcessBackend(specs) if backend == "process" and not single
              else _InlineBackend(specs))

    # -- epoch/barrier telemetry ------------------------------------------
    # The totals feed a partitioned run's report (one float add per
    # partition per epoch); the per-epoch series are charged only when a
    # registry observes.  Barrier wait is ``epoch wall - its busy``: real
    # stall under the process backend, and under the inline backend the
    # time its siblings ran, i.e. the stall a parallel run would hit.
    busy_totals = [0.0] * workers
    wait_totals = [0.0] * workers
    sim_covered = 0.0
    telemetry = observe and not single
    if telemetry:
        def per_partition(name, help):
            timeline = registry.timeline(name, help=help)
            return [timeline.bind(workers=workers, partition=pid)
                    for pid in range(workers)]

        epoch_busy_rec = per_partition(
            "parallel_epoch_busy_seconds",
            "per-epoch CPU seconds per partition, binned at the epoch's "
            "end time")
        epoch_wait_rec = per_partition(
            "parallel_epoch_barrier_seconds",
            "per-epoch barrier-stall wall seconds per partition")
        transit_rec = per_partition(
            "parallel_transit_records",
            "cross-partition transit records delivered into each "
            "partition, binned at the carrying barrier")
        transit_bytes_rec = per_partition(
            "parallel_transit_bytes",
            "frame bytes riding cross-partition transit records")
        epoch_len_obs = registry.histogram(
            "parallel_epoch_sim_seconds",
            help="simulated seconds covered per epoch, from the later of "
                 "the clock and the earliest pending event (<= the "
                 "lookahead window W = propagation + receive latency)"
            ).bind(workers=workers)

    def charge_epoch(results, epoch_wall, epoch_end):
        for pid, (_, _, busy, _) in enumerate(results):
            wait = max(0.0, epoch_wall - busy)
            busy_totals[pid] += busy
            wait_totals[pid] += wait
            if telemetry:
                epoch_busy_rec[pid](epoch_end, busy)
                epoch_wait_rec[pid](epoch_end, wait)

    horizon = _UNBOUNDED if until is None else until
    try:
        peeks, lookaheads, setup_seconds = map(
            list, zip(*driver.init_state()))
        # Two or more partitions of a full mesh: every one has
        # cross-links, so every lookahead is a number.  One partition
        # has none, and only the ticks and the horizon stop it.
        window = _UNBOUNDED if single else min(lookaheads)
        tick = next_tick(0.0, interval, until) if observe else None
        inboxes: List[List] = [[] for _ in range(workers)]
        epochs = 0
        clock = 0.0
        while clock < horizon:
            candidates = [peek for peek in peeks if peek is not None]
            candidates.extend(parcel.earliest
                              for inbox in inboxes for parcel in inbox)
            if tick is not None:
                candidates.append(tick)
            if not candidates:
                break
            earliest = min(candidates)
            if earliest > horizon:
                break
            # Records may now deliver behind the clock; nothing executes
            # before it, so that is where the safe window starts.
            epoch_start = max(earliest, clock)
            epoch_end = min(epoch_start + window, horizon)
            sample = tick is not None and tick <= epoch_end
            if sample:
                epoch_end = tick
            wall_start = perf_counter()
            # An unbounded end is an open-ended run draining.
            results = driver.advance_all(
                epoch_end if epoch_end < _UNBOUNDED else None, inboxes,
                sample)
            epoch_wall = perf_counter() - wall_start
            epochs += 1
            clock = results[0][3]   # every partition stops at the barrier
            covered = max(0.0, epoch_end - epoch_start)
            sim_covered += covered
            charge_epoch(results, epoch_wall, epoch_end)
            if telemetry:
                epoch_len_obs(covered)
            inboxes = [[] for _ in range(workers)]
            for pid, (outgoing, peek, _, _) in enumerate(results):
                peeks[pid] = peek
                for destination, parcel in outgoing.items():
                    inboxes[destination].append(parcel)
            if sample:
                tick = next_tick(
                    tick, interval, until,
                    any(peek is not None for peek in peeks) or any(inboxes))
            if telemetry:
                for pid, inbox in enumerate(inboxes):
                    if inbox:
                        transit_rec[pid](
                            epoch_end, sum(p.count for p in inbox))
                        transit_bytes_rec[pid](
                            epoch_end, sum(p.frame_bytes for p in inbox))
        # Tail barrier: it runs no queued event, but pins each clock to
        # ``until`` and takes the last delivery (records due by the
        # horizon are applied as of their time, the rest left pending as
        # a single heap would leave them); charged, so the telemetry
        # sums cover every second a partition was busy.
        wall_start = perf_counter()
        results = driver.advance_all(until, inboxes, False)
        charge_epoch(results, perf_counter() - wall_start, horizon)
        clock = results[0][3]
        fragments = driver.finish()
    finally:
        driver.close()

    # A replayed workload shows every partition the whole stream; a
    # caller's event list was dealt out, each partition its share.
    seen = [fragment.offered_packets for fragment in fragments]
    offered = seen[0] if workload is not None else sum(seen)
    if workload is not None and seen != [offered] * workers:
        raise SimulationError(
            "partitions replayed different arrival streams: they "
            "counted %s offered packets" % seen)
    packet_id_floor(id_base + offered)
    report = merge_fragments(
        fragments, offered_packets=offered, duration_sec=clock,
        workers=workers, epochs=0 if single else epochs,
        registry=None if single else registry)
    if single:
        # No boundary and no barrier: nothing about partitions to report.
        return report
    report.partition_busy_seconds = busy_totals
    report.partition_setup_seconds = setup_seconds
    report.barrier_wait_seconds = wait_totals
    report.lookahead_efficiency = (
        sim_covered / (epochs * window) if epochs else 0.0)
    mean_busy = sum(busy_totals) / workers
    report.load_imbalance = (max(busy_totals) / mean_busy
                             if mean_busy > 0 else 0.0)
    return report
