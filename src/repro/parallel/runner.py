"""Conservative-lookahead epoch loop driving partitioned cluster runs.

:func:`simulate_parallel` shards a
:class:`~repro.core.router.RouteBricksRouter` cluster across
``workers`` partitions and runs them in lock-stepped epochs:

1. ``m`` = the later of the partitions' clock and the earliest pending
   event time across every partition (counting transit records not yet
   injected, and the observer's next tick when a registry observes);
2. the epoch ends at ``min(m + W, next observer tick, horizon)`` where
   ``W`` is the minimum cross-link propagation delay plus the minimum
   receive-side server latency -- a cross-partition send committed during
   the epoch may deliver inside it, but a delivery does nothing another
   event can observe until the receiving server's latency has passed,
   which is strictly after the epoch (send time plus serialization plus
   at least ``W``);
3. every partition advances to the epoch end, producing transit records
   packed as one opaque parcel per destination partition, and -- when the
   epoch ended on a tick -- samples its links there;
4. the parent routes the parcels by their headers, never decoding them;
   the destination sorts the records by the full ``(deliver_time,
   send_time, src_node, seq)`` key and, before the next epoch, schedules
   those still ahead of its clock and applies those behind it as of
   their timestamp (``Simulator.run_as_of``, which raises if ``W`` was
   too large).

Observation lives at the barrier, the one point where "is anything
pending anywhere" is known: no partition has a tick in its queue.  The
tick times and whether another one is due come from
:func:`repro.obs.hooks.next_tick` -- the rule ``simulate`` steps its one
partition by -- fed with what the barrier knows (a pending event or an
undelivered parcel anywhere).  Partition 0 books each of its samples as
the one tick event a single heap would have run
(:meth:`~repro.core.partition.ClusterPartition.sample_barrier`), so
``events_run`` and every snapshot are the single heap's.

Two backends share this loop and the parcel path: ``"inline"`` runs
every partition in the parent process, ``"process"`` gives each
partition a dedicated worker process that keeps its simulation state
alive between epochs.  Results merge in partition-id order either way,
which makes the outcome independent of worker scheduling.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
)
from ..core.router import RouteBricksRouter, SimulationReport
from ..core.topology import balanced_partitions
from ..errors import ConfigurationError, SimulationError
from ..net.packet import packet_id_floor
from ..obs.hooks import next_tick, observer_interval
from ..obs.metrics import active_registry

BACKENDS = ("inline", "process")


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


def _advance(part: ClusterPartition, until: float, parcels, sample: bool):
    """One partition's epoch: take delivery, run to the barrier, report
    (parcels by destination partition, next pending time, CPU seconds
    spent on delivery and advancing)."""
    start = process_time()
    part.inject(parcels)
    outgoing = part.advance(until)
    busy = process_time() - start
    if sample:
        part.sample_barrier()
    return outgoing, part.peek_time(), busy


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
    ``workers`` partitions under conservative lookahead.

    Every partition is built by the same
    :class:`~repro.core.partition.ClusterPartition` ``simulate`` uses;
    ``workers=1`` *is* ``simulate`` (one partition, no epoch loop).  For
    ``workers > 1`` the cluster is split into contiguous balanced node
    ranges and a fault schedule is applied partition-locally with
    owner-side accounting.  A ``WorkloadSpec`` is realized by the
    partitions, never here: each replays the same seeded stream and
    builds packets for its own ingress nodes only (see
    :class:`~repro.core.partition.PartitionSpec`); any other ``events``
    is split by owner.  Features that need one partition owning
    every node -- a control-plane ``manager``, ``router.resequence`` --
    are refused by :class:`~repro.core.partition.PartitionSpec`; use
    ``workers=1`` for those.

    Fault-free runs merge to bit-identical reports and metric snapshots
    at any worker count; see ``tests/test_parallel.py`` for the enforced
    guarantee.
    """
    checked_horizon(until)
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if backend not in BACKENDS:
        raise ConfigurationError(
            "unknown backend %r (choose from %s)" % (backend,
                                                     ", ".join(BACKENDS)))
    if workers == 1:
        return router.simulate(
            events, until=until,
            rate_limited_egress=rate_limited_egress,
            faults=faults, manager=manager,
            detection_latency_sec=detection_latency_sec,
            fib_push_latency_sec=fib_push_latency_sec, metrics=metrics)

    registry = metrics if metrics is not None else active_registry()
    assignment = balanced_partitions(router.num_nodes, workers)
    workload, arrivals, faults = checked_inputs(
        router, events, until, faults)
    shares = _split_arrivals(arrivals, assignment)
    id_base = packet_id_floor()

    interval = observer_interval(until)
    observe = registry.enabled
    specs = [PartitionSpec(
        router=router,
        assignment=tuple(assignment),
        partition_id=pid,
        registry=empty_registry_like(registry),
        rate_limited_egress=rate_limited_egress,
        faults=faults,
        manager=manager,
        detection_latency_sec=detection_latency_sec,
        fib_push_latency_sec=fib_push_latency_sec,
        workload=workload,
        until=until,
        packet_id_base=id_base,
        arrivals=shares[pid],
        observe=observe,
        observer_interval_sec=interval,
    ) for pid in range(workers)]

    driver = (_InlineBackend(specs) if backend == "inline"
              else _ProcessBackend(specs))

    # -- epoch/barrier telemetry ------------------------------------------
    # Totals feed the report unconditionally (they cost one float add per
    # partition per epoch); the per-epoch timelines and cumulative gauges
    # are charged only when a registry is observing.  Barrier wait is
    # reconstructed from the epoch's wall clock: under the process
    # backend a partition stalls for ``epoch_wall - its busy``; under the
    # inline backend the same formula charges each partition the time its
    # siblings ran, i.e. the stall an actual parallel run would have hit.
    busy_totals = [0.0] * workers
    wait_totals = [0.0] * workers
    sim_covered = 0.0
    if observe:
        epoch_busy_rec = [registry.timeline(
            "parallel_epoch_busy_seconds",
            help="per-epoch CPU seconds per partition, binned at the "
                 "epoch's end time").bind(workers=workers, partition=pid)
            for pid in range(workers)]
        epoch_wait_rec = [registry.timeline(
            "parallel_epoch_barrier_seconds",
            help="per-epoch barrier-stall wall seconds per partition")
            .bind(workers=workers, partition=pid)
            for pid in range(workers)]
        transit_rec = [registry.timeline(
            "parallel_transit_records",
            help="cross-partition transit records delivered into each "
                 "partition, binned at the carrying barrier")
            .bind(workers=workers, partition=pid)
            for pid in range(workers)]
        transit_bytes_rec = [registry.timeline(
            "parallel_transit_bytes",
            help="frame bytes riding cross-partition transit records")
            .bind(workers=workers, partition=pid)
            for pid in range(workers)]
        busy_gauge = [registry.gauge(
            "parallel_busy_seconds",
            help="cumulative CPU seconds per partition")
            .bind(workers=workers, partition=pid) for pid in range(workers)]
        wait_gauge = [registry.gauge(
            "parallel_barrier_wait_seconds",
            help="cumulative barrier-stall wall seconds per partition")
            .bind(workers=workers, partition=pid) for pid in range(workers)]
        epoch_len_obs = registry.histogram(
            "parallel_epoch_sim_seconds",
            help="simulated seconds covered per epoch, from the later of "
                 "the clock and the earliest pending event (<= the "
                 "lookahead window W = propagation + receive latency)"
            ).bind(workers=workers)

    def charge_epoch(results, epoch_wall, epoch_end):
        for pid, (_, _, busy) in enumerate(results):
            wait = max(0.0, epoch_wall - busy)
            busy_totals[pid] += busy
            wait_totals[pid] += wait
            if observe:
                epoch_busy_rec[pid](epoch_end, busy)
                epoch_wait_rec[pid](epoch_end, wait)
                busy_gauge[pid](busy_totals[pid])
                wait_gauge[pid](wait_totals[pid])

    try:
        peeks, lookaheads, setup_seconds = map(
            list, zip(*driver.init_state()))
        # Two or more partitions of a full mesh: every one has
        # cross-links, so every lookahead is a number.
        window = min(lookaheads)
        tick = next_tick(0.0, interval, until) if observe else None
        inboxes: List[List] = [[] for _ in range(workers)]
        epochs = 0
        clock = 0.0
        while clock < until:
            candidates = [peek for peek in peeks if peek is not None]
            candidates.extend(parcel.earliest
                              for inbox in inboxes for parcel in inbox)
            if tick is not None:
                candidates.append(tick)
            if not candidates:
                break
            earliest = min(candidates)
            if earliest > until:
                break
            # Records may now deliver behind the clock; nothing executes
            # before it, so that is where the safe window starts.
            epoch_start = max(earliest, clock)
            epoch_end = min(epoch_start + window, until)
            sample = tick is not None and tick <= epoch_end
            if sample:
                epoch_end = tick
            wall_start = perf_counter()
            results = driver.advance_all(epoch_end, inboxes, sample)
            epoch_wall = perf_counter() - wall_start
            epochs += 1
            clock = epoch_end
            covered = max(0.0, epoch_end - epoch_start)
            sim_covered += covered
            charge_epoch(results, epoch_wall, epoch_end)
            if observe:
                epoch_len_obs(covered)
            inboxes = [[] for _ in range(workers)]
            for pid, (outgoing, peek, _) in enumerate(results):
                peeks[pid] = peek
                for destination, parcel in outgoing.items():
                    inboxes[destination].append(parcel)
            if sample:
                tick = next_tick(
                    tick, interval, until,
                    any(peek is not None for peek in peeks) or any(inboxes))
            if observe:
                for pid, inbox in enumerate(inboxes):
                    if inbox:
                        transit_rec[pid](
                            epoch_end, sum(p.count for p in inbox))
                        transit_bytes_rec[pid](
                            epoch_end, sum(p.frame_bytes for p in inbox))
        # Tail barrier: no executable events remain at or before the
        # horizon, so advancing everyone to it runs no queued event -- it
        # pins each clock to ``until`` and takes the last delivery
        # (records due by the horizon are applied as of their time, the
        # rest are left pending exactly as the single sim would leave
        # them).  Charged as a final (non-epoch) barrier so the
        # telemetry sums cover every second a partition was busy.
        wall_start = perf_counter()
        results = driver.advance_all(until, inboxes, False)
        charge_epoch(results, perf_counter() - wall_start, until)
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
        fragments, offered_packets=offered, duration_sec=until,
        workers=workers, epochs=epochs,
        registry=registry if observe else None)
    report.partition_busy_seconds = busy_totals
    report.partition_setup_seconds = setup_seconds
    report.barrier_wait_seconds = wait_totals
    report.lookahead_efficiency = (
        sim_covered / (epochs * window) if epochs else 0.0)
    mean_busy = sum(busy_totals) / workers
    report.load_imbalance = (max(busy_totals) / mean_busy
                             if mean_busy > 0 else 0.0)
    if observe:
        setup_gauge = registry.gauge(
            "parallel_setup_seconds",
            help="CPU seconds building each partition (build only: "
                 "arrivals are realized inside the epochs, as busy)")
        for pid, seconds in enumerate(setup_seconds):
            setup_gauge.set(seconds, workers=workers, partition=pid)
        registry.gauge(
            "parallel_lookahead_efficiency",
            help="mean epoch length over the lookahead window W").set(
                report.lookahead_efficiency, workers=workers)
        registry.gauge(
            "parallel_imbalance",
            help="busiest partition busy seconds over the mean").set(
                report.load_imbalance, workers=workers)
    return report
