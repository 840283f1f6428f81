"""Timed single-server forwarding runs.

Drives a server's cores in *simulated time*: each core repeatedly polls
its RX queue, pays the calibrated per-packet (or empty-poll) cycle cost,
and advances its own clock accordingly.  The polls are the only events:
as in the paper's polling mode (Sec. 4.2) the NIC fills the RX ring and
a core sees nothing until it polls, so each poll first delivers the
arrivals due by its instant.  This closes the loop between the analytic
model and the DES: at offered loads below the model's saturation rate
the run is loss-free; at higher loads the achieved rate plateaus at the
model's prediction and RX rings overflow -- exactly how the paper
measures the "maximum loss-free forwarding rate" (Sec. 5.1).

Two runners share that discipline: :class:`TimedForwardingRun` charges a
preset application's cost as one number per packet (the original Sec. 5.1
experiment), while :class:`TimedPipelineRun` instantiates an arbitrary
Click configuration once per core (multi-queue replication) and charges
each element's :class:`~repro.costs.ResourceVector` for the packets it
actually handled -- the same vectors :func:`repro.costs.compile_loads`
sums analytically, which is what makes model-vs-DES agreement checkable
for custom pipelines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, count, cycle, islice, repeat
from typing import List, Optional

from .. import calibration as cal
from ..costs import DEFAULT_COST_MODEL, CostModel
from ..errors import ConfigurationError
from ..hw.server import Server
from ..obs.metrics import active_registry
from ..obs.profile import first_poll_after
from ..obs.trace import TRACE_ANNOTATION
from ..simnet.engine import Simulator
from ..workloads.synthetic import FixedSizeWorkload
from .element import Element
from .elements.device import PollDevice, ToDevice
from .elements.standard import PacketQueue

#: Cycles burned by a poll that finds no packets (Sec. 5.3's ce).
#: Re-exported from :mod:`repro.calibration`, the single owner.
EMPTY_POLL_CYCLES = cal.EMPTY_POLL_CYCLES

#: How much a :class:`TimedForwardingRun` holds: it replays and clears
#: its poll log every this many polls.
REPLAY_CHUNK = 1024


class _RunObs:
    """Resolved metric handles for one timed run (absent when disabled).

    Both runners charge the same names: ``core_cycles``/``core_polls``
    split busy vs empty (the Sec. 5.3 idle-polling attribution),
    ``bus_bytes`` per shared bus, ``rxq_occupancy``/``rxq_drops``
    timelines per RX ring.  When the registry carries a
    :class:`~repro.obs.profile.SpanProfiler` the runners additionally
    charge per-element cycles under ``core<N>`` frames (cycle units).
    """

    def __init__(self, registry):
        self.registry = registry
        self.profiler = registry.profiler
        self.core_cycles = registry.counter(
            "core_cycles", help="cycles charged per core, busy vs empty")
        self.core_polls = registry.counter(
            "core_polls", help="poll events per core, busy vs empty")
        self.bus_bytes = registry.counter(
            "bus_bytes", help="bytes moved per shared bus")
        self.rxq_occupancy = registry.timeline(
            "rxq_occupancy", help="RX-ring occupancy, sampled per poll")
        self.rxq_drops = registry.timeline(
            "rxq_drops", help="RX-ring drops per time bin")
        self.tracer = registry.tracer
        # Per-bus incrementers, bound once per run (see Counter.bind).
        self._inc_mem = self.bus_bytes.bind(bus="memory")
        self._inc_io = self.bus_bytes.bind(bus="io")
        self._inc_pcie = self.bus_bytes.bind(bus="pcie")
        self._inc_qpi = self.bus_bytes.bind(bus="qpi")

    @classmethod
    def resolve(cls, metrics) -> "Optional[_RunObs]":
        registry = metrics if metrics is not None else active_registry()
        return cls(registry) if registry.enabled else None

    def core_handles(self, core_id: int):
        """Pre-bound (busy cycles, empty cycles, busy polls, empty
        polls) incrementers for one core -- the per-poll charge path."""
        return (self.core_cycles.bind(core=core_id, kind="busy"),
                self.core_cycles.bind(core=core_id, kind="empty"),
                self.core_polls.bind(core=core_id, kind="busy"),
                self.core_polls.bind(core=core_id, kind="empty"))

    def charge_bus(self, mem: float, io: float, pcie: float,
                   qpi: float) -> None:
        if mem:
            self._inc_mem(mem)
        if io:
            self._inc_io(io)
        if pcie:
            self._inc_pcie(pcie)
        if qpi:
            self._inc_qpi(qpi)


@dataclass
class TimedRunReport:
    """Outcome of a timed forwarding run."""

    offered_packets: int
    forwarded_packets: int
    dropped_packets: int
    duration_sec: float
    packet_bytes: int
    empty_polls: int
    total_polls: int
    residual_backlog: int = 0

    @property
    def achieved_bps(self) -> float:
        return (self.forwarded_packets * self.packet_bytes * 8
                / self.duration_sec)

    @property
    def achieved_gbps(self) -> float:
        return self.achieved_bps / 1e9

    @property
    def loss_free(self) -> bool:
        return self.dropped_packets == 0

    @property
    def loss_fraction(self) -> float:
        if not self.offered_packets:
            return 0.0
        return self.dropped_packets / self.offered_packets

    def sustainable(self, max_backlog_packets: int) -> bool:
        """Loss-free *and* not merely buffering the excess in the rings."""
        return (self.dropped_packets == 0
                and self.residual_backlog <= max_backlog_packets)


def _noop_charge(cycles: float) -> None:
    """Stand-in profiler charge when no profiler is attached."""


def _arrival_cursor(offered: int, interarrival: float, arrive):
    """``offered`` arrivals from t = 0 as a cursor, not as events.

    Arrival k is due at the chained float t[k] = t[k-1] + dt (never
    k * dt).  ``advance(now)`` calls ``arrive(t)`` for each arrival due
    at or before ``now`` not yet delivered, in order.  Each poll calls it
    before reading its ring, so an arrival at the poll's instant is
    there to pop; one call at the horizon after ``sim.run`` delivers the
    rest.  Exact because an arrival pushes onto one RX ring and only that
    ring's poll pops it, so each ring's pushes and pops keep their order.
    """
    times = chain(islice(accumulate(repeat(interarrival), initial=0.0),
                         offered), (float("inf"),))
    due = next(times)

    def advance(now: float) -> None:
        nonlocal due
        t = due
        while t <= now:
            arrive(t)
            t = next(times)
        due = t
    return advance


class TimedForwardingRun:
    """Simulate minimal forwarding on one server at an offered load.

    One core per RX queue (the multi-queue discipline); arrivals are
    spread round-robin across queues, matching the paper's uniform
    any-to-any pattern.  ``kp``/``kn`` control batching as in Table 1.

    ``batch`` is accepted and ignored: there is one :meth:`run` loop, and
    older callers (``perfbench``) still pass the flag that used to pick
    between two.
    """

    def __init__(self, server: Server, packet_bytes: int = 64,
                 kp: int = cal.DEFAULT_KP, kn: int = cal.DEFAULT_KN,
                 app: cal.AppCost = cal.MINIMAL_FORWARDING,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 batch: bool = False,
                 metrics=None):
        if not server.ports:
            raise ConfigurationError("server has no ports attached")
        if kp < 1 or not 1 <= kn <= cal.MAX_NIC_BATCH:
            raise ConfigurationError("bad batching parameters")
        self.server = server
        self.packet_bytes = packet_bytes
        self.kp = kp
        self.kn = kn
        self.app = app
        self.cost_model = cost_model
        self.metrics = metrics
        self.cycles_per_packet = (
            cost_model.app_vector(app, packet_bytes).cpu_cycles
            + cost_model.bookkeeping_cycles(kp, kn))
        # Pair each core with one RX queue, spreading cores over ports.
        self._assignments = []
        cores = server.cores
        queues = [queue for port in server.ports for queue in port.rx_queues]
        if len(queues) < len(cores):
            raise ConfigurationError(
                "need >= 1 RX queue per core (%d cores, %d queues)"
                % (len(cores), len(queues)))
        for index, core in enumerate(cores):
            self._assignments.append((core, queues[index]))

    def run(self, offered_bps: float, duration_sec: float = 5e-3,
            seed: int = 0) -> TimedRunReport:
        """Offer fixed-size packets at ``offered_bps`` for ``duration_sec``.

        The polls are the only events.  Nothing downstream of a preset
        application inspects a packet, so RX rings carry token counts
        (:meth:`~repro.hw.nic.NicQueue.push_token`) and a real Packet
        exists only for trace-sampled arrivals.  Each poll pushes the
        arrivals due by its instant (:func:`_arrival_cursor`), pops its
        burst, appends one tuple to a log and files its successor;
        counters, timelines, profiler frames, trace hops and
        ``Core.charge`` are replayed from the log in event order -- the
        same calls and float chains a per-poll charge would make.

        Memory stays bounded by :data:`REPLAY_CHUNK`: the log is replayed
        and cleared every that many polls, and once after the run.
        """
        if offered_bps <= 0 or duration_sec <= 0:
            raise ConfigurationError("offered load and duration must be > 0")
        obs = _RunObs.resolve(self.metrics)
        sim = Simulator(metrics=self.metrics)
        interarrival = self.packet_bytes * 8 / offered_bps
        offered = int(duration_sec / interarrival)

        queues = [queue for _, queue in self._assignments]
        n_queues = len(queues)
        drops_before = sum(queue.dropped for queue in queues)
        # Clear any residue from a previous run on the same server.
        for queue in queues:
            queue.clear()

        clock_hz = self.server.spec.clock_hz
        # Every poll charges one of kp+1 possible cycle values; index 0
        # is the empty poll.
        cycles_for = [self.cost_model.empty_poll_cycles] + [
            n * self.cycles_per_packet for n in range(1, self.kp + 1)]
        delay_for = [cycles / clock_hz for cycles in cycles_for]
        charge_by = [core.charge for core, _ in self._assignments]
        # One (queue index, time, burst, occupancy after, ring drops so
        # far) tuple per poll since the last replay.
        log: List[tuple] = []
        forwarded = empty_polls = total_polls = 0

        push_tokens = [queue.push_token for queue in queues]
        if obs is None:
            def arrival(t, push_next=cycle(push_tokens)):
                next(push_next)()

            def replay():
                nonlocal forwarded, empty_polls, total_polls
                for qi, _, n, _, _ in log:
                    if n:
                        forwarded += n
                    else:
                        empty_polls += 1
                    charge_by[qi](cycles_for[n])
                total_polls += len(log)
                log.clear()
        else:
            # Every packet of this run carries the same app vector, so
            # bus bytes are chargeable per burst without walking elements.
            vec = self.cost_model.app_vector(self.app, self.packet_bytes)
            # Same flows and flow_seq as the per-packet generator, built
            # only for the 1-in-sample_every traced arrivals.
            packet_at = FixedSizeWorkload(
                packet_bytes=self.packet_bytes, num_flows=n_queues * 8,
                seed=seed).packet_at
            tracer = obs.tracer
            sample_every = tracer.sample_every
            arrivals = count()
            first_seen = tracer.seen
            # Per queue: (ring position, trace) of sampled arrivals not
            # yet picked up, and how many descriptors polls have popped.
            pending = [deque() for _ in queues]
            base_enqueued = [queue.enqueued for queue in queues]
            popped = [0] * n_queues

            def arrival(t):
                i = next(arrivals)
                qi = i % n_queues
                pushed = push_tokens[qi]()
                if not (first_seen + i) % sample_every:
                    trace = tracer.start_trace(packet_at(i), t, "arrival")
                    if pushed:
                        pending[qi].append((
                            queues[qi].enqueued - base_enqueued[qi] - 1,
                            trace))
                    else:
                        trace.hop("dropped", t)

            prof = obs.profiler
            bind_frame = (prof.bind if prof is not None
                          else lambda *frames: _noop_charge)
            app_frame = getattr(self.app, "name", "app")
            # Per queue: the empty-poll and busy-poll chargers, the ring
            # timelines, the core's trace label, its poll times (the
            # poll-wait split) and the ring drops already recorded.
            handles = []
            for index, (core, queue) in enumerate(self._assignments):
                core_frame = "core%d" % core.core_id
                (inc_busy_cycles, inc_empty_cycles,
                 inc_busy_polls, inc_empty_polls) = \
                    obs.core_handles(core.core_id)
                handles.append((
                    (bind_frame(core_frame, "empty_poll"),
                     inc_empty_cycles, inc_empty_polls),
                    (bind_frame(core_frame, app_frame),
                     inc_busy_cycles, inc_busy_polls),
                    obs.rxq_occupancy.bind(queue=str(index)),
                    obs.rxq_drops.bind(queue=str(index)),
                    core_frame, [], [queue.dropped]))

            def replay():
                nonlocal forwarded, empty_polls, total_polls
                for qi, now, n, occupancy, dropped in log:
                    (empty, busy, record_occupancy, record_drops,
                     core_frame, poll_times, seen_drops) = handles[qi]
                    poll_times.append(now)
                    cycles = cycles_for[n]
                    charge_frame, inc_cycles, inc_polls = busy if n else empty
                    charge_frame(cycles)
                    inc_cycles(cycles)
                    inc_polls()
                    charge_by[qi](cycles)
                    record_occupancy(now, occupancy)
                    if dropped > seen_drops[0]:
                        record_drops(now, dropped - seen_drops[0])
                        seen_drops[0] = dropped
                    if not n:
                        empty_polls += 1
                        continue
                    forwarded += n
                    obs.charge_bus(n * vec.mem_bytes, n * vec.io_bytes,
                                   n * vec.pcie_bytes, n * vec.qpi_bytes)
                    end = popped[qi] = popped[qi] + n
                    traced = pending[qi]
                    while traced and traced[0][0] < end:
                        _, trace = traced.popleft()
                        trace.hop("poll", first_poll_after(
                            poll_times, trace.started, now))
                        trace.hop("pickup", now)
                        trace.hop(core_frame, now, note="forwarded")
                        trace.hop("service_done", now + delay_for[n])
                total_polls += len(log)
                log.clear()

        advance = _arrival_cursor(offered, interarrival, arrival)
        file_at = sim.timer_filer()
        kp = self.kp
        log_append = log.append
        replay_every = REPLAY_CHUNK

        def make_poll_loop(queue, queue_index):
            pop_tokens = queue.pop_tokens

            def poll():
                now = sim.now
                if now >= duration_sec:
                    return
                advance(now)
                n = pop_tokens(kp)
                log_append((queue_index, now, n, queue._tokens,
                            queue.dropped))
                if len(log) >= replay_every:
                    replay()
                file_at(now + delay_for[n], poll)
            return poll

        for index, queue in enumerate(queues):
            sim.schedule(0.0, make_poll_loop(queue, index))
        sim.run(until=duration_sec)
        advance(duration_sec)
        replay()
        if obs is not None:
            tracer.seen = first_seen + next(arrivals)

        dropped = sum(queue.dropped for queue in queues) - drops_before
        return TimedRunReport(
            offered_packets=offered,
            forwarded_packets=forwarded,
            dropped_packets=dropped,
            duration_sec=duration_sec,
            packet_bytes=self.packet_bytes,
            empty_polls=empty_polls,
            total_polls=total_polls,
            residual_backlog=sum(len(queue) for queue in queues),
        )

    def find_loss_free_rate(self, low_bps: float = 0.5e9,
                            high_bps: float = 30e9,
                            tolerance_bps: float = 0.25e9,
                            duration_sec: float = 2e-3) -> float:
        """Binary-search the maximum loss-free rate (the Sec. 5.1 metric)."""
        return _find_loss_free_rate(
            self, 2 * self.kp * len(self._assignments),
            low_bps, high_bps, tolerance_bps, duration_sec)


def _find_loss_free_rate(run, max_backlog: int, low_bps: float,
                         high_bps: float, tolerance_bps: float,
                         duration_sec: float) -> float:
    """Bisect ``run.run`` for the highest sustainable offered rate.

    ``max_backlog`` is what a sustainable run may leave queued: about
    two poll batches per RX ring.
    """
    if low_bps >= high_bps:
        raise ConfigurationError("need low < high")
    while high_bps - low_bps > tolerance_bps:
        mid = (low_bps + high_bps) / 2
        if run.run(mid, duration_sec=duration_sec).sustainable(max_backlog):
            low_bps = mid
        else:
            high_bps = mid
    return low_bps


def _element_cycles(element: Element, d_packets: int,
                    d_bytes: float) -> float:
    """CPU cycles for ``d_packets``/``d_bytes`` of new work on an element.

    Exact for affine costs: the deltas are integer packet/byte counts.
    """
    if d_packets <= 0:
        return 0.0
    return (d_packets * element.cost_base.cpu_cycles
            + d_bytes * element.cost_per_byte.cpu_cycles)


def _element_vector(element: Element, d_packets: int, d_bytes: float):
    """Full :class:`~repro.costs.ResourceVector` for the same new work.

    The CPU entry matches :func:`_element_cycles` exactly, so running
    with observability on cannot change the simulated timing; the bus
    entries feed the per-bus byte-utilization counters.
    """
    if d_packets <= 0:
        return None
    return (element.cost_base.scaled(d_packets)
            + element.cost_per_byte.scaled(d_bytes))


class _PipelineReplica:
    """One core's instantiation of the pipeline (multi-queue slice)."""

    def __init__(self, graph, core):
        self.graph = graph
        self.core = core
        self.elements: List[Element] = graph.elements()
        self.polls = [e for e in self.elements if isinstance(e, PollDevice)]
        self.tos = [e for e in self.elements if isinstance(e, ToDevice)]
        self.pulls = [(e, e.output(0).peer) for e in self.elements
                      if isinstance(e, PacketQueue)
                      and e.output(0).peer is not None]


class TimedPipelineRun:
    """Simulate an arbitrary Click pipeline on one server at offered load.

    The configuration text (or a :data:`~repro.click.pipelines
    .PRESET_PIPELINES` name) is instantiated once per participating core,
    with each replica's device elements bound to NIC queue ``replica`` --
    the multi-queue discipline.  Each poll event runs the replica's poll
    devices, drives any Click ``Queue`` pulls, drains the TX rings, and
    charges the core the element-wise resource cost of the packets that
    actually moved.
    """

    def __init__(self, server: Server, config_text: str,
                 packet_bytes: int = 64,
                 kp: int = cal.DEFAULT_KP, kn: int = cal.DEFAULT_KN,
                 table=None, esp_context=None,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 replicas: Optional[int] = None,
                 metrics=None):
        from .pipelines import build_pipeline
        if not server.ports:
            raise ConfigurationError("server has no ports attached")
        if kp < 1 or not 1 <= kn <= cal.MAX_NIC_BATCH:
            raise ConfigurationError("bad batching parameters")
        self.server = server
        self.packet_bytes = packet_bytes
        self.kp = kp
        self.kn = kn
        self.cost_model = cost_model
        self.metrics = metrics
        queues_per_port = min(port.num_queues for port in server.ports)
        n_replicas = min(len(server.cores), queues_per_port)
        if replicas is not None:
            if replicas > n_replicas:
                raise ConfigurationError(
                    "%d replicas need %d cores and %d queues per port"
                    % (replicas, replicas, replicas))
            n_replicas = replicas
        self.replicas: List[_PipelineReplica] = []
        for index in range(n_replicas):
            graph = build_pipeline(config_text, server, replica=index,
                                   kp=kp, kn=kn, table=table,
                                   esp_context=esp_context,
                                   cost_model=cost_model)
            replica = _PipelineReplica(graph, server.cores[index])
            if not replica.polls:
                raise ConfigurationError(
                    "pipeline has no PollDevice; nothing drives it")
            self.replicas.append(replica)

    def _rx_queues(self):
        return [poll.queue for replica in self.replicas
                for poll in replica.polls]

    def run(self, offered_bps: float, duration_sec: float = 5e-3,
            seed: int = 0) -> TimedRunReport:
        """Offer fixed-size packets at ``offered_bps`` for ``duration_sec``.

        Each poll first delivers the arrivals due by its instant; only a
        replica's own ``PollDevice.run_task`` pops its RX rings."""
        if offered_bps <= 0 or duration_sec <= 0:
            raise ConfigurationError("offered load and duration must be > 0")
        obs = _RunObs.resolve(self.metrics)
        sim = Simulator(metrics=self.metrics)
        workload = FixedSizeWorkload(packet_bytes=self.packet_bytes,
                                     num_flows=len(self.replicas) * 8,
                                     seed=seed)
        interarrival = self.packet_bytes * 8 / offered_bps
        offered = int(duration_sec / interarrival)
        packets = workload.packets(offered)

        state = {"forwarded": 0, "empty_polls": 0, "polls": 0}
        rx_queues = self._rx_queues()
        drops_before = sum(queue.dropped for queue in rx_queues)
        for queue in rx_queues:
            queue.clear()
        # Per-RX-ring poll timestamps (obs-only) feed the traced packets'
        # poll-wait vs ring-wait split at drain time.
        poll_times = ({id(queue): [] for queue in rx_queues}
                      if obs is not None else None)

        def arrival(t, index=count()):
            packet = next(packets)
            queue = rx_queues[next(index) % len(rx_queues)]
            trace = (obs.tracer.maybe_start(packet, t, "arrival")
                     if obs is not None else None)
            if queue.push(packet):
                if trace is not None:
                    packet.annotations["rxq_id"] = id(queue)
            elif trace is not None:
                trace.hop("dropped", t)

        advance = _arrival_cursor(offered, interarrival, arrival)

        clock_hz = self.server.spec.clock_hz
        # As in TimedForwardingRun, polls are homogeneous high-rate
        # timers: the handle-free front.
        schedule_timer = sim.schedule_timer

        def make_poll_loop(replica):
            counters = {id(e): (e.packets_in, e.bytes_in)
                        for e in replica.elements}
            seen_drops = {id(d): d.queue.dropped for d in replica.polls}
            core = replica.core
            core_frame = "core%d" % core.core_id
            empty_poll_cycles = self.cost_model.empty_poll_cycles
            charge = core.charge
            if obs is not None:
                prof = obs.profiler
                charge_element = ({id(e): prof.bind(core_frame, e.name)
                                   for e in replica.elements}
                                  if prof is not None else None)
                charge_empty = (prof.bind(core_frame, "empty_poll")
                                if prof is not None else None)
                (inc_busy_cycles, inc_empty_cycles,
                 inc_busy_polls, inc_empty_polls) = \
                    obs.core_handles(core.core_id)
                record_occupancy = {
                    id(d): obs.rxq_occupancy.bind(queue=d.name)
                    for d in replica.polls}
                record_drops = {
                    id(d): obs.rxq_drops.bind(queue=d.name)
                    for d in replica.polls}

            def poll():
                if sim.now >= duration_sec:
                    return
                advance(sim.now)
                state["polls"] += 1
                if obs is not None:
                    for device in replica.polls:
                        poll_times[id(device.queue)].append(sim.now)
                moved = 0
                for device in replica.polls:
                    moved += device.run_task()
                for queue, downstream in replica.pulls:
                    while True:
                        packet = queue.pull()
                        if packet is None:
                            break
                        downstream.receive(packet)
                        moved += 1
                traced_drained = []
                for device in replica.tos:
                    drained = device.drain()
                    state["forwarded"] += len(drained)
                    if obs is not None:
                        for packet in drained:
                            trace = packet.annotations.get(TRACE_ANNOTATION)
                            if trace is not None:
                                times = poll_times.get(
                                    packet.annotations.pop("rxq_id", None))
                                if times:
                                    trace.hop("poll", first_poll_after(
                                        times, trace.started, sim.now))
                                trace.hop("pickup", sim.now)
                                trace.hop(device.name, sim.now, note="tx")
                                traced_drained.append(trace)
                if moved:
                    cycles = 0.0
                    mem = io = pcie = qpi = 0.0
                    for element in replica.elements:
                        packets0, bytes0 = counters[id(element)]
                        d_packets = element.packets_in - packets0
                        d_bytes = element.bytes_in - bytes0
                        if obs is None:
                            cycles += _element_cycles(element, d_packets,
                                                      d_bytes)
                        else:
                            vec = _element_vector(element, d_packets,
                                                  d_bytes)
                            if vec is not None:
                                cycles += vec.cpu_cycles
                                mem += vec.mem_bytes
                                io += vec.io_bytes
                                pcie += vec.pcie_bytes
                                qpi += vec.qpi_bytes
                                if charge_element is not None:
                                    charge_element[id(element)](
                                        vec.cpu_cycles)
                        counters[id(element)] = (element.packets_in,
                                                 element.bytes_in)
                    if obs is not None:
                        obs.charge_bus(mem, io, pcie, qpi)
                        inc_busy_cycles(cycles)
                        inc_busy_polls()
                else:
                    state["empty_polls"] += 1
                    cycles = empty_poll_cycles
                    if obs is not None:
                        if charge_empty is not None:
                            charge_empty(cycles)
                        inc_empty_cycles(cycles)
                        inc_empty_polls()
                charge(cycles)
                if obs is not None:
                    if traced_drained:
                        t_done = sim.now + cycles / clock_hz
                        for trace in traced_drained:
                            trace.hop("service_done", t_done)
                    for device in replica.polls:
                        record_occupancy[id(device)](sim.now,
                                                     len(device.queue))
                        dropped = device.queue.dropped
                        if dropped > seen_drops[id(device)]:
                            record_drops[id(device)](
                                sim.now, dropped - seen_drops[id(device)])
                            seen_drops[id(device)] = dropped
                schedule_timer(cycles / clock_hz, poll)
            return poll

        for replica in self.replicas:
            sim.schedule(0.0, make_poll_loop(replica))
        sim.run(until=duration_sec)
        advance(duration_sec)

        dropped = sum(queue.dropped for queue in rx_queues) - drops_before
        backlog = sum(len(queue) for queue in rx_queues)
        for replica in self.replicas:
            backlog += sum(len(queue) for queue, _ in replica.pulls)
        return TimedRunReport(
            offered_packets=offered,
            forwarded_packets=state["forwarded"],
            dropped_packets=dropped,
            duration_sec=duration_sec,
            packet_bytes=self.packet_bytes,
            empty_polls=state["empty_polls"],
            total_polls=state["polls"],
            residual_backlog=backlog,
        )

    def find_loss_free_rate(self, low_bps: float = 0.5e9,
                            high_bps: float = 30e9,
                            tolerance_bps: float = 0.25e9,
                            duration_sec: float = 2e-3) -> float:
        """Binary-search the maximum loss-free rate (the Sec. 5.1 metric)."""
        return _find_loss_free_rate(
            self, 2 * self.kp * len(self._rx_queues()),
            low_bps, high_bps, tolerance_bps, duration_sec)
