"""Timed single-server forwarding runs.

Drives a server's cores in *simulated time*: each core repeatedly polls
its RX queue, pays the calibrated per-packet (or empty-poll) cycle cost,
and advances its own clock accordingly.  The polls are the only events:
as in the paper's polling mode (Sec. 4.2) the NIC fills the RX ring and
a core sees nothing until it polls, so each poll first delivers the
arrivals due by its instant, then charges its core and -- with a
registry on -- makes one ``observe`` call.  This closes the loop between
the analytic model and the DES: at offered loads below the model's
saturation rate the run is loss-free; at higher loads the achieved rate
plateaus at the model's prediction and RX rings overflow -- exactly how
the paper measures the "maximum loss-free forwarding rate" (Sec. 5.1).

Two runners share that discipline: :class:`TimedForwardingRun` charges
minimal forwarding's cost as one number per packet (the original Sec. 5.1
experiment), while :class:`TimedPipelineRun` instantiates an arbitrary
Click configuration once per core (multi-queue replication), runs each
replica on a :mod:`repro.click.scheduler` thread, and charges each
element's :meth:`~repro.click.element.Element.cost` for the packets it
actually handled -- the same price :func:`repro.costs.compile_loads`
sums analytically, which is what makes model-vs-DES agreement checkable
for custom pipelines.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, count, cycle, islice, repeat
from typing import Optional

from .. import calibration as cal
from ..costs import app_vector
from ..errors import ConfigurationError
from ..hw.server import Server
from ..obs.metrics import active_registry
from ..obs.profile import first_poll_after
from ..obs.trace import TRACE_ANNOTATION
from ..simnet.engine import Simulator
from ..workloads.synthetic import FixedSizeWorkload
from .elements.device import PollDevice, ToDevice
from .elements.standard import PacketQueue


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

    def bind_frame(self, *frames: str):
        """A pre-bound profiler charge for ``frames`` (a no-op without a
        profiler)."""
        if self.profiler is None:
            return lambda cycles: None
        return self.profiler.bind(*frames)

    def ring_sampler(self, queue, label: str):
        """The per-poll sample of one RX ring: its occupancy, and the
        drops since the previous sample when there are any."""
        record_occupancy = self.rxq_occupancy.bind(queue=label)
        record_drops = self.rxq_drops.bind(queue=label)
        seen = queue.dropped

        def sample(now: float) -> None:
            nonlocal seen
            record_occupancy(now, len(queue))
            dropped = queue.dropped
            if dropped > seen:
                record_drops(now, dropped - seen)
                seen = dropped
        return sample

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

    def sustainable(self, max_backlog_packets: int) -> bool:
        """Loss-free *and* not merely buffering the excess in the rings."""
        return (self.dropped_packets == 0
                and self.residual_backlog <= max_backlog_packets)


def _check_load(offered_bps: float, duration_sec: float) -> None:
    """Both runners' ``run`` take a finite, positive load and horizon."""
    if not (0 < offered_bps < math.inf and 0 < duration_sec < math.inf):
        raise ConfigurationError(
            "offered load and duration must be finite and > 0")


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
        self.app = cal.MINIMAL_FORWARDING
        self.metrics = metrics
        self.cycles_per_packet = (
            app_vector(self.app, packet_bytes).cpu_cycles
            + cal.bookkeeping_cycles(kp, kn))
        # Pair each core with one RX queue, spreading cores over ports.
        cores = server.cores
        queues = [queue for port in server.ports for queue in port.rx_queues]
        if len(queues) < len(cores):
            raise ConfigurationError(
                "need >= 1 RX queue per core (%d cores, %d queues)"
                % (len(cores), len(queues)))
        self._assignments = list(zip(cores, queues))

    def run(self, offered_bps: float, duration_sec: float = 5e-3,
            seed: int = 0) -> TimedRunReport:
        """Offer fixed-size packets at ``offered_bps`` for ``duration_sec``.

        The polls are the only events.  Nothing downstream of a preset
        application inspects a packet, so RX rings carry token counts
        (:meth:`~repro.hw.nic.NicQueue.push_token`) and a real Packet
        exists only for trace-sampled arrivals.  Each poll pushes the
        arrivals due by its instant (:func:`_arrival_cursor`), pops its
        burst, charges its core the burst's cycles and counts the poll;
        with a registry on it then makes one ``observe`` call (counters,
        ring samples, profiler frame, trace hops).  Last it files its
        successor.  The run holds nothing per poll.
        """
        _check_load(offered_bps, duration_sec)
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
        cycles_for = [cal.EMPTY_POLL_CYCLES] + [
            n * self.cycles_per_packet for n in range(1, self.kp + 1)]
        delay_for = [cycles / clock_hz for cycles in cycles_for]
        forwarded = empty_polls = total_polls = 0

        push_tokens = [queue.push_token for queue in queues]
        if obs is None:
            def arrival(t, push_next=cycle(push_tokens)):
                next(push_next)()
        else:
            # Every packet of this run carries the same app vector, so
            # bus bytes are chargeable per burst without walking elements.
            vec = app_vector(self.app, self.packet_bytes)
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
            # yet picked up.
            pending = [deque() for _ in queues]
            base_enqueued = [queue.enqueued for queue in queues]

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

            app_frame = getattr(self.app, "name", "app")

            def observer(index, core, queue):
                """One core's per-poll counters, ring sample, profiler
                frame and trace hops."""
                core_frame = "core%d" % core.core_id
                (inc_busy_cycles, inc_empty_cycles,
                 inc_busy_polls, inc_empty_polls) = \
                    obs.core_handles(core.core_id)
                empty = (obs.bind_frame(core_frame, "empty_poll"),
                         inc_empty_cycles, inc_empty_polls)
                busy = (obs.bind_frame(core_frame, app_frame),
                        inc_busy_cycles, inc_busy_polls)
                sample_ring = obs.ring_sampler(queue, str(index))
                traced = pending[index]
                # The poll-wait split reads the core's poll times.
                poll_times = []
                popped = 0

                def observe(now, n):
                    nonlocal popped
                    poll_times.append(now)
                    cycles = cycles_for[n]
                    charge_frame, inc_cycles, inc_polls = busy if n else empty
                    charge_frame(cycles)
                    inc_cycles(cycles)
                    inc_polls()
                    sample_ring(now)
                    if not n:
                        return
                    obs.charge_bus(n * vec.mem_bytes, n * vec.io_bytes,
                                   n * vec.pcie_bytes, n * vec.qpi_bytes)
                    popped += n
                    while traced and traced[0][0] < popped:
                        _, trace = traced.popleft()
                        trace.hop("poll", first_poll_after(
                            poll_times, trace.started, now))
                        trace.hop("pickup", now)
                        trace.hop(core_frame, now, note="forwarded")
                        trace.hop("service_done", now + delay_for[n])
                return observe

        advance = _arrival_cursor(offered, interarrival, arrival)
        file_at = sim.timer_filer()
        kp = self.kp

        def make_poll_loop(index, core, queue):
            pop_tokens = queue.pop_tokens
            charge = core.charge
            observe = (observer(index, core, queue) if obs is not None
                       else None)

            def poll():
                nonlocal forwarded, empty_polls, total_polls
                now = sim.now
                if now >= duration_sec:
                    return
                advance(now)
                n = pop_tokens(kp)
                total_polls += 1
                forwarded += n
                if not n:
                    empty_polls += 1
                charge(cycles_for[n])
                if observe is not None:
                    observe(now, n)
                file_at(now + delay_for[n], poll)
            return poll

        for index, (core, queue) in enumerate(self._assignments):
            sim.schedule_timer(0.0, make_poll_loop(index, core, queue))
        sim.run(until=duration_sec)
        advance(duration_sec)
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
    two poll batches per RX ring.  The bisection stops once the bounds
    are within ``tolerance_bps`` or adjacent floats.
    """
    if not 0 < tolerance_bps < math.inf:
        raise ConfigurationError("tolerance must be finite and > 0")
    if not (math.isfinite(low_bps) and math.isfinite(high_bps)):
        raise ConfigurationError("search bounds must be finite")
    if low_bps >= high_bps:
        raise ConfigurationError("need low < high")
    while high_bps - low_bps > tolerance_bps:
        mid = (low_bps + high_bps) / 2
        if not low_bps < mid < high_bps:
            break
        if run.run(mid, duration_sec=duration_sec).sustainable(max_backlog):
            low_bps = mid
        else:
            high_bps = mid
    return low_bps


class TimedPipelineRun:
    """Simulate an arbitrary Click pipeline on one server at offered load.

    The configuration text (or a :data:`~repro.click.pipelines
    .PRESET_PIPELINES` name) is instantiated once per participating core,
    with each replica's device elements bound to NIC queue ``replica`` --
    the multi-queue discipline.  Each replica runs on a
    :class:`~repro.click.scheduler.CoreThread` pinned to its core, which
    owns the replica's elements in graph order: its PollDevices are poll
    tasks and each Click ``Queue`` feeding a peer is a pull task.  A poll
    event is one ``run_once``, the TX-ring drain, and a charge to the
    core for the work the thread booked.
    """

    def __init__(self, server: Server, config_text: str,
                 packet_bytes: int = 64,
                 kp: int = cal.DEFAULT_KP, kn: int = cal.DEFAULT_KN,
                 table=None, esp_context=None,
                 metrics=None):
        from .pipelines import build_pipeline
        from .scheduler import Scheduler
        if not server.ports:
            raise ConfigurationError("server has no ports attached")
        if kp < 1 or not 1 <= kn <= cal.MAX_NIC_BATCH:
            raise ConfigurationError("bad batching parameters")
        self.server = server
        self.packet_bytes = packet_bytes
        self.kp = kp
        self.kn = kn
        self.metrics = metrics
        queues_per_port = min(port.num_queues for port in server.ports)
        scheduler = Scheduler()
        self.graphs = []
        for index in range(min(len(server.cores), queues_per_port)):
            graph = build_pipeline(config_text, server, replica=index,
                                   kp=kp, kn=kn, table=table,
                                   esp_context=esp_context)
            thread = scheduler.spawn(server.cores[index])
            elements = graph.elements()
            for element in elements:
                thread.own(element)
            for element in elements:
                if isinstance(element, PollDevice):
                    thread.add_poll_task(element)
                elif (isinstance(element, PacketQueue)
                      and element.output(0).peer is not None):
                    thread.add_pull_task(element, element.output(0).peer)
            if not thread.poll_tasks:
                raise ConfigurationError(
                    "pipeline has no PollDevice; nothing drives it")
            self.graphs.append(graph)
        self.threads = scheduler.threads

    def _rx_queues(self):
        return [poll.queue for thread in self.threads
                for poll in thread.poll_tasks]

    def _capacity_drops(self) -> int:
        """Packets lost to capacity so far: RX-ring overflows, and every
        drop of a Click queue (it drops only when full or filling) or a
        ToDevice (only when its TX ring is full).  A policy drop (a
        policer, a filter) is the pipeline's verdict, not a loss."""
        return (sum(queue.dropped for queue in self._rx_queues())
                + sum(element.packets_dropped for thread in self.threads
                      for element in thread.owned_elements
                      if isinstance(element, (PacketQueue, ToDevice))))

    def run(self, offered_bps: float, duration_sec: float = 5e-3,
            seed: int = 0) -> TimedRunReport:
        """Offer fixed-size packets at ``offered_bps`` for ``duration_sec``.

        Each poll first delivers the arrivals due by its instant; only a
        replica's own ``PollDevice.run_task`` pops its RX rings.  A poll
        runs its thread once (``CoreThread.run_once``), drains the TX
        rings, charges its core what the thread booked, makes one
        ``observe`` call when a registry is on, and files its successor."""
        _check_load(offered_bps, duration_sec)
        obs = _RunObs.resolve(self.metrics)
        sim = Simulator(metrics=self.metrics)
        workload = FixedSizeWorkload(packet_bytes=self.packet_bytes,
                                     num_flows=len(self.threads) * 8,
                                     seed=seed)
        interarrival = self.packet_bytes * 8 / offered_bps
        offered = int(duration_sec / interarrival)
        packets = workload.packets(offered)

        rx_queues = self._rx_queues()
        drops_before = self._capacity_drops()
        # Clear any residue from a previous run, Click queues included.
        for queue in rx_queues:
            queue.clear()
        for thread in self.threads:
            for queue, _ in thread.pull_tasks:
                while queue.fifo.poll() is not None:
                    pass

        def arrival(t, index=count()):
            packet = next(packets)
            queue = rx_queues[next(index) % len(rx_queues)]
            trace = (obs.tracer.maybe_start(packet, t, "arrival")
                     if obs is not None else None)
            if not queue.push(packet) and trace is not None:
                trace.hop("dropped", t)

        advance = _arrival_cursor(offered, interarrival, arrival)

        clock_hz = self.server.spec.clock_hz
        empty_poll_cycles = cal.EMPTY_POLL_CYCLES
        forwarded = empty_polls = total_polls = 0

        def observer(thread):
            """One replica's per-poll counters, ring samples, profiler
            frames and trace hops."""
            core_frame = "core%d" % thread.core.core_id
            (inc_busy_cycles, inc_empty_cycles,
             inc_busy_polls, inc_empty_polls) = \
                obs.core_handles(thread.core.core_id)
            charge_empty = obs.bind_frame(core_frame, "empty_poll")
            charge_element = {id(e): obs.bind_frame(core_frame, e.name)
                              for e in thread.owned_elements}
            samplers = [obs.ring_sampler(device.queue, device.name)
                        for device in thread.poll_tasks]
            # The poll-wait split reads the replica's poll times.
            poll_times = []

            def observe(now, cycles, work, drained):
                poll_times.append(now)
                if work is None:
                    charge_empty(cycles)
                    inc_empty_cycles(cycles)
                    inc_empty_polls()
                else:
                    mem = io = pcie = qpi = 0.0
                    for element, vec in work:
                        charge_element[id(element)](vec.cpu_cycles)
                        mem += vec.mem_bytes
                        io += vec.io_bytes
                        pcie += vec.pcie_bytes
                        qpi += vec.qpi_bytes
                    obs.charge_bus(mem, io, pcie, qpi)
                    inc_busy_cycles(cycles)
                    inc_busy_polls()
                done = now + cycles / clock_hz
                for device, packets in drained:
                    for packet in packets:
                        trace = packet.annotations.get(TRACE_ANNOTATION)
                        if trace is not None:
                            trace.hop("poll", first_poll_after(
                                poll_times, trace.started, now))
                            trace.hop("pickup", now)
                            trace.hop(device.name, now, note="tx")
                            trace.hop("service_done", done)
                for sample in samplers:
                    sample(now)
            return observe

        # As in TimedForwardingRun, polls are homogeneous high-rate
        # timers: the handle-free front.
        schedule_timer = sim.schedule_timer
        kp = self.kp

        def make_poll_loop(thread):
            run_once = thread.run_once
            book_work = thread.book_work
            tos = [element for element in thread.owned_elements
                   if isinstance(element, ToDevice)]
            charge = thread.core.charge
            observe = observer(thread) if obs is not None else None

            def poll():
                nonlocal forwarded, empty_polls, total_polls
                now = sim.now
                if now >= duration_sec:
                    return
                advance(now)
                total_polls += 1
                moved = run_once(kp)
                drained = [(device, device.drain()) for device in tos]
                forwarded += sum(len(packets) for _, packets in drained)
                if moved:
                    work = book_work()
                    cycles = sum(vec.cpu_cycles for _, vec in work)
                else:
                    empty_polls += 1
                    cycles = empty_poll_cycles
                    work = None
                charge(cycles)
                if observe is not None:
                    observe(now, cycles, work, drained)
                schedule_timer(cycles / clock_hz, poll)
            return poll

        for thread in self.threads:
            sim.schedule_timer(0.0, make_poll_loop(thread))
        sim.run(until=duration_sec)
        advance(duration_sec)

        dropped = self._capacity_drops() - drops_before
        backlog = sum(len(queue) for queue in rx_queues)
        for thread in self.threads:
            backlog += sum(len(queue) for queue, _ in thread.pull_tasks)
        return TimedRunReport(
            offered_packets=offered,
            forwarded_packets=forwarded,
            dropped_packets=dropped,
            duration_sec=duration_sec,
            packet_bytes=self.packet_bytes,
            empty_polls=empty_polls,
            total_polls=total_polls,
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
