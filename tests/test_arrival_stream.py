"""Arrivals are realized where *and when* they are consumed.

A replayed ``WorkloadSpec`` streams into a partition's event queue
``ARRIVAL_CHUNK`` arrivals at a time (``Simulator.schedule_stream``), so
a run holds what is in flight, not the horizon.  Pinned here: the chunked filer executes
exactly what filing every entry up front would (ties included), the
memory bound is a property of the run and not of one benchmark's size,
and the contracts that moved with the totals -- ``offered_packets`` and
the packet-id floor are known when the run ends, not when it is built.
"""

import gc
import heapq
import itertools
import os
import random
import subprocess
import sys
from functools import partial

import pytest

import repro
from repro.core import RouteBricksRouter
from repro.errors import SimulationError
from repro.net.packet import packet_id_floor
from repro.obs.metrics import MetricsRegistry
from repro.parallel import simulate_parallel
from repro.core import partition
from repro.simnet.engine import Simulator
from repro.workloads import WorkloadSpec
from repro.workloads.matrices import TrafficMatrix, uniform_matrix

from .test_parallel import UNTIL, _report_scalars, _router, _workload

GRID = 1e-6


# -- (a) the engine's chunked filer -------------------------------------------


def _stream_times(seed, count):
    """Ascending times on a coarse grid: most entries tie with another."""
    rng = random.Random(seed)
    return sorted(rng.randrange(0, count // 3) * GRID for _ in range(count))


def _scenario(file_stream, times, drive):
    """Events armed before the stream, the stream (callbacks scheduling
    at equal and later grid times), and events filed after it; returns
    what ran, in order."""
    sim = Simulator()
    log = []

    def mark(label):
        log.append((sim.now, label))

    def marker(label):
        return lambda: mark(label)

    for tick in range(0, len(times) // 3, 2):
        sim.schedule_timer_at(tick * GRID, marker("before-%d" % tick))

    def arrival(index):
        def run():
            mark("arrival-%d" % index)
            sim.schedule_timer(0.0, marker("same-time-%d" % index))
            sim.schedule_timer(GRID * (1 + index % 3),
                               marker("later-%d" % index))
        return run

    file_stream(sim, ((time, arrival(index))
                      for index, time in enumerate(times)))
    for tick in range(1, len(times) // 3, 2):
        sim.schedule_timer_at(tick * GRID, marker("after-%d" % tick))
    drive(sim)
    assert sim.peek_time() is None
    return log, sim.events_run


def _file_up_front(sim, entries):
    for time, callback in entries:
        sim.schedule_timer_at(time, callback)


def _chunked(entries, size):
    entries = iter(entries)
    return iter(lambda: list(itertools.islice(entries, size)), [])


def _file_streamed(size):
    return lambda sim, entries: sim.schedule_stream(_chunked(entries, size))


def _run_all(sim):
    sim.run()


def _run_in_budgets(sim):
    """Slices of about seven events: each runs to the time of the
    seventh event pending when it starts."""
    while sim.peek_time() is not None:
        sim.run(until=heapq.nsmallest(7, sim._queue)[-1][0])


def _run_in_windows(sim):
    until = 0.0
    while sim.peek_time() is not None:
        until += 2.5 * GRID
        sim.run(until=until)


class TestChunkedFiler:
    COUNT = 60

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1, 2, COUNT, COUNT + 1])
    @pytest.mark.parametrize("drive",
                             [_run_all, _run_in_budgets, _run_in_windows])
    def test_runs_what_filing_up_front_runs(self, seed, chunk, drive):
        times = _stream_times(seed, self.COUNT)
        assert len(set(times)) < len(times)     # forced ties
        expected = _scenario(_file_up_front, times, _run_all)
        assert len(expected[0]) == expected[1] > 3 * self.COUNT
        assert _scenario(_file_streamed(chunk), times, drive) == expected

    def test_queue_holds_a_chunk_not_the_stream(self):
        sim = Simulator()
        pulled = []

        def entries():
            for index in range(100):
                pulled.append(index)
                yield index * GRID, lambda: None

        sim.schedule_stream(_chunked(entries(), 8))
        assert len(pulled) == 8
        sim.run(until=6 * GRID)
        assert len(pulled) == 8 and sim.events_run == 7
        sim.run(until=7 * GRID)     # the chunk's last entry files the next
        assert len(pulled) == 16
        sim.run()
        assert len(pulled) == 100 and sim.events_run == 100

    def test_one_chunk_need_not_be_sorted(self):
        times = _stream_times(4, self.COUNT)
        random.Random(4).shuffle(times)

        def shuffled_ties_in_time_order(file_stream):
            sim = Simulator()
            log = []
            file_stream(sim, [(time, partial(log.append, (time, index)))
                              for index, time in enumerate(times)])
            sim.run()
            return log

        log = shuffled_ties_in_time_order(_file_streamed(self.COUNT))
        assert log == shuffled_ties_in_time_order(_file_up_front)
        assert log == sorted(log)

    @pytest.mark.parametrize("chunks", [[], [[]]])
    def test_empty_stream_files_nothing(self, chunks):
        sim = Simulator()
        sim.schedule_stream(chunks)
        assert sim.peek_time() is None
        sim.run()
        assert sim.events_run == 0

    def test_stepping_backwards_across_a_chunk_boundary_raises(self):
        sim = Simulator()
        sim.schedule_stream([[(1 * GRID, lambda: None),
                              (3 * GRID, lambda: None)],
                             [(2 * GRID, lambda: None)]])
        with pytest.raises(SimulationError, match="cannot schedule at"):
            sim.run()


# -- (b) the bound ------------------------------------------------------------


def _whole_partition(router, workload, until):
    return router._whole_cluster_partition(
        MetricsRegistry(enabled=False), workload=workload, until=until,
        packet_id_base=packet_id_floor())


def _pending(part):
    return len(part.sim._queue)


class TestMemoryBound:
    def test_queue_depth_does_not_grow_with_the_horizon(self):
        router = _router()
        workload = _workload(router, load=0.5)
        high_water, offered = [], []
        for until in (3e-4, 3e-3):
            part = _whole_partition(router, workload, until)
            deepest = _pending(part)
            steps = round(until / 1e-5)
            for step in range(1, steps + 1):
                part.advance(until * step / steps)
                deepest = max(deepest, _pending(part))
            high_water.append(deepest)
            offered.append(part.finish().offered_packets)
        assert offered[1] > 9 * offered[0]
        assert high_water[1] <= 1.25 * high_water[0]
        assert high_water[1] < offered[1] / 10

    def test_peak_rss_does_not_grow_with_the_horizon(self):
        # Filing every arrival up front cost ~1.1 kB per offered packet
        # (+120 MiB between these horizons); what is left is the ~70 B
        # per delivered one of the latency histogram and the reordering
        # meter (+7 MiB here).
        script = (
            "import resource, sys\n"
            "from repro.core import RouteBricksRouter\n"
            "from repro.workloads import WorkloadSpec\n"
            "from repro.workloads.matrices import uniform_matrix\n"
            "router = RouteBricksRouter(num_nodes=8, seed=11)\n"
            "workload = WorkloadSpec.fixed(64).with_matrix(\n"
            "    uniform_matrix(8, router.port_rate_bps * 0.5))\n"
            "report = router.simulate(workload, until=float(sys.argv[1]))\n"
            "print(report.offered_packets, resource.getrusage(\n"
            "    resource.RUSAGE_SELF).ru_maxrss)\n")
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source, PYTHONHASHSEED="0")
        offered, rss_kib = zip(*(
            map(int, subprocess.run(
                [sys.executable, "-c", script, until], env=env, check=True,
                capture_output=True, text=True).stdout.split())
            for until in ("3e-4", "1.5e-3")))
        assert offered[1] > 4.5 * offered[0]
        assert (rss_kib[1] - rss_kib[0]) / 1024 < 12


class TestCyclicGarbage:
    def test_does_not_grow_with_the_horizon(self):
        # ``Simulator.run`` pauses the collector, which is safe only while
        # what a run leaves for it is bounded, not one cycle per packet:
        # count it at the RB8 benchmark scenario and at 4x its horizon.
        def garbage(until):
            enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                router = RouteBricksRouter(num_nodes=8, seed=20090917,
                                           port_rate_bps=10e9)
                report = router.simulate(
                    WorkloadSpec.fixed(64, seed=20090917).with_matrix(
                        uniform_matrix(8, 10e9 * 0.5)), until=until)
                offered = report.offered_packets
                del router, report
                return offered, gc.collect()
            finally:
                if enabled:
                    gc.enable()

        (offered_1, garbage_1), (offered_4, garbage_4) = (
            garbage(until) for until in (0.3e-3, 1.2e-3))
        assert offered_4 > 3.5 * offered_1
        assert garbage_4 <= 1.1 * garbage_1


# -- (c) the contracts that moved with the totals -----------------------------


class TestOfferedIsKnownAtFinish:
    @pytest.mark.parametrize("workers,backend", [
        (1, "inline"), (2, "inline"), (4, "inline"),
        (2, "process"), (4, "process")])
    def test_offered_is_the_whole_stream(self, workers, backend):
        router = _router()
        workload = _workload(router)
        report = simulate_parallel(router, workload, until=UNTIL,
                                   workers=workers, backend=backend)
        assert report.offered_packets == len(list(workload.events(UNTIL)))

    def test_event_list_arrivals_after_the_horizon_count_as_offered(self):
        router = _router()
        events = list(_workload(router).events(UNTIL))
        report = router.simulate(events, until=UNTIL / 3)
        assert report.offered_packets == len(events)
        assert report.delivered_packets < len(events) / 2

    def test_unsorted_event_list_runs_as_its_stable_sort(self):
        router = _router()

        def coarse_events():
            # A 1 us grid, so the order among ties matters.
            return [(round(time / GRID) * GRID, ingress, egress, packet)
                    for time, ingress, egress, packet
                    in _workload(router).events(UNTIL)]

        order = list(range(len(coarse_events())))
        random.Random(5).shuffle(order)
        shuffled, twin = ([events[i] for i in order]
                          for events in (coarse_events(), coarse_events()))
        times = [event[0] for event in shuffled]
        assert times != sorted(times) and len(set(times)) < len(times) / 4
        assert (_report_scalars(router.simulate(shuffled, until=UNTIL))
                == _report_scalars(router.simulate(
                    sorted(twin, key=lambda event: event[0]), until=UNTIL)))

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_partition_without_ingress_traffic_counts_the_stream(
            self, backend):
        # Nodes 2 and 3 offer nothing (zero matrix rows): their partition
        # files no arrival and must still count every one.
        router = _router()
        demand = router.port_rate_bps * 0.1
        workload = WorkloadSpec.fixed(64).with_matrix(TrafficMatrix(
            [[0, demand, demand, demand], [demand, 0, demand, demand],
             [0, 0, 0, 0], [0, 0, 0, 0]]))
        total = len(list(workload.events(UNTIL)))
        report = simulate_parallel(router, workload, until=UNTIL,
                                   workers=2, backend=backend)
        assert report.offered_packets == total > 0
        assert (_report_scalars(report) == _report_scalars(
            router.simulate(workload, until=UNTIL)))


class TestQueueNeverLooksDrained:
    """The early-drain / ``next_tick`` rule and the resequencer's
    ``expire_all`` re-arm both read ``peek_time()``: it must not say
    "empty" between two chunks."""

    @pytest.mark.parametrize("assignment,partition_id", [
        ((0, 0, 0, 0), 0), ((0, 0, 1, 1), 1)])
    def test_peek_time_is_set_while_an_owned_arrival_remains(
            self, monkeypatch, assignment, partition_id):
        monkeypatch.setattr(partition, "ARRIVAL_CHUNK", 8)
        router = _router()
        workload = _workload(router)
        owned = sum(1 for _, ingress, _, _ in workload.events(1e-4)
                    if assignment[ingress] == partition_id)
        part = partition.ClusterPartition(partition.PartitionSpec(
            router=router, assignment=assignment,
            partition_id=partition_id,
            registry=MetricsRegistry(enabled=False), workload=workload,
            until=1e-4, packet_id_base=packet_id_floor()))
        admitted = 0
        while admitted < owned:
            assert part.peek_time() is not None
            part.sim.run(until=part.peek_time())
            admitted = sum(node.ingress_packets
                           for node in part.nodes.values())
        assert owned > 8 * 4

    def test_resequenced_run_is_the_same_at_any_chunk_size(
            self, monkeypatch):
        router = _router(resequence=True, use_flowlets=False)
        workload = _workload(router, load=0.6)
        expected = _report_scalars(router.simulate(workload, until=UNTIL))
        monkeypatch.setattr(partition, "ARRIVAL_CHUNK", 3)
        assert _report_scalars(
            router.simulate(workload, until=UNTIL)) == expected


class TestPacketIdFloor:
    def test_counter_rests_during_the_run_and_clears_it_after(self):
        router = _router()
        workload = _workload(router)
        base = packet_id_floor()
        part = _whole_partition(router, workload, UNTIL)
        assert packet_id_floor() == base
        part.advance(UNTIL)
        offered = part.finish().offered_packets
        assert packet_id_floor() == base
        for workers in (1, 2):
            base = packet_id_floor()
            report = simulate_parallel(router, workload, until=UNTIL,
                                       workers=workers, backend="inline")
            assert report.offered_packets == offered
            assert packet_id_floor() >= base + offered
