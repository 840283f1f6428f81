"""Arrivals are realized where they are consumed.

Each partition replays the run's seeded arrival stream and builds
packets only for the ingress nodes it owns; the parent realizes nothing.
Pinned here: what that must not change (a caller's event list gives the
same run, packet ids are ``base + position`` at any worker count) and
what it must guarantee (no foreign builds, a spec whose size does not
grow with the horizon, bad workloads refused before any process exists,
the moved cost still reported).
"""

import itertools
import multiprocessing
import pickle

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.packet import Packet
from repro.obs.metrics import MetricsRegistry
from repro.parallel import runner, simulate_parallel
from repro.workloads import WorkloadSpec
from repro.workloads.matrices import uniform_matrix

from .test_parallel import (
    UNTIL,
    _normalize,
    _registry,
    _report_scalars,
    _router,
    _workload,
)


class TestEventListInput:
    """A caller's event list is split by owner in the parent and rides
    the specs as live packets; it must give the run the workload gives."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_event_list_matches_workload_input(self, backend):
        router = _router()
        outcomes = []
        for events in (_workload(router),
                       list(_workload(router).events(UNTIL))):
            registry = _registry()
            report = simulate_parallel(router, events, until=UNTIL,
                                       workers=2, backend=backend,
                                       metrics=registry)
            outcomes.append((_report_scalars(report),
                             _normalize(registry.snapshot())))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0]["offered"] > 0


class TestReplay:
    def test_no_foreign_builds(self, monkeypatch):
        # Four partitions each replay the whole stream, but a packet is
        # built once: by the partition that owns its ingress node.
        built = []
        build = Packet.udp

        def counting(*args, **kwargs):
            built.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(Packet, "udp", staticmethod(counting))
        router = _router()
        report = simulate_parallel(router, _workload(router), until=UNTIL,
                                   workers=4, backend="inline")
        assert len(built) == report.offered_packets > 0

    def test_spec_size_does_not_grow_with_the_horizon(self, monkeypatch):
        class Captured(Exception):
            pass

        def capture(specs):
            raise Captured(specs)

        monkeypatch.setattr(runner, "_InlineBackend", capture)
        router = _router()
        sizes = []
        for until in (3e-4, 3e-2):
            with pytest.raises(Captured) as caught:
                simulate_parallel(router, _workload(router), until=until,
                                  workers=2, backend="inline")
            sizes.append([len(pickle.dumps(spec))
                          for spec in caught.value.args[0]])
        assert sizes[0] == sizes[1]
        assert max(sizes[0]) < 4096

    def test_setup_seconds_stay_on_the_ledger(self):
        router = _router()
        report = simulate_parallel(router, _workload(router), until=UNTIL,
                                   workers=2, backend="inline",
                                   metrics=_registry())
        assert len(report.partition_setup_seconds) == 2
        assert all(s > 0.0 for s in report.partition_setup_seconds)
        single = router.simulate(_workload(router), until=UNTIL)
        assert single.partition_setup_seconds == []


class TestPacketIds:
    """A packet's id is the run's base + its position in the arrival
    stream, whoever builds it and in whichever process."""

    @staticmethod
    def _run(workers, backend="inline"):
        router = _router()
        workload = _workload(router)
        times = [time for time, _, _, _ in workload.events(UNTIL)]
        registry = MetricsRegistry(enabled=True, trace_sample_every=7)
        base = Packet(64).packet_id + 1
        report = simulate_parallel(router, workload, until=UNTIL,
                                   workers=workers, backend=backend,
                                   metrics=registry)
        traces = registry.tracer.traces
        assert len(traces) > 10
        assert len(times) == report.offered_packets
        return base, report.offered_packets, times, traces

    @pytest.mark.parametrize("workers,backend", [
        (1, "inline"), (2, "inline"), (4, "inline"), (2, "process")])
    def test_ids_are_base_plus_stream_position(self, workers, backend):
        base, _, times, traces = self._run(workers, backend)
        for trace in traces:
            assert trace.packet_id == base + times.index(trace.started)

    def test_runs_use_disjoint_ranges_and_fresh_ids_clear_them(self):
        first_base, first_offered, _, first_traces = self._run(2)
        second_base, second_offered, _, second_traces = self._run(2)
        assert second_base >= first_base + first_offered
        assert (max(t.packet_id for t in first_traces)
                < min(t.packet_id for t in second_traces))
        assert Packet(64).packet_id >= second_base + second_offered


def _forbid_worker_pools(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was created")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)


class TestFailEarly:
    @pytest.mark.parametrize("make_workload,until,match", [
        (lambda router: WorkloadSpec.fixed(64), UNTIL, "no traffic matrix"),
        (lambda router: WorkloadSpec.fixed(64).with_matrix(
            uniform_matrix(router.num_nodes + 1, 1e9)), UNTIL,
         "5x5 but the cluster has 4 nodes"),
        (_workload, 0.0, "positive horizon"),
        (_workload, -1e-3, "positive horizon"),
        # Each partition would realise an endless stream / never see the
        # horizon (every comparison against nan is false).
        (_workload, float("inf"), "finite, positive horizon"),
        (_workload, float("nan"), "finite, positive horizon"),
        (_workload, None, "finite, positive horizon"),
    ])
    def test_bad_workload_is_refused_before_any_process_exists(
            self, monkeypatch, make_workload, until, match):
        _forbid_worker_pools(monkeypatch)
        router = _router()
        with pytest.raises(ConfigurationError, match=match):
            simulate_parallel(router, make_workload(router), until=until,
                              workers=2, backend="process")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("until", [float("nan"), float("inf"), 0.0])
    def test_single_heap_refuses_a_horizon_it_cannot_reach(self, until):
        router = _router()
        for events in (_workload(router), []):
            with pytest.raises(ConfigurationError, match="positive horizon"):
                router.simulate(events, until=until)

    def test_bad_event_list_is_refused_before_any_process_exists(
            self, monkeypatch):
        _forbid_worker_pools(monkeypatch)
        router = _router()
        events = [(1e-6, router.num_nodes, 0, Packet(64))]
        with pytest.raises(ConfigurationError, match="bad ingress node"):
            simulate_parallel(router, events, until=UNTIL, workers=2,
                              backend="process")

    def test_partitions_disagreeing_on_offered_raise(self, monkeypatch):
        events = WorkloadSpec.events

        def short_for_followers(self, duration_sec, owned=None,
                                id_base=None):
            stream = events(self, duration_sec, owned=owned,
                            id_base=id_base)
            if owned is not None and 0 not in owned:
                stream = itertools.islice(stream, 10)
            return stream

        monkeypatch.setattr(WorkloadSpec, "events", short_for_followers)
        router = _router()
        full = sum(1 for _ in _workload(router).events(UNTIL))
        with pytest.raises(SimulationError,
                           match=r"counted \[%d, 10\] offered" % full):
            simulate_parallel(router, _workload(router), until=UNTIL,
                              workers=2, backend="inline")
