"""Tests for the timed single-server forwarding simulation."""

import dataclasses
import math

import pytest

from repro import calibration as cal
from repro.click import simrun
from repro.click.pipelines import PRESET_PIPELINES
from repro.click.simrun import TimedForwardingRun, TimedPipelineRun
from repro.errors import ConfigurationError
from repro.hw import nehalem_server
from repro.hw.presets import NEHALEM
from repro.obs.metrics import MetricsRegistry
from repro.simnet.engine import Simulator


@pytest.fixture
def run():
    return TimedForwardingRun(nehalem_server(num_ports=4, queues_per_port=2))


class TestTimedRuns:
    def test_below_saturation_loss_free(self, run):
        report = run.run(offered_bps=5e9, duration_sec=1e-3)
        assert report.loss_free
        assert report.achieved_gbps == pytest.approx(5.0, rel=0.02)

    def test_above_saturation_plateaus(self, run):
        report = run.run(offered_bps=14e9, duration_sec=2e-3)
        # Achieved rate plateaus near the model's 9.77 Gbps.
        assert report.achieved_gbps == pytest.approx(9.8, rel=0.05)
        assert not report.sustainable(max_backlog_packets=64)

    def test_empty_polls_fall_with_load(self, run):
        light = run.run(offered_bps=2e9, duration_sec=1e-3)
        heavy = run.run(offered_bps=9e9, duration_sec=1e-3)
        assert heavy.empty_polls < light.empty_polls

    def test_loss_free_search_matches_table1_row3(self, run):
        rate = run.find_loss_free_rate(tolerance_bps=0.3e9)
        assert rate / 1e9 == pytest.approx(9.77, rel=0.07)

    def test_no_batching_matches_table1_row1(self):
        run = TimedForwardingRun(
            nehalem_server(num_ports=4, queues_per_port=2), kp=1, kn=1)
        rate = run.find_loss_free_rate(low_bps=0.2e9, high_bps=5e9,
                                       tolerance_bps=0.1e9)
        assert rate / 1e9 == pytest.approx(1.46, rel=0.1)

    def test_cycles_charged_to_cores(self, run):
        run.run(offered_bps=5e9, duration_sec=1e-3)
        used = [core.cycles_used for core in run.server.cores]
        assert all(u > 0 for u in used)
        # Utilization below 1.0: the offered load is under saturation.
        for core in run.server.cores:
            assert core.utilization(1e-3) <= 1.01

    def test_bad_params(self, run):
        with pytest.raises(ConfigurationError):
            run.run(offered_bps=0)
        with pytest.raises(ConfigurationError):
            run.find_loss_free_rate(low_bps=5e9, high_bps=1e9)
        with pytest.raises(ConfigurationError):
            TimedForwardingRun(nehalem_server(num_ports=4, queues_per_port=2),
                               kp=0)

    def test_needs_enough_queues(self):
        # 8 cores but only 4 single-queue ports -> cannot pair 1:1.
        server = nehalem_server(num_ports=4, queues_per_port=1)
        with pytest.raises(ConfigurationError):
            TimedForwardingRun(server)


def _record_sims(monkeypatch):
    """Collect every Simulator the runners build (for ``events_run``)."""
    sims = []

    class Recorded(Simulator):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            sims.append(self)

    monkeypatch.setattr(simrun, "Simulator", Recorded)
    return sims


def _forwarding(server, registry):
    return TimedForwardingRun(server, kp=32, kn=16, metrics=registry), \
        14.6e9     # over the loss-free rate: drops and full bursts


def _pipeline(server, registry):
    return TimedPipelineRun(server, "routing", kp=8, kn=4,
                            metrics=registry), 4e9


def _pollers(run):
    """How many poll loops a run drives (one per core it uses)."""
    if isinstance(run, TimedPipelineRun):
        return len(run.threads)
    return len(run.server.cores)


#: Each test below runs once per runner, under the builder's name.
both_runners = pytest.mark.parametrize(
    "build", [_forwarding, _pipeline], ids=lambda build: build.__name__)


def _idle(build):
    """A runner with the registry off, built as ``build`` builds it."""
    run, _ = build(nehalem_server(num_ports=4, queues_per_port=2),
                   MetricsRegistry(enabled=False))
    return run


class TestBadInput:
    """Bad input fails with ``ConfigurationError`` before anything runs."""

    @pytest.mark.parametrize("offered_bps, duration_sec", [
        (math.nan, 1e-4), (math.inf, 1e-4), (1e9, math.nan),
        (1e9, math.inf)])
    @both_runners
    def test_run_needs_a_finite_load_and_horizon(self, build, offered_bps,
                                                 duration_sec):
        with pytest.raises(ConfigurationError, match="finite"):
            _idle(build).run(offered_bps, duration_sec=duration_sec)

    @staticmethod
    def _scripted(build, ceiling_bps):
        """A runner whose ``run`` is a stub: sustainable below
        ``ceiling_bps``, and it records each rate it is asked for."""
        run = _idle(build)
        asked = []

        def scripted(offered_bps, duration_sec):
            asked.append(offered_bps)
            assert len(asked) < 200, "the search does not stop"
            return simrun.TimedRunReport(
                offered_packets=1, forwarded_packets=1,
                dropped_packets=int(offered_bps >= ceiling_bps),
                duration_sec=duration_sec, packet_bytes=64,
                empty_polls=0, total_polls=1)
        run.run = scripted
        return run, asked

    @pytest.mark.parametrize("bounds", [
        {"tolerance_bps": 0.0}, {"tolerance_bps": -1e9},
        {"tolerance_bps": math.nan}, {"tolerance_bps": math.inf},
        {"low_bps": math.nan}, {"low_bps": -math.inf},
        {"high_bps": math.nan}, {"high_bps": math.inf}],
        ids=lambda bounds: "%s=%s" % next(iter(bounds.items())))
    @both_runners
    def test_loss_free_search_needs_finite_bounds(self, build, bounds):
        run, asked = self._scripted(build, 5e9)
        with pytest.raises(ConfigurationError):
            run.find_loss_free_rate(**bounds)
        assert asked == []

    @both_runners
    def test_loss_free_search_stops_at_float_resolution(self, build):
        """A tolerance finer than the bounds' float spacing: ``mid``
        rounds onto a bound, so the search stops there."""
        run, asked = self._scripted(build, 1e9 + 0.5)
        rate = run.find_loss_free_rate(low_bps=1e9, high_bps=1e9 + 1,
                                       tolerance_bps=1e-12)
        assert rate < 1e9 + 0.5 <= math.nextafter(rate, math.inf)
        assert len(asked) < 30


class TestObservingAPipelineChangesNothing:
    """The registry only watches: a ``TimedPipelineRun`` with profile and
    1-in-16 traces on reports, runs and charges exactly what it does with
    the registry off, under its loss-free rate and over it."""

    @staticmethod
    def _run(monkeypatch, preset, offered_bps, registry):
        sims = _record_sims(monkeypatch)
        server = nehalem_server(num_ports=4, queues_per_port=2)
        report = TimedPipelineRun(server, preset, kp=8, kn=4,
                                  metrics=registry).run(
            offered_bps, duration_sec=2e-4, seed=3)
        sim, = sims
        return (report, sim.events_run,
                [core.cycles_used for core in server.cores])

    @pytest.mark.parametrize("offered_bps", [0.25e9, 20e9],
                             ids=["under", "over"])
    @pytest.mark.parametrize("preset", sorted(PRESET_PIPELINES))
    def test_observed_equals_unobserved(self, monkeypatch, preset,
                                        offered_bps):
        registry = MetricsRegistry(enabled=True, trace_sample_every=16,
                                   profile=True)
        observed = self._run(monkeypatch, preset, offered_bps, registry)
        assert observed == self._run(monkeypatch, preset, offered_bps,
                                     MetricsRegistry(enabled=False))
        report = observed[0]
        assert report.forwarded_packets > 0
        assert report.loss_free == (offered_bps < 1e9)
        assert registry.tracer.sampled > 0


class TestAClickQueueHandoff:
    """A ``Queue`` between the polls and the send: each replica's thread
    drains it with a pull task, at most ``kp`` packets per poll."""

    ONE_POLL = """
        src :: PollDevice(0);
        q :: Queue;
        src -> q -> ToDevice(0);
    """
    TWO_POLLS = """
        a :: PollDevice(0);
        b :: PollDevice(1);
        q :: Queue;
        a -> q;
        b -> q;
        q -> ToDevice(0);
    """

    def test_low_load_forwards_everything(self):
        run = TimedPipelineRun(nehalem_server(num_ports=1, queues_per_port=2),
                               self.ONE_POLL, kp=8, kn=4)
        report = run.run(1e9, duration_sec=2e-4)
        assert report.offered_packets > 300
        assert (report.forwarded_packets, report.dropped_packets,
                report.residual_backlog) == (report.offered_packets, 0, 0)
        assert sum(graph["q"].packets_in
                   for graph in run.graphs) == report.forwarded_packets

    def test_the_backlog_counts_the_click_queue(self):
        """Two polls push up to 2 * kp per poll and the pull moves kp, so
        under load the Click queue holds packets at the horizon."""
        run = TimedPipelineRun(nehalem_server(num_ports=2, queues_per_port=2),
                               self.TWO_POLLS, kp=8, kn=4)
        report = run.run(3e9, duration_sec=2e-4)
        in_click = sum(len(graph["q"]) for graph in run.graphs)
        in_rings = sum(len(graph[name].queue) for graph in run.graphs
                       for name in ("a", "b"))
        assert in_click > 0 and report.dropped_packets == 0
        assert report.residual_backlog == in_rings + in_click
        assert report.offered_packets == (report.forwarded_packets
                                          + report.residual_backlog)
        # The next run starts from empty queues, as from empty rings.
        report = run.run(0.2e9, duration_sec=2e-4)
        assert (report.forwarded_packets, report.residual_backlog) == (
            report.offered_packets, 0)

    @pytest.mark.parametrize("queue", ["Queue(16)", "RedQueue(16)",
                                       "DropFrontQueue(16)"])
    def test_a_full_click_queue_is_a_drop(self, queue):
        """A 16-slot queue overflows under the same load: its losses are
        drops, so every offered packet is forwarded, dropped or held."""
        run = TimedPipelineRun(nehalem_server(num_ports=2, queues_per_port=2),
                               self.TWO_POLLS.replace("Queue;", queue + ";"),
                               kp=8, kn=4)
        report = run.run(3e9, duration_sec=2e-4)
        queue_drops = sum(graph["q"].packets_dropped for graph in run.graphs)
        assert queue_drops > 0
        assert report.dropped_packets == queue_drops
        assert report.offered_packets == (report.forwarded_packets
                                          + report.dropped_packets
                                          + report.residual_backlog)
        assert not report.sustainable(2 * run.kp * 4)


def test_a_full_tx_ring_is_a_drop():
    """Two polls of 512 push 1,024 packets into one 512-slot TX ring
    before the drain: the overflow is a drop, as an RX ring's is."""
    run = TimedPipelineRun(nehalem_server(num_ports=2, queues_per_port=1), """
        a :: PollDevice(0);
        b :: PollDevice(1);
        t :: ToDevice(0);
        a -> t;
        b -> t;
    """, kp=512, kn=16)
    report = run.run(20e9, duration_sec=2e-4)
    assert run.graphs[0]["t"].packets_dropped > 0
    assert report.offered_packets == (report.forwarded_packets
                                      + report.dropped_packets
                                      + report.residual_backlog)


class TestAnArrivalIsNotAnEvent:
    """Arrivals fill the RX rings when a poll looks (polling mode), so a
    run executes its polls -- plus, per core, at most the one that lands
    exactly on the horizon and returns uncounted -- and nothing else."""

    @pytest.mark.parametrize("offered_bps", [0.3e9, 5e9, 14.6e9])
    @both_runners
    def test_events_are_the_polls(self, monkeypatch, build, offered_bps):
        sims = _record_sims(monkeypatch)
        run, _ = build(nehalem_server(num_ports=4, queues_per_port=2),
                       MetricsRegistry(enabled=False))
        report = run.run(offered_bps, duration_sec=1e-4)
        sim, = sims
        assert report.offered_packets > 0
        assert (report.total_polls <= sim.events_run
                <= report.total_polls + _pollers(run))


#: One empty poll's delay: an arrival gap of exactly this puts arrival k
#: and a poll of an idle core at the same float instant.
EMPTY_POLL_DELAY = cal.EMPTY_POLL_CYCLES / NEHALEM.clock_hz


def _tie_run(build, registry):
    """A run whose RX ring 1 is polled by a core of its own."""
    if build is _forwarding:
        return TimedForwardingRun(
            nehalem_server(num_ports=4, queues_per_port=2), metrics=registry)
    return TimedPipelineRun(nehalem_server(num_ports=1, queues_per_port=2),
                            "forwarding", metrics=registry)


class TestArrivalEdges:
    @both_runners
    def test_an_arrival_at_a_polls_instant_is_popped_by_it(self, build):
        """Arrival 1 (RX ring 1) lands at t = dt; ring 1's core polled
        empty at t = 0, so its next poll is at 0 + dt, the same float.
        The arrival is pushed first and that poll picks it up."""
        registry = MetricsRegistry(enabled=True, trace_sample_every=1)
        offered_bps = 64 * 8 / EMPTY_POLL_DELAY
        assert 64 * 8 / offered_bps == EMPTY_POLL_DELAY
        _tie_run(build, registry).run(offered_bps,
                                      duration_sec=4 * EMPTY_POLL_DELAY)
        hops = {hop.site: hop.time for hop in registry.tracer.traces[1].hops}
        assert hops["arrival"] == hops["pickup"] == EMPTY_POLL_DELAY

    def test_arrivals_after_the_last_poll_are_delivered(self, monkeypatch):
        """Every core polls once, at t = 0, and next long after the
        horizon; the other 59 arrivals land in their rings after the
        run, so four-slot rings hold 32 and drop 27."""
        sims = _record_sims(monkeypatch)
        server = nehalem_server(num_ports=4, queues_per_port=2)
        for port in server.ports:
            for queue in port.rx_queues:
                queue.capacity = 4
        slow = dataclasses.replace(cal.MINIMAL_FORWARDING,
                                   cpu_base_cycles=1e12)
        monkeypatch.setattr(cal, "EMPTY_POLL_CYCLES", 1e12)
        monkeypatch.setattr(cal, "MINIMAL_FORWARDING", slow)
        run = TimedForwardingRun(server)
        report = run.run(1e9, duration_sec=60.5 * 512e-9)
        assert (report.offered_packets, report.total_polls,
                report.forwarded_packets, report.residual_backlog,
                report.dropped_packets) == (60, 8, 1, 32, 27)
        assert sims[0].events_run == 8

    @both_runners
    def test_a_horizon_shorter_than_one_gap_offers_nothing(self, build):
        """1 Gbps of 64 B is one packet per 512 ns; a 300 ns run offers
        none, and its cores only poll."""
        run, _ = build(nehalem_server(num_ports=4, queues_per_port=2),
                       MetricsRegistry(enabled=False))
        report = run.run(1e9, duration_sec=300e-9)
        assert (report.offered_packets, report.forwarded_packets,
                report.dropped_packets, report.residual_backlog) == (0, 0, 0, 0)
        assert report.empty_polls == report.total_polls > 0
