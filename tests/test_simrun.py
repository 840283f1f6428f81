"""Tests for the timed single-server forwarding simulation."""

import pytest

from repro.click import simrun
from repro.click.simrun import TimedForwardingRun, TimedPipelineRun
from repro.errors import ConfigurationError
from repro.hw import nehalem_server
from repro.obs.metrics import MetricsRegistry
from repro.simnet.engine import Simulator

from .test_batch import _snapshot_digest


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
        run.server.reset_ledgers()
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


class TestChunkBoundaryIsUnobservable:
    """``REPLAY_CHUNK`` bounds what a run holds; nothing it reports --
    scalars, cycles, event count, registry snapshot -- may depend on it."""

    @staticmethod
    def _forwarding(server, registry):
        return TimedForwardingRun(server, kp=32, kn=16, metrics=registry), \
            14.6e9     # over the loss-free rate: drops and full bursts

    @staticmethod
    def _pipeline(server, registry):
        return TimedPipelineRun(server, "routing", kp=8, kn=4,
                                metrics=registry), 4e9

    @staticmethod
    def _observe(monkeypatch, build, chunk):
        sims = []

        class Recorded(Simulator):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                sims.append(self)

        monkeypatch.setattr(simrun, "Simulator", Recorded)
        monkeypatch.setattr(simrun, "REPLAY_CHUNK", chunk)
        registry = MetricsRegistry(enabled=True, trace_sample_every=16,
                                   profile=True)
        server = nehalem_server(num_ports=4, queues_per_port=2)
        run, offered_bps = build(server, registry)
        report = run.run(offered_bps, duration_sec=2e-4, seed=3)
        sim, = sims
        return (report, sim.events_run,
                [core.cycles_used for core in server.cores],
                _snapshot_digest(registry))

    @pytest.mark.parametrize("kind", ["_forwarding", "_pipeline"])
    def test_reports_do_not_depend_on_the_chunk(self, monkeypatch, kind):
        build = getattr(self, kind)
        expected = self._observe(monkeypatch, build, simrun.REPLAY_CHUNK)
        report, events_run = expected[:2]
        assert report.forwarded_packets > 0
        assert events_run > report.offered_packets + report.total_polls
        # One arrival per chunk, chunks that divide nothing, one chunk.
        for chunk in (1, 7, 1 << 30):
            assert self._observe(monkeypatch, build, chunk) == expected
