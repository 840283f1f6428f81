"""Live control-plane churn: schedules, the DES driver, end-to-end runs."""

import math

import pytest

from repro.cli import main
from repro.control import (ChurnSchedule, TimedUpdate, announce_rib,
                           build_cluster, probe_addresses, run_churn,
                           verify_fibs)
from repro.errors import ConfigurationError
from repro.routing import generate_prefixes


class TestSchedule:
    def test_measured_rate_shape(self):
        installed = list(generate_prefixes(100, seed=1))
        schedule = ChurnSchedule.measured_rate(
            installed, rate_per_sec=1e4, duration_sec=0.1, seed=3)
        assert len(schedule) > 0
        times = [u.time for u in schedule]
        assert times == sorted(times)
        assert times[-1] < 0.1
        # Poisson at 1e4/s over 0.1 s: ~1000 updates, loosely.
        assert 700 < len(schedule) < 1300

    def test_deterministic_per_seed(self):
        installed = list(generate_prefixes(50, seed=1))
        make = lambda: ChurnSchedule.measured_rate(  # noqa: E731
            installed, rate_per_sec=1e4, duration_sec=0.05, seed=9)
        assert list(make()) == list(make())

    def test_withdrawals_name_installed_prefixes(self):
        installed = list(generate_prefixes(50, seed=1))
        schedule = ChurnSchedule.measured_rate(
            installed, rate_per_sec=2e4, duration_sec=0.05,
            withdraw_fraction=0.5, seed=4)
        live = set(installed)
        withdrawals = 0
        for update in schedule:
            if update.is_withdrawal:
                assert update.prefix in live
                live.discard(update.prefix)
                withdrawals += 1
            else:
                live.add(update.prefix)
        assert withdrawals > 0

    def test_bursts_shape(self):
        installed = list(generate_prefixes(20, seed=1))
        schedule = ChurnSchedule.bursts(
            installed, burst_updates=10, interval_sec=1e-3, bursts=3)
        assert len(schedule) == 30
        assert len({u.time for u in schedule}) == 3

    def test_rejects_unordered(self):
        prefix = next(iter(generate_prefixes(1, seed=1)))
        with pytest.raises(ConfigurationError):
            ChurnSchedule([TimedUpdate(1.0, prefix, 0),
                           TimedUpdate(0.5, prefix, None)])

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            ChurnSchedule.measured_rate(
                [], rate_per_sec=1e3, duration_sec=0.01,
                withdraw_fraction=0.7, reannounce_fraction=0.7)
        with pytest.raises(ConfigurationError):
            ChurnSchedule.measured_rate(
                [], rate_per_sec=1e3, duration_sec=0.01,
                withdraw_fraction=-0.1)


class TestRunnerPieces:
    def test_announce_rib_round_robins_ports(self):
        _, manager = build_cluster(4)
        announce_rib(manager, 40, seed=5)
        assert len(manager.rib) == 40
        assert set(manager.rib.values()) == {0, 1, 2, 3}

    def test_verify_fibs_catches_a_stale_table(self):
        _, manager = build_cluster(4)
        announce_rib(manager, 50, seed=5)
        manager.push_fibs()
        probes = probe_addresses(manager, 64, seed=6)
        assert verify_fibs(manager, probes)
        # Sabotage one node's table behind the manager's back.
        victim = next(iter(manager.rib))
        manager.fib_of(2).remove_route(victim)
        assert not verify_fibs(
            manager, [victim.network.value])


class TestRunChurn:
    def test_end_to_end(self):
        report = run_churn(num_nodes=4, routes=1500,
                           update_rate_per_sec=1e5, duration_sec=5e-4,
                           load=0.05, seed=2)
        assert report.consistent
        assert report.updates_applied > 0
        assert report.rebuilds == 0
        assert report.unconverged == 0
        assert report.fib_ops == report.updates_applied * 4
        assert report.forwarding.delivered_packets > 0
        assert not math.isnan(report.final_convergence_sec)
        assert 0 < report.mean_convergence_sec <= 5e-4

    def test_deterministic_replay(self):
        kwargs = dict(num_nodes=4, routes=1000,
                      update_rate_per_sec=1e5, duration_sec=5e-4,
                      load=0.05, seed=13)
        assert run_churn(**kwargs).to_dict() == run_churn(**kwargs).to_dict()

    def test_misses_are_counted_not_delivered(self):
        # hit_fraction 0 makes nearly every destination unroutable
        # (random addresses rarely land in 1000 prefixes).
        report = run_churn(num_nodes=4, routes=1000,
                           update_rate_per_sec=1e5, duration_sec=5e-4,
                           load=0.05, hit_fraction=0.0, seed=2)
        fwd = report.forwarding
        assert fwd.fib_miss_packets > 0.9 * fwd.offered_packets
        assert fwd.delivered_packets + fwd.fib_miss_packets \
            <= fwd.offered_packets

    def test_burst_mode(self):
        report = run_churn(num_nodes=4, routes=1000,
                           burst=(25, 2e-4, 2), duration_sec=5e-4,
                           load=0.05, seed=2)
        assert report.updates_offered == 50
        assert report.consistent

    def test_faults_and_churn_in_one_run(self):
        from repro.faults.schedule import FaultSchedule

        faults = (FaultSchedule()
                  .crash_node(at=2e-4, node=3))
        report = run_churn(num_nodes=4, routes=1000,
                           update_rate_per_sec=1e5, duration_sec=5e-4,
                           load=0.05, seed=2, faults=faults)
        # The crash produced a control-plane convergence record and the
        # surviving FIBs still match the reference (which excludes the
        # dead node's routes).
        assert len(report.forwarding.convergence) == 1
        assert report.consistent

    def test_quiet_schedule_runs_clean(self):
        report = run_churn(num_nodes=4, routes=1000, duration_sec=5e-4,
                           load=0.05, seed=2,
                           schedule=ChurnSchedule([]))
        assert report.updates_offered == 0
        assert report.sync_ticks == 0
        assert report.consistent

    def test_metrics_recorded_when_enabled(self):
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            run_churn(num_nodes=4, routes=1000,
                      update_rate_per_sec=1e5, duration_sec=5e-4,
                      load=0.05, seed=2)
        snap = registry.snapshot()
        assert "fib_updates_applied" in snap["counters"]
        assert "convergence_seconds" in snap["gauges"]
        assert "convergence_usec" in snap["histograms"]
        assert "cluster_latency_usec" in snap["timelines"]


class TestCli:
    def test_control_run_churn_smoke(self, capsys):
        assert main(["control", "run", "rb4", "--churn",
                     "--routes", "800", "--duration-ms", "0.5",
                     "--load", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "updates applied" in out
        assert "consistency: OK" in out

    def test_control_churn_sweep_smoke(self, capsys):
        assert main(["control", "churn", "rb4", "--routes", "600",
                     "--duration-ms", "0.5", "--load", "0.05",
                     "--rates", "5e4,2e5"]) == 0
        out = capsys.readouterr().out
        assert "Convergence vs update rate" in out

    def test_control_bad_topology(self, capsys):
        assert main(["control", "run", "mesh9"]) == 2
