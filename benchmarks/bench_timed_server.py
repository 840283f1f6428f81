"""Dynamic validation of Table 1: the timed single-server DES.

Unlike bench_table1_batching (the closed-form model), this drives cores in
simulated time -- polls, empty polls, ring overflows -- and binary-searches
the maximum loss-free rate.  The DES should land on the analytic
saturation points independently.
"""

import pytest

from repro.analysis import format_table
from repro.click.simrun import TimedForwardingRun
from repro.hw import nehalem_server


def _search(kp, kn, low, high):
    run = TimedForwardingRun(nehalem_server(num_ports=4, queues_per_port=2),
                             kp=kp, kn=kn)
    return run.find_loss_free_rate(low_bps=low, high_bps=high,
                                   tolerance_bps=0.15e9) / 1e9


def test_timed_table1(benchmark, save_result):
    def run_all():
        return [
            {"kp": 1, "kn": 1, "des_gbps": _search(1, 1, 0.2e9, 4e9),
             "model_gbps": 1.46},
            {"kp": 32, "kn": 1, "des_gbps": _search(32, 1, 1e9, 10e9),
             "model_gbps": 4.97},
            {"kp": 32, "kn": 16, "des_gbps": _search(32, 16, 4e9, 16e9),
             "model_gbps": 9.77},
        ]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_result("timed_table1", format_table(
        rows, ["kp", "kn", "des_gbps", "model_gbps"],
        title="Table 1 via timed simulation (loss-free rate search)"))
    for row in rows:
        assert row["des_gbps"] == pytest.approx(row["model_gbps"], rel=0.12)


def test_timed_saturation_plateau(benchmark):
    """Above saturation the achieved rate plateaus and drops appear."""

    def run():
        sim = TimedForwardingRun(nehalem_server(num_ports=4,
                                                queues_per_port=2))
        return sim.run(offered_bps=14e9, duration_sec=2e-3)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.achieved_gbps == pytest.approx(9.8, rel=0.05)
    assert report.residual_backlog + report.dropped_packets > 0
