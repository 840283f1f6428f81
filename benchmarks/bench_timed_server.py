"""Dynamic validation of Table 1: the timed single-server DES.

Unlike bench_table1_batching (the closed-form model), this drives cores in
simulated time -- polls, empty polls, ring overflows -- and binary-searches
the maximum loss-free rate.  The DES should land on the analytic
saturation points independently.
"""

import pytest

from repro.analysis import format_table, run_experiment


@pytest.fixture(scope="module")
def result():
    return run_experiment("T1-DES")


def test_timed_table1(result, save_result):
    rows = result["rows"]
    save_result("timed_table1", format_table(
        rows, ["kp", "kn", "des_gbps", "model_gbps"],
        title="Table 1 via timed simulation (loss-free rate search)"))
    for row in rows:
        assert row["des_gbps"] == pytest.approx(row["model_gbps"], rel=0.12)


def test_timed_saturation_plateau(result):
    """Above saturation the achieved rate plateaus and drops appear."""
    plateau = result["plateau"]
    assert plateau["achieved_gbps"] == pytest.approx(9.8, rel=0.05)
    assert plateau["residual_backlog"] + plateau["dropped_packets"] > 0
