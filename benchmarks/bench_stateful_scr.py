"""Stateful NF dispatch: locks vs RSS pinning vs State-Compute Replication.

The RouteBricks scaling story assumes the per-packet work is stateless;
this benchmark measures what happens when it is not.  One Zipf-skewed,
churning flow workload (``repro.workloads.SkewedFlowWorkload``) is fed
to the same NAT state machine under the three dispatch strategies of
``repro.stateful.dispatch``, sweeping core count at fixed skew and skew
at fixed core count (``repro.analysis.experiments.run_stateful_scr``):

* shared state with locks pays contended acquires and cache-coherence
  transfers that grow with skew;
* RSS flow-pinning is clean but bounded by the hottest core's share,
  which also grows with skew (reported as the *expected* bottleneck,
  averaged over flow-pinning hash placements);
* SCR broadcasts compact per-packet state deltas and replays them on
  every core, so it tracks the stateless ceiling regardless of skew.

All three must leave *identical* per-flow end state -- the scenario
checks that on every cell of the sweep -- and here the acceptance bars
are asserted (SCR >= 1.5x locks at 4 cores under skew 1.1; RSS
monotonically degrading in skew).
"""

import pytest

from repro.analysis import format_table, run_experiment
from repro.analysis.experiments import SCR_BASE_SKEW, SCR_FLOWS, SCR_NF


@pytest.fixture(scope="module")
def result():
    return run_experiment("SCR")


def test_strategy_core_sweep(result, save_result):
    """Strategies head-to-head as cores grow, at skew 1.1."""
    rows = result["core_rows"]
    save_result("stateful_core_sweep", format_table(
        rows, ["cores", "locks_mpps", "rss_mpps", "scr_mpps",
               "scr_vs_locks", "ceiling_mpps", "lock_contended",
               "coherence"],
        title="%s dispatch vs cores, skew %.1f, %d flows (+churn)"
        % (SCR_NF, SCR_BASE_SKEW, SCR_FLOWS)))
    by_cores = {row["cores"]: row for row in rows}
    # Acceptance: SCR buys >= 1.5x over shared-state locking at 4 cores.
    assert by_cores[4]["scr_vs_locks"] >= 1.5
    # SCR tracks the stateless ceiling (replay overhead stays small).
    assert by_cores[4]["scr_mpps"] >= 0.75 * by_cores[4]["ceiling_mpps"]
    # On one core the strategies coincide: no contention, no replicas.
    one = by_cores[1]
    assert abs(one["scr_mpps"] - one["rss_mpps"]) / one["rss_mpps"] < 0.1
    # And SCR scales: 4 cores beat 1 core by > 3x.
    assert by_cores[4]["scr_mpps"] / by_cores[1]["scr_mpps"] > 3.0


def test_rss_skew_degradation(result, save_result):
    """RSS decays as skew concentrates load; SCR does not, at 4 cores."""
    rows = result["skew_rows"]
    save_result("stateful_skew_sweep", format_table(
        rows, ["skew", "top_flow_share", "rss_mpps", "locks_mpps",
               "scr_mpps"],
        title="%s dispatch vs Zipf skew, 4 cores, %d flows (+churn)"
        % (SCR_NF, SCR_FLOWS)))
    # RSS degrades monotonically as skew grows (expected bottleneck).
    rss_curve = [row["rss_mpps"] for row in rows]
    for previous, current in zip(rss_curve, rss_curve[1:]):
        assert current <= previous
    # SCR is skew-insensitive: the spray never sees flow identity.
    scr_curve = [row["scr_mpps"] for row in rows]
    assert max(scr_curve) - min(scr_curve) < 0.05 * max(scr_curve)
    # Under real skew SCR overtakes pinning.
    by_skew = {row["skew"]: row for row in rows}
    assert by_skew[1.1]["scr_mpps"] > by_skew[1.1]["rss_mpps"]
    assert by_skew[1.6]["scr_mpps"] > by_skew[1.6]["rss_mpps"]
