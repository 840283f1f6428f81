"""Live FIB churn: convergence vs update rate, forwarding under updates.

A DFZ router keeps forwarding while its control plane streams BGP
updates into the FIB.  This benchmark runs the ``repro.control`` harness
on a 4-node cluster (``repro.analysis.experiments.run_fib_churn``): a
synthetic RIB (the paper's Sec. 5.1 prefix-length mix) is announced to
the :class:`~repro.core.control.ClusterManager`, initial FIBs are
pushed, and then a Poisson update stream (announce / re-announce /
withdraw) is applied on the simulation clock while traffic forwards
through the live per-node ``Dir24_8`` tables -- incremental
insert/remove, never a rebuild.

Measured:

* **convergence vs update rate** -- mean / final lag from an update's
  arrival to every node's FIB reflecting it, at two churn rates
  (timescales are compressed: the DES horizon is milliseconds, so rates
  are scaled up to land tens-to-hundreds of updates per run);
* **forwarding under churn** -- goodput and tail latency with churn on
  vs off; streaming updates must not dent the dataplane.

The scenario checks that every run converges (no update left
undistributed), applies updates incrementally (zero rebuilds), leaves
all four FIBs bit-consistent with an independent trie reference, and
that two runs at the same seed are identical to the last field (the DES
replays update application deterministically).  Asserted here:
forwarding under churn holds >= 90 % of the quiet goodput.
"""

import pytest

from repro.analysis import format_table, run_experiment
from repro.analysis.experiments import CHURN_NODES, CHURN_ROUTES


@pytest.fixture(scope="module")
def result():
    return run_experiment("FIB-CHURN")


def test_convergence_vs_rate(result, save_result):
    """Convergence lag as the update rate quadruples."""
    rows = result["convergence_rows"]
    save_result("fib_churn_convergence", format_table(
        rows, ["updates_per_sec", "applied", "fib_ops", "sync_ticks",
               "mean_conv_usec", "max_conv_usec", "final_conv_usec",
               "fwd_gbps", "p99_usec"],
        title="Convergence vs update rate, %d nodes, %d routes"
        % (CHURN_NODES, CHURN_ROUTES)))
    for row in rows:
        # The sync tick fires 100 us after the latest unsynced update:
        # convergence is bounded by that control-channel latency (plus
        # batching under bursts), not by table-update cost.
        assert 0.0 < row["mean_conv_usec"] <= 500.0
        assert row["max_conv_usec"] <= 500.0
        # Updates batch onto ticks: more churn, fewer ticks per update.
        assert row["fib_ops"] == row["applied"] * CHURN_NODES


def test_forwarding_under_churn(result, save_result):
    """Goodput and tail latency, churn on vs off."""
    rows = result["forwarding_rows"]
    save_result("fib_churn_forwarding", format_table(
        rows, ["scenario", "updates", "delivered", "fib_miss",
               "fwd_gbps", "p50_usec", "p99_usec"],
        title="Forwarding with and without live churn, %d nodes, "
              "%d routes" % (CHURN_NODES, CHURN_ROUTES)))
    quiet, churn = rows
    # Streaming updates must not dent the dataplane: control work is
    # control-plane cycles, not per-packet cost.
    assert churn["fwd_gbps"] / quiet["fwd_gbps"] >= 0.9
    # Withdrawn routes turn hits into misses -- some loss of delivered
    # traffic is expected, total loss is not.
    assert churn["delivered"] > 0.8 * quiet["delivered"]
