"""Stateful NF dispatch: locks vs RSS pinning vs State-Compute Replication.

The RouteBricks scaling story assumes the per-packet work is stateless;
this benchmark measures what happens when it is not.  One Zipf-skewed,
churning flow workload (``repro.workloads.SkewedFlowWorkload``) is fed
to the same NAT state machine under the three dispatch strategies of
``repro.stateful.dispatch``, sweeping core count at fixed skew and skew
at fixed core count:

* shared state with locks pays contended acquires and cache-coherence
  transfers that grow with skew;
* RSS flow-pinning is clean but bounded by the hottest core's share,
  which also grows with skew (reported as the *expected* bottleneck,
  averaged over flow-pinning hash placements);
* SCR broadcasts compact per-packet state deltas and replays them on
  every core, so it tracks the stateless ceiling regardless of skew.

All three must leave *identical* per-flow end state -- asserted here on
every cell of the sweep, alongside the acceptance bars (SCR >= 1.5x
locks at 4 cores under skew 1.1; RSS monotonically degrading in skew).
"""

from repro.analysis import format_table
from repro.calibration import NEHALEM_CLOCK_HZ
from repro.costs import state_access_vector
from repro.stateful import make_nf, run_strategy
from repro.workloads import SkewedFlowWorkload

SEED = 20090917
NF = "nat"
FLOWS = 512
PACKETS = 12_000
CHURN = 400
CORE_SWEEP = (1, 2, 4)
SKEW_SWEEP = (0.0, 0.6, 1.1, 1.6)
BASE_SKEW = 1.1
#: Flow-pinning hash placements averaged for the RSS columns: one
#: placement's luck (which elephants collide on a core) swamps the skew
#: signal; the mean approximates the expected bottleneck.
RSS_SEEDS = (0xABCD, 0xABCE, 0xABCF)


def _records(skew):
    workload = SkewedFlowWorkload(num_flows=FLOWS, skew=skew,
                                  churn_packets=CHURN, seed=SEED)
    return list(workload.records(PACKETS))


def _rss_mean_mpps(records, cores):
    reports = [run_strategy(make_nf(NF), records, cores, "rss",
                            rss_seed=seed) for seed in RSS_SEEDS]
    return sum(r.throughput_mpps for r in reports) / len(reports), reports


def _stateless_ceiling_mpps(cores):
    """Perfect scaling of the full NF compute with zero sync cost."""
    cycles = state_access_vector(NF).cpu_cycles
    return cores * NEHALEM_CLOCK_HZ / cycles / 1e6


def test_strategy_core_sweep(benchmark, save_result):
    """Strategies head-to-head as cores grow, at skew 1.1."""

    def sweep():
        records = _records(BASE_SKEW)
        rows = []
        summary = {}
        for cores in CORE_SWEEP:
            locks = run_strategy(make_nf(NF), records, cores, "locks")
            scr = run_strategy(make_nf(NF), records, cores, "scr")
            rss_mpps, rss_reports = _rss_mean_mpps(records, cores)
            # The whole point: every strategy computes the same flows.
            assert scr.replicas_identical
            assert scr.end_state == locks.end_state
            for report in rss_reports:
                assert report.end_state == locks.end_state
            rows.append({
                "cores": cores,
                "locks_mpps": locks.throughput_mpps,
                "rss_mpps": rss_mpps,
                "scr_mpps": scr.throughput_mpps,
                "scr_vs_locks": scr.throughput_mpps / locks.throughput_mpps,
                "ceiling_mpps": _stateless_ceiling_mpps(cores),
                "lock_contended": locks.lock_contended,
                "coherence": locks.coherence_transfers,
                "scr_deltas": scr.scr_deltas,
            })
            summary["locks_c%d_mpps" % cores] = locks.throughput_mpps
            summary["rss_c%d_mpps" % cores] = rss_mpps
            summary["scr_c%d_mpps" % cores] = scr.throughput_mpps
        return {"rows": rows, "summary": summary}

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = result["rows"]
    save_result("stateful_core_sweep", format_table(
        rows, ["cores", "locks_mpps", "rss_mpps", "scr_mpps",
               "scr_vs_locks", "ceiling_mpps", "lock_contended",
               "coherence"],
        title="%s dispatch vs cores, skew %.1f, %d flows (+churn)"
        % (NF, BASE_SKEW, FLOWS)))
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


def test_rss_skew_degradation(benchmark, save_result):
    """RSS decays as skew concentrates load; SCR does not, at 4 cores."""

    def sweep():
        rows = []
        summary = {}
        for skew in SKEW_SWEEP:
            records = _records(skew)
            scr = run_strategy(make_nf(NF), records, 4, "scr")
            locks = run_strategy(make_nf(NF), records, 4, "locks")
            rss_mpps, rss_reports = _rss_mean_mpps(records, 4)
            assert scr.replicas_identical
            assert scr.end_state == locks.end_state
            for report in rss_reports:
                assert report.end_state == locks.end_state
            top = SkewedFlowWorkload.top_share(records)
            rows.append({
                "skew": skew,
                "top_flow_share": top,
                "rss_mpps": rss_mpps,
                "locks_mpps": locks.throughput_mpps,
                "scr_mpps": scr.throughput_mpps,
            })
            key = ("%.1f" % skew).replace(".", "")
            summary["rss_s%s_mpps" % key] = rss_mpps
            summary["scr_s%s_mpps" % key] = scr.throughput_mpps
            summary["locks_s%s_mpps" % key] = locks.throughput_mpps
        return {"rows": rows, "summary": summary}

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = result["rows"]
    save_result("stateful_skew_sweep", format_table(
        rows, ["skew", "top_flow_share", "rss_mpps", "locks_mpps",
               "scr_mpps"],
        title="%s dispatch vs Zipf skew, 4 cores, %d flows (+churn)"
        % (NF, FLOWS)))
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
