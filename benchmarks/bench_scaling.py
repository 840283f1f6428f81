"""Cluster scaling: the headline claim that capacity grows linearly with
servers (Sec. 1-2), swept across cluster sizes on the analytic model.
"""

import pytest

from repro import calibration as cal
from repro.analysis import format_table
from repro.core import RouteBricksRouter
from repro.workloads import WorkloadSpec


def test_linear_capacity_scaling(benchmark, save_result):
    def sweep():
        rows = []
        # N >= 4: at N = 2 the single internal port mirrors the whole
        # external rate and the NIC tax dominates (not a regime the
        # paper's linear-scaling claim covers).
        for n in (4, 8, 16, 32):
            router = RouteBricksRouter(num_nodes=n)
            r64 = router.max_throughput(WorkloadSpec.fixed(64))
            rab = router.max_throughput(
                WorkloadSpec.fixed(cal.ABILENE_MEAN_PACKET_BYTES))
            rows.append({"nodes": n,
                         "aggregate_64b_gbps": r64.aggregate_gbps,
                         "aggregate_abilene_gbps": rab.aggregate_gbps,
                         "per_port_abilene_gbps": rab.per_port_bps / 1e9})
        return rows

    rows = benchmark(sweep)
    save_result("scaling_cluster", format_table(
        rows, ["nodes", "aggregate_64b_gbps", "aggregate_abilene_gbps",
               "per_port_abilene_gbps"],
        title="Cluster capacity vs size (full mesh, Direct VLB)"))
    # Linearity: aggregate per node stays within a narrow band.
    per_node = [row["aggregate_abilene_gbps"] / row["nodes"] for row in rows]
    assert max(per_node) / min(per_node) < 1.3
    # And absolute growth: 32 nodes carry ~8x what 4 nodes do.
    by_nodes = {row["nodes"]: row["aggregate_abilene_gbps"] for row in rows}
    assert by_nodes[32] / by_nodes[4] == pytest.approx(8.0, rel=0.2)
