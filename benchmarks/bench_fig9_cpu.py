"""Fig. 9: CPU load (cycles/packet) vs input rate, against the cycle budget.

Paper shape: the per-packet CPU cost is flat in the input rate for all
three applications, and it intersects the "cycles available" curve exactly
at each application's saturation rate -- the CPU is the bottleneck.
"""

import pytest

from repro import calibration as cal
from repro.analysis import format_table, run_experiment
from repro.perfmodel import max_loss_free_rate
from repro.workloads import WorkloadSpec


def test_fig9(benchmark, save_result):
    result = benchmark(run_experiment, "F9")
    blocks = []
    for app, rows in result["series"].items():
        blocks.append(format_table(
            rows, ["rate_mpps", "cpu_load", "cpu_nominal_bound"],
            title="Fig 9 series: %s (64B)" % app))
    save_result("fig9_cpu", "\n\n".join(blocks))

    for app_name, rows in result["series"].items():
        loads = {row["cpu_load"] for row in rows}
        assert len(loads) == 1  # constant in input rate
        # The load line crosses the bound at the measured saturation rate.
        app = cal.APPLICATIONS[app_name]
        saturation = max_loss_free_rate(
            WorkloadSpec.fixed(64, app=app)).rate_mpps
        load = next(iter(loads))
        bound_at_saturation = cal.NEHALEM_TOTAL_CYCLES_PER_SEC / (saturation * 1e6)
        assert load == pytest.approx(bound_at_saturation, rel=1e-6)
