"""Table 2: nominal vs empirical component capacity bounds.

Paper: memory 410/262 Gbps, inter-socket 200/144.34 Gbps, socket-I/O
400/117 Gbps, PCIe 64/50.8 Gbps; empirical bounds come from stress
benchmarks (the memory one is the random-access stream); the server spec
carries the paper's measured figures.
"""

import pytest

from repro.analysis import format_table, run_experiment


def test_table2(benchmark, save_result):
    result = benchmark(run_experiment, "T2")
    rows = result["rows"]
    save_result("table2_bounds", format_table(
        rows, ["component", "nominal", "empirical", "unit"],
        title="Table 2: component capacity upper bounds"))
    by_name = {row["component"]: row for row in rows}
    assert by_name["memory"]["nominal"] == pytest.approx(410)
    assert by_name["memory"]["empirical"] == pytest.approx(262)
    assert by_name["pcie"]["empirical"] == pytest.approx(50.8)
    for row in rows:
        assert row["empirical"] <= row["nominal"]
