"""Tests for bottleneck deconstruction, reports, and experiment runners."""

import math

import pytest

from repro import calibration as cal
from repro.analysis import (
    EXPERIMENTS,
    deconstruct,
    format_table,
    load_series,
    run_experiment,
)
from repro.obs.explain import cpu_load_from_polling


class TestDeconstruction:
    def test_cpu_is_the_bottleneck_for_all_apps(self):
        """Sec. 5.3 conclusion 1: the CPUs bind for all three apps at 64 B."""
        for app in cal.APPLICATIONS.values():
            report = deconstruct(app, 64)
            assert report.bottleneck == "cpu", app.name

    def test_cpu_headroom_is_one_at_saturation(self):
        report = deconstruct(cal.MINIMAL_FORWARDING, 64)
        assert report.headroom("cpu") == pytest.approx(1.0, rel=1e-6)

    def test_buses_have_headroom(self):
        """Sec. 5.3 conclusion 3: memory and I/O are not the limiters."""
        for app in cal.APPLICATIONS.values():
            report = deconstruct(app, 64)
            for component in ("memory", "io", "qpi"):
                assert report.headroom(component) > 1.2, (app.name, component)

    def test_load_series_constant_loads_falling_bounds(self):
        """Sec. 5.3 conclusion 4: per-packet load is flat in input rate."""
        rows = load_series(cal.IP_ROUTING, 64, rates_mpps=[2, 10, 20])
        loads = {row["cpu_load"] for row in rows}
        assert len(loads) == 1
        bounds = [row["cpu_empirical_bound"] for row in rows]
        assert bounds == sorted(bounds, reverse=True)

    def test_load_series_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            load_series(cal.IP_ROUTING, 64, rates_mpps=[0])


class TestEmptyPollCorrection:
    def test_subtracts_empty_poll_cycles(self):
        # 1e9 cycles, 1e6 packets, 1e6 empty polls at 120 cycles each.
        load = cpu_load_from_polling(1e9, int(1e6), int(1e6))
        assert load == pytest.approx((1e9 - 120e6) / 1e6)

    def test_zero_empty_polls(self):
        assert cpu_load_from_polling(1e9, 1000, 0) == pytest.approx(1e6)

    def test_rejects_impossible_inputs(self):
        with pytest.raises(ValueError):
            cpu_load_from_polling(100, 10, 1000)
        with pytest.raises(ValueError):
            cpu_load_from_polling(100, 0, 0)


class TestReports:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}],
                            ["a", "b"], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], ["a"])


class TestExperiments:
    # The DES scenarios run in test_benchrun's quick run (RB4-R below).
    @pytest.mark.parametrize("eid", sorted(
        set(EXPERIMENTS) - {"RB4-R", "T1-DES", "SCR", "FIB-CHURN"}))
    def test_runner_produces_output(self, eid):
        result = run_experiment(eid)
        assert result["id"] == eid
        payload = [v for k, v in result.items() if k != "id"]
        assert payload

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("F99")

    def test_t1_measured_matches_paper(self):
        rows = run_experiment("T1")["rows"]
        for row in rows:
            assert row["rate_gbps"] == pytest.approx(row["paper_gbps"],
                                                     rel=0.01)

    def test_f8_64b_matches_paper(self):
        rows = run_experiment("F8")["app_rows"]
        for row in rows:
            assert row["rate_64b_gbps"] == pytest.approx(
                row["paper_64b_gbps"], rel=0.02)
            assert row["rate_abilene_gbps"] == pytest.approx(
                row["paper_abilene_gbps"], rel=0.02)

    def test_f10_all_non_bottlenecks_have_headroom(self):
        result = run_experiment("F10")
        for row in result["rows"]:
            if not math.isinf(row["headroom"]):
                assert row["headroom"] > 1.0

    def test_rb4_latency_close_to_paper(self):
        rows = run_experiment("RB4-L")["rows"]
        for row in rows:
            assert row["measured_usec"] == pytest.approx(row["paper_usec"],
                                                         rel=0.02)

    def test_rb4_reordering_shape(self):
        """Flowlets reduce reordering by >10x (slow: full DES run)."""
        rows = {r["mode"]: r for r in
                run_experiment("RB4-R")["rows"]}
        assert rows["per-packet"]["reordered_pct"] > \
            10 * rows["flowlets"]["reordered_pct"]
        assert rows["flowlets"]["reordered_pct"] < 1.0
        assert rows["per-packet"]["reordered_pct"] > 1.0
