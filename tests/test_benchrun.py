"""Tests for the benchmark runner, BENCH schema, and regression gate."""

import copy
import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import compare, make_baseline, run_benchmark, write_bench_json
from repro.obs.benchrun import QUICK_BENCHMARKS, discover, normalize
from repro.obs.schema import (
    BASELINE_SCHEMA,
    BENCH_SCHEMA,
    SCALAR_KINDS,
    validate_bench,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# One cheap, fully-analytic scenario reused across tests.
BENCH_NAME = "fig6_queues"


@pytest.fixture(scope="module")
def bench_doc():
    return run_benchmark(BENCH_NAME)


class TestNaming:
    def test_normalize_accepts_all_spellings(self):
        assert normalize("bench_fig6_queues") == "fig6_queues"
        assert normalize("fig6_queues") == "fig6_queues"
        assert normalize("bench_fig6_queues.py") == "fig6_queues"

    def test_discover_finds_the_quick_subset(self):
        names = discover()
        for name in QUICK_BENCHMARKS:
            assert name in names

    def test_unknown_benchmark_raises(self):
        with pytest.raises(FileNotFoundError):
            run_benchmark("no_such_scenario")


class TestRunBenchmark:
    def test_document_is_schema_valid(self, bench_doc):
        assert validate_bench(bench_doc) == []
        assert bench_doc["schema"] == BENCH_SCHEMA
        assert bench_doc["name"] == BENCH_NAME
        assert bench_doc["status"] == "passed"

    def test_rate_scalars_present(self, bench_doc):
        kinds = {cell["kind"] for cell in bench_doc["scalars"].values()}
        assert "rate" in kinds and kinds <= set(SCALAR_KINDS)
        assert SCALAR_KINDS == ("rate", "count")

    def test_document_carries_no_host_time(self, bench_doc):
        for field in ("wall_clock_s", "events_per_sec", "wall_time_sec",
                      "created_unix"):
            assert field not in bench_doc
        assert all(set(test) <= {"name", "status", "detail"}
                   for test in bench_doc["tests"])

    def test_written_file_round_trips(self, bench_doc, tmp_path):
        path = write_bench_json(bench_doc, tmp_path)
        assert path.name == "BENCH_%s.json" % BENCH_NAME
        assert validate_bench(json.loads(path.read_text())) == []

    def test_non_time_scalars_reproducible(self):
        """A document is a pure function of code and seed: nothing has
        to be filtered out before two runs compare equal (there are no
        ``time``/``perf`` scalars left to drop).  ``timed_server`` is
        the quick scenario that drives the DES."""
        first = run_benchmark("timed_server")
        again = run_benchmark("timed_server")
        assert first["scalars"] and first["artifacts"]
        for part in ("scalars", "labels", "artifacts"):
            assert first[part] == again[part]
        assert [(t["name"], t["status"]) for t in first["tests"]] \
            == [(t["name"], t["status"]) for t in again["tests"]]

    def test_scenario_files_stay_out_of_the_source_tree(self):
        """``tmp_path`` is a directory that goes with the run: the pcap
        ``bench_substrates`` writes must not land under ``benchmarks/``."""
        def tree():
            # What ``git status --ignored benchmarks/`` would show a
            # change in, byte-code caches aside -- without needing git.
            return sorted(
                (str(path), path.stat().st_size, path.stat().st_mtime_ns)
                for path in (REPO_ROOT / "benchmarks").rglob("*")
                if path.is_file() and "__pycache__" not in path.parts)

        before = tree()
        doc = run_benchmark("substrates")
        assert {t["name"]: t["status"] for t in doc["tests"]}[
            "test_pcap_round_trip_throughput"] == "passed"
        assert tree() == before


class TestCompare:
    def test_classify_directions(self):
        assert compare.classify("rate", 10.0, 8.0, 0.10)[1] == "regressed"
        assert compare.classify("rate", 10.0, 12.0, 0.10)[1] == "improved"
        assert compare.classify("rate", 10.0, 9.5, 0.10)[1] == "ok"
        # Counts never gate, however large the swing.
        assert compare.classify("count", 100.0, 10.0, 0.10)[1] == "ok"
        assert compare.classify("count", 10.0, 100.0, 0.10)[1] == "ok"

    def test_make_baseline_and_compare(self, bench_doc):
        baseline = make_baseline([bench_doc])
        assert baseline["schema"] == BASELINE_SCHEMA
        deltas = compare.compare_docs(baseline, bench_doc)
        assert deltas and all(d.status == "ok" for d in deltas)

    def test_degraded_rates_regress(self, bench_doc):
        baseline = make_baseline([bench_doc])
        degraded = copy.deepcopy(bench_doc)
        for cell in degraded["scalars"].values():
            if cell["kind"] == "rate":
                cell["value"] *= 0.85
        deltas = compare.compare_docs(baseline, degraded)
        assert any(d.regressed for d in deltas)

    def test_missing_benchmark_raises(self, bench_doc):
        baseline = make_baseline([bench_doc])
        other = copy.deepcopy(bench_doc)
        other["name"] = "something_else"
        with pytest.raises(ValueError):
            compare.compare_docs(baseline, other)

    def test_invalid_document_raises(self, bench_doc):
        baseline = make_baseline([bench_doc])
        with pytest.raises(ValueError):
            compare.compare_docs(baseline, {"schema": "bogus"})


class TestCliObs:
    def test_run_and_report(self, tmp_path, capsys):
        assert main(["obs", "run", BENCH_NAME,
                     "--out-dir", str(tmp_path)]) == 0
        bench = tmp_path / ("BENCH_%s.json" % BENCH_NAME)
        assert validate_bench(json.loads(bench.read_text())) == []
        assert main(["obs", "report", str(bench)]) == 0
        out = capsys.readouterr().out
        assert BENCH_NAME in out and "passed" in out

    def test_diff_exit_codes(self, tmp_path, capsys):
        assert main(["obs", "run", BENCH_NAME, "--out-dir", str(tmp_path),
                     "--update-baseline", str(tmp_path / "base.json")]) == 0
        bench = tmp_path / ("BENCH_%s.json" % BENCH_NAME)
        base = tmp_path / "base.json"
        assert main(["obs", "diff", str(base), str(bench)]) == 0
        # Degrade every rate by 15% -> exit 1.
        doc = json.loads(bench.read_text())
        for cell in doc["scalars"].values():
            if cell["kind"] == "rate":
                cell["value"] *= 0.85
        degraded = tmp_path / "degraded.json"
        degraded.write_text(json.dumps(doc))
        assert main(["obs", "diff", str(base), str(degraded)]) == 1
        # Garbage input -> exit 2.
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["obs", "diff", str(base), str(bad)]) == 2
        capsys.readouterr()

    def test_run_rejects_unknown_name(self, tmp_path, capsys):
        assert main(["obs", "run", "nope",
                     "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_timeline_preset(self, tmp_path, capsys):
        from repro.obs.schema import validate_trace

        assert main(["obs", "timeline", "rb4", "--out-dir", str(tmp_path),
                     "--duration-ms", "0.4"]) == 0
        doc = json.loads((tmp_path / "TRACE_rb4.json").read_text())
        assert validate_trace(doc) == []
        assert doc["traceEvents"]
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()

    def test_timeline_from_bench_json(self, bench_doc, tmp_path, capsys):
        from repro.obs.schema import validate_trace

        path = write_bench_json(bench_doc, tmp_path)
        assert main(["obs", "timeline", str(path),
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads(
            (tmp_path / ("TRACE_%s.json" % BENCH_NAME)).read_text())
        assert validate_trace(doc) == []
        capsys.readouterr()

    def test_timeline_rejects_bad_targets(self, tmp_path, capsys):
        assert main(["obs", "timeline", "nope",
                     "--out-dir", str(tmp_path)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["obs", "timeline", str(bad),
                     "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["obs", "timeline"])
        assert exit_info.value.code == 2
        assert "target" in capsys.readouterr().err


class TestRegressionScript:
    SCRIPT = str(REPO_ROOT / "scripts" / "check_bench_regression.py")

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, self.SCRIPT, *argv],
            capture_output=True, text=True)

    def test_clean_results_pass(self, bench_doc, tmp_path):
        write_bench_json(bench_doc, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline([bench_doc])))
        proc = self._run("--baseline", str(baseline),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr

    def test_15pct_degraded_fails(self, bench_doc, tmp_path):
        """The ISSUE's acceptance check: a 15%-degraded copy must fail."""
        degraded = copy.deepcopy(bench_doc)
        for cell in degraded["scalars"].values():
            if cell["kind"] == "rate":
                cell["value"] *= 0.85
        write_bench_json(degraded, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline([bench_doc])))
        proc = self._run("--baseline", str(baseline),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 1, proc.stdout + proc.stderr

    def test_unknown_scalar_keys_warn_without_failing(self, bench_doc,
                                                      tmp_path):
        """Scalars absent from the baseline entry surface as warnings
        (all kinds), and never flip the exit code."""
        extended = copy.deepcopy(bench_doc)
        extended["scalars"]["test_extra.fresh_mpps.mean"] = {
            "value": 1.0, "kind": "rate"}
        extended["scalars"]["test_extra.oddball_events"] = {
            "value": 3.0, "kind": "count"}
        write_bench_json(extended, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline([bench_doc])))
        proc = self._run("--baseline", str(baseline),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "warning:" in proc.stdout
        assert "test_extra.fresh_mpps.mean" in proc.stdout
        # Non-gated kinds used to vanish silently; now they warn too.
        assert "test_extra.oddball_events" in proc.stdout

    def test_unknown_scalar_keys_helper(self, bench_doc):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "check_bench_regression", self.SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        baseline = make_baseline([bench_doc])
        extended = copy.deepcopy(bench_doc)
        extended["scalars"]["test_x.sneaky_events"] = {
            "value": 1.0, "kind": "count"}
        assert module.unknown_scalar_keys(baseline, bench_doc) == []
        assert module.unknown_scalar_keys(baseline, extended) == \
            ["test_x.sneaky_events"]
        # No baseline entry for this benchmark: nothing to warn about
        # (compare_docs already hard-errors on that case).
        renamed = copy.deepcopy(bench_doc)
        renamed["name"] = "unseen"
        assert module.unknown_scalar_keys(baseline, renamed) == []

    def test_unknown_benchmark_warns_only_with_flag(self, bench_doc,
                                                    tmp_path):
        """Artifacts with no baseline entry hard-error by default (the
        PR gate) but downgrade to a warning under
        --ignore-unknown-benchmarks (the nightly full-suite run)."""
        renamed = copy.deepcopy(bench_doc)
        renamed["name"] = "unbaselined"
        write_bench_json(renamed, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline([bench_doc])))
        strict = self._run("--baseline", str(baseline),
                           "--results-dir", str(tmp_path))
        assert strict.returncode == 2
        relaxed = self._run("--baseline", str(baseline),
                            "--results-dir", str(tmp_path),
                            "--ignore-unknown-benchmarks")
        assert relaxed.returncode == 0, relaxed.stdout + relaxed.stderr
        assert "warning: unbaselined has no baseline entry" \
            in relaxed.stdout

    def test_missing_baseline_is_exit_2(self, tmp_path):
        proc = self._run("--baseline", str(tmp_path / "absent.json"),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 2

    def test_committed_baseline_matches_fresh_run(self):
        """The baseline in git must describe what the code produces
        today -- otherwise the CI gate drifts into noise."""
        committed = compare.load_json(
            str(REPO_ROOT / "benchmarks" / "results" / "baseline.json"))
        doc = run_benchmark(BENCH_NAME)
        deltas = compare.compare_docs(committed, doc)
        assert deltas, "baseline has no rate scalars for %s" % BENCH_NAME
        assert all(not d.regressed for d in deltas)

    def test_old_schema_documents_are_refused(self, bench_doc, tmp_path,
                                              capsys):
        """A ``repro.bench/2`` document (host-time fields, ``time`` and
        ``perf`` scalars) is refused with both schema tags named, not
        picked apart field by field."""
        old = copy.deepcopy(bench_doc)
        old.update(schema="repro.bench/2", created_unix=0.0,
                   wall_time_sec=0.1, wall_clock_s=0.0, events_per_sec=0.0)
        old["scalars"]["run.wall_time_sec"] = {"value": 0.1, "kind": "time"}
        old["scalars"]["run.wall_clock_s"] = {"value": 0.0, "kind": "perf"}
        assert BENCH_SCHEMA == "repro.bench/3"
        (problem,) = validate_bench(old)
        assert "repro.bench/2" in problem and "repro.bench/3" in problem
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(old))
        assert main(["obs", "report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repro.bench/2" in err and "repro.bench/3" in err
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline([bench_doc])))
        proc = self._run("--baseline", str(baseline), str(path))
        assert proc.returncode == 2
        assert "repro.bench/2" in proc.stderr


class TestParallelTelemetryHarvest:
    def _parallel_registry(self):
        from repro.core import RouteBricksRouter
        from repro.obs.metrics import MetricsRegistry
        from repro.parallel import simulate_parallel
        from repro.workloads import WorkloadSpec
        from repro.workloads.matrices import uniform_matrix

        router = RouteBricksRouter(num_nodes=4, seed=7)
        workload = WorkloadSpec.fixed(64).with_matrix(
            uniform_matrix(4, router.port_rate_bps * 0.3))
        registry = MetricsRegistry(enabled=True)
        simulate_parallel(router, workload, until=4e-4, workers=2,
                          backend="inline", metrics=registry)
        return registry

    def test_empty_registry_harvests_nothing(self):
        """The registry contributes simulated totals only: nothing from
        an empty one, and none of a parallel run's host-time telemetry
        (the ``parallel_*`` gauges stay in the snapshot, for the
        timeline)."""
        from repro.obs.benchrun import _registry_counts
        from repro.obs.metrics import MetricsRegistry

        assert _registry_counts(MetricsRegistry(enabled=True)) == {}
        counts = _registry_counts(self._parallel_registry())
        assert counts["sim_events"] > 0
        assert set(counts) <= {"sim_events", "node_drops"}


class TestTraceSidecar:
    def test_analytic_scenario_skips_trace_sidecar(self, bench_doc,
                                                   tmp_path):
        # fig6 charges no timelines, profile frames, or sampled traces:
        # an all-empty timeline would only confuse Perfetto users.
        write_bench_json(bench_doc, tmp_path)
        assert not list(tmp_path.glob("TRACE_*.json"))

    def test_sidecar_written_when_snapshot_has_events(self, bench_doc,
                                                      tmp_path):
        from repro.obs.schema import validate_trace

        doc = copy.deepcopy(bench_doc)
        doc["name"] = "mini_parallel"
        registry = TestParallelTelemetryHarvest()._parallel_registry()
        doc["metrics"] = registry.snapshot()
        write_bench_json(doc, tmp_path)
        trace = tmp_path / "TRACE_mini_parallel.json"
        assert trace.exists()
        exported = json.loads(trace.read_text())
        assert validate_trace(exported) == []
        assert any(e["ph"] == "X" for e in exported["traceEvents"])
