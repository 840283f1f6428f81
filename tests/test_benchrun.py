"""Tests for the scenario runner, the BENCH schema, and the exact gate."""

import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.cli import main
from repro.obs import compare, make_baseline, run_benchmark, write_bench_json
from repro.obs.benchrun import QUICK_BENCHMARKS
from repro.obs.schema import (
    BASELINE_SCHEMA,
    BENCH_SCHEMA,
    SCALAR_KINDS,
    validate_bench,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "benchmarks" / "results" / "baseline.json"

# One cheap, fully-analytic scenario reused across tests.
BENCH_NAME = "F6"


@pytest.fixture(scope="module")
def bench_doc():
    return run_benchmark(BENCH_NAME)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """``repro obs run --quick`` in a fresh interpreter: its exit code,
    every module it loaded (name -> file), and the directory it wrote."""
    out_dir = tmp_path_factory.mktemp("quick")
    script = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "rc = main(['obs', 'run', '--quick', '--out-dir', sys.argv[1]])\n"
        "print(json.dumps({'rc': rc, 'modules': {\n"
        "    name: getattr(module, '__file__', None)\n"
        "    for name, module in list(sys.modules.items())}}))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, str(out_dir)],
                          capture_output=True, text=True, env=env,
                          cwd=str(out_dir), check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["out_dir"] = out_dir
    return result


def _quick_doc(quick_run, name):
    return json.loads(
        (quick_run["out_dir"] / ("BENCH_%s.json" % name)).read_text())


def _diff(tmp_path, doc, baseline=BASELINE):
    path = tmp_path / ("BENCH_%s.json" % doc["name"])
    path.write_text(json.dumps(doc))
    return main(["obs", "diff", str(baseline), str(path)])


class TestNaming:
    def test_quick_scenarios_are_registered(self):
        assert set(QUICK_BENCHMARKS) <= set(EXPERIMENTS)
        assert len(set(QUICK_BENCHMARKS)) == len(QUICK_BENCHMARKS)

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            run_benchmark("no_such_scenario")


class TestRunBenchmark:
    def test_document_is_schema_valid(self, bench_doc):
        assert validate_bench(bench_doc) == []
        assert bench_doc["schema"] == BENCH_SCHEMA
        assert bench_doc["name"] == BENCH_NAME

    def test_rate_scalars_present(self, bench_doc):
        kinds = {cell["kind"] for cell in bench_doc["scalars"].values()}
        assert "rate" in kinds and kinds <= set(SCALAR_KINDS)
        assert SCALAR_KINDS == ("rate", "count", "label")

    def test_document_carries_no_host_time(self, bench_doc):
        for field in ("wall_clock_s", "events_per_sec", "wall_time_sec",
                      "created_unix"):
            assert field not in bench_doc

    def test_written_file_round_trips(self, bench_doc, tmp_path):
        path = write_bench_json(bench_doc, tmp_path)
        assert path.name == "BENCH_%s.json" % BENCH_NAME
        assert json.loads(path.read_text()) \
            == json.loads(json.dumps(bench_doc))

    def test_non_time_scalars_reproducible(self, quick_run):
        """A document is a pure function of code and seed: the DES
        scenario run here, after whatever this process ran before,
        matches the one the quick run wrote from another interpreter,
        sampled trace ids included."""
        doc = run_benchmark("T1-DES")
        assert doc["scalars"]
        assert json.loads(json.dumps(doc)) == _quick_doc(quick_run, "T1-DES")

    def test_a_rerun_in_one_process_is_the_same_document(self):
        """Packet ids come from a process-wide counter; a document counts
        its sampled ids from its smallest, so a second run matches."""
        first = run_benchmark("T1-DES")
        assert first["metrics"]["traces"]["paths"]
        assert run_benchmark("T1-DES") == first

    def test_invalid_declaration_raises(self, monkeypatch):
        """A scenario that declares a non-finite number, or two scalars
        under one name, gets no document."""
        for scalars in ([("x.rate_gbps", "rate", float("inf"))],
                        [("x.n", "count", 1), ("x.n", "count", 1)]):
            monkeypatch.setitem(EXPERIMENTS, "BAD", lambda s=scalars: {
                "id": "BAD", "scalars": s})
            with pytest.raises(ValueError):
                run_benchmark("BAD")


class TestQuickRun:
    def test_loads_no_pytest_and_no_bench_file(self, quick_run):
        assert quick_run["rc"] == 0
        modules = quick_run["modules"]
        assert not [name for name in modules
                    if name.split(".")[0] in ("pytest", "_pytest")]
        bench_dir = str(REPO_ROOT / "benchmarks")
        assert not [path for path in modules.values()
                    if path and path.startswith(bench_dir)]

    def test_every_quick_document_dumps_without_default(self, quick_run):
        """``write_bench_json`` passes no ``default=`` to ``json.dump``,
        so the quick run writing every document is the check; each one
        also declares at least one scalar of its own."""
        assert quick_run["rc"] == 0
        for name in QUICK_BENCHMARKS:
            doc = _quick_doc(quick_run, name)
            assert validate_bench(doc) == []
            assert [key for key in doc["scalars"]
                    if not key.startswith("run.")], name

    def test_quick_run_is_the_committed_baseline(self, quick_run):
        """The exact CI gate, in tier 1: the baseline holds every
        declared scalar of every quick scenario and nothing else."""
        docs = [_quick_doc(quick_run, name) for name in QUICK_BENCHMARKS]
        assert make_baseline(docs) == compare.load_json(str(BASELINE))


class TestCompare:
    def test_make_baseline_and_compare(self, bench_doc):
        baseline = make_baseline([bench_doc])
        assert baseline["schema"] == BASELINE_SCHEMA
        assert "tolerance" not in baseline
        assert compare.compare_docs(baseline, bench_doc) == []

    def test_degraded_rates_regress(self, bench_doc):
        baseline = make_baseline([bench_doc])
        degraded = copy.deepcopy(bench_doc)
        rates = [name for name, cell in degraded["scalars"].items()
                 if cell["kind"] == "rate"]
        for name in rates:
            degraded["scalars"][name]["value"] *= 0.85
        lines = compare.compare_docs(baseline, degraded)
        assert len(lines) == len(rates)
        assert all(line.startswith("F6/") for line in lines)

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


def _raise(cell):
    cell["value"] = cell["value"] + "x" if cell["kind"] == "label" \
        else cell["value"] * 1.09


def _lower(cell):
    cell["value"] = cell["value"][:-1] if cell["kind"] == "label" \
        else cell["value"] * 0.91


class TestExactGateMutations:
    """Moving one declared scalar of each kind, either way, or deleting
    or adding one, fails ``obs diff`` against the committed baseline."""

    @pytest.fixture(scope="class")
    def rb4_doc(self):
        return run_benchmark("RB4-T")

    def test_unmutated_documents_pass(self, bench_doc, rb4_doc, tmp_path,
                                      capsys):
        assert _diff(tmp_path, bench_doc) == 0
        assert _diff(tmp_path, rb4_doc) == 0
        assert "0 differ" in capsys.readouterr().out

    @pytest.mark.parametrize("mutate", [_raise, _lower, None],
                             ids=["raised", "lowered", "deleted"])
    @pytest.mark.parametrize("doc_name, scalar", [
        ("bench_doc", "parallel.rate_gbps"),
        ("bench_doc", "parallel.cores"),
        ("rb4_doc", "64B.binding"),
    ], ids=["rate", "count", "label"])
    def test_mutated_scalar_fails(self, request, doc_name, scalar, mutate,
                                  tmp_path, capsys):
        doc = copy.deepcopy(request.getfixturevalue(doc_name))
        if mutate is None:
            del doc["scalars"][scalar]
        else:
            mutate(doc["scalars"][scalar])
        assert _diff(tmp_path, doc) == 1
        out = capsys.readouterr().out
        assert "/%s: " % scalar in out and "1 differ" in out

    def test_new_scalar_fails(self, bench_doc, tmp_path, capsys):
        doc = copy.deepcopy(bench_doc)
        doc["scalars"]["parallel.extra_gbps"] = {"kind": "rate",
                                                 "value": 1.0}
        assert _diff(tmp_path, doc) == 1
        assert "missing -> 1.0 (rate)" in capsys.readouterr().out

    def test_a_tripled_count_fails(self, quick_run, tmp_path, capsys):
        doc = _quick_doc(quick_run, "FIB-CHURN")
        doc["scalars"]["run.node_drops"]["value"] *= 3
        assert _diff(tmp_path, doc) == 1
        capsys.readouterr()


class TestCliObs:
    def test_run_and_report(self, tmp_path, capsys):
        assert main(["obs", "run", BENCH_NAME,
                     "--out-dir", str(tmp_path)]) == 0
        bench = tmp_path / ("BENCH_%s.json" % BENCH_NAME)
        assert validate_bench(json.loads(bench.read_text())) == []
        assert main(["obs", "report", str(bench)]) == 0
        out = capsys.readouterr().out
        assert BENCH_NAME in out and "parallel.rate_gbps" in out

    def test_diff_exit_codes(self, tmp_path, capsys):
        assert main(["obs", "run", BENCH_NAME, "--out-dir", str(tmp_path),
                     "--update-baseline", str(tmp_path / "base.json")]) == 0
        bench = tmp_path / ("BENCH_%s.json" % BENCH_NAME)
        base = tmp_path / "base.json"
        assert main(["obs", "diff", str(base), str(bench)]) == 0
        # Any change to any scalar -> exit 1.
        doc = json.loads(bench.read_text())
        doc["scalars"]["parallel.cores"]["value"] += 1
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc))
        assert main(["obs", "diff", str(base), str(changed)]) == 1
        # Garbage input -> exit 2.
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["obs", "diff", str(base), str(bad)]) == 2
        capsys.readouterr()

    def test_run_rejects_unknown_name(self, tmp_path, capsys):
        assert main(["obs", "run", "nope",
                     "--out-dir", str(tmp_path)]) == 2
        assert "unknown experiment 'nope'" in capsys.readouterr().err

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
    """The regression gate as CI scripts it: ``python -m repro obs
    diff`` in a fresh interpreter, exit 0 on an exact match, 1 on any
    difference, 2 on input it cannot read."""

    def _run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro", "obs", "diff", *argv],
            capture_output=True, text=True, env=env)

    def test_clean_results_pass(self, bench_doc, tmp_path):
        path = write_bench_json(bench_doc, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline([bench_doc])))
        proc = self._run(str(baseline), str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_15pct_degraded_fails(self, bench_doc, tmp_path):
        degraded = copy.deepcopy(bench_doc)
        for cell in degraded["scalars"].values():
            if cell["kind"] == "rate":
                cell["value"] *= 0.85
        path = write_bench_json(degraded, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline([bench_doc])))
        proc = self._run(str(baseline), str(path))
        assert proc.returncode == 1, proc.stdout + proc.stderr

    def test_missing_baseline_is_exit_2(self, bench_doc, tmp_path):
        path = write_bench_json(bench_doc, tmp_path)
        proc = self._run(str(tmp_path / "absent.json"), str(path))
        assert proc.returncode == 2

    def test_committed_baseline_matches_fresh_run(self, bench_doc):
        """The baseline in git must describe what the code produces
        today, to the last bit."""
        committed = compare.load_json(str(BASELINE))
        assert compare.compare_docs(committed, bench_doc) == []

    def test_old_schema_documents_are_refused(self, bench_doc, tmp_path,
                                              capsys):
        """A ``repro.bench/3`` document (pytest-shaped ``status`` and
        ``tests``) is refused with both schema tags named, not picked
        apart field by field."""
        old = copy.deepcopy(bench_doc)
        old.update(schema="repro.bench/3", status="passed", tests=[])
        assert BENCH_SCHEMA == "repro.bench/4"
        (problem,) = validate_bench(old)
        assert "repro.bench/3" in problem and "repro.bench/4" in problem
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(old))
        assert main(["obs", "report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repro.bench/3" in err and "repro.bench/4" in err
        proc = self._run(str(BASELINE), str(path))
        assert proc.returncode == 2
        assert "repro.bench/3" in proc.stderr


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


class TestTimelineFromBench:
    """The BENCH document is the run's one record: ``obs timeline``
    exports its Perfetto trace, and nothing is written beside it."""

    @pytest.fixture
    def parallel_doc(self, bench_doc):
        doc = copy.deepcopy(bench_doc)
        doc["name"] = "mini_parallel"
        registry = TestParallelTelemetryHarvest()._parallel_registry()
        doc["metrics"] = registry.snapshot()
        return doc

    def test_write_bench_json_writes_only_the_document(self, bench_doc,
                                                       parallel_doc, tmp_path):
        written = [write_bench_json(doc, tmp_path)
                   for doc in (bench_doc, parallel_doc)]
        assert sorted(tmp_path.iterdir()) == sorted(written)

    def test_timeline_exported_from_a_bench_document(self, parallel_doc,
                                                     tmp_path, capsys):
        from repro.obs.schema import validate_trace

        path = write_bench_json(parallel_doc, tmp_path)
        assert main(["obs", "timeline", str(path),
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        exported = json.loads(
            (tmp_path / "TRACE_mini_parallel.json").read_text())
        assert validate_trace(exported) == []
        assert any(e["ph"] == "X" for e in exported["traceEvents"])
