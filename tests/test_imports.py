"""The import graph: lazy package re-exports, and what a run loads.

Every check runs in a fresh interpreter, because the suite's own process
has imported most of ``repro`` long before any test here runs.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Packages whose ``__init__`` re-exports through a ``repro._lazy`` table.
LAZY_PACKAGES = ("repro.obs", "repro.click", "repro.workloads", "repro.core")


def _fresh(code):
    """Run ``code`` in a new interpreter; the JSON its last line prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_by(statement):
    """Every module in ``sys.modules`` after ``statement`` runs alone."""
    return set(_fresh("""
        import json, sys
        %s
        print(json.dumps(sorted(sys.modules)))
        """ % statement))


class TestLazyReexports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_is_its_submodules_own(self, package):
        # Names are read through the package first, so each read below
        # is the first: the lazy path, not a cached attribute.
        got = _fresh("""
            import importlib, json
            package = importlib.import_module(%r)
            table = package._EXPORTS
            values = {name: getattr(package, name)
                      for names in table.values() for name in names}
            same = [name for submodule, names in table.items()
                    for name in names
                    if values[name] is getattr(importlib.import_module(
                        "." + submodule, package.__name__), name)]
            print(json.dumps({"all": package.__all__, "same": same,
                              "dir": dir(package)}))
            """ % package)
        assert got["same"] == got["all"]
        assert len(set(got["all"])) == len(got["all"])
        assert set(got["all"]) <= set(got["dir"])

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_an_unknown_name_is_an_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            importlib.import_module(package).no_such_name

    def test_provision_is_the_function_whatever_loads_after_it(self):
        got = _fresh("""
            import json, sys
            import repro.core
            loads_partition = "repro.core.partition" in sys.modules
            import repro.core.provision
            from repro.core import SERVER_MODELS, ServerModel
            print(json.dumps([loads_partition,
                              callable(repro.core.provision),
                              type(repro.core.provision).__name__]))
            """)
        assert got == [True, True, "function"]


class TestWhatAnImportLoads:
    def test_the_server_run_loads_no_numpy_crypto_harness_or_fib(self):
        loaded = _loaded_by("import repro.click.simrun, repro.hw.presets")
        assert "repro.click.simrun" in loaded
        for module in ("numpy", "repro.crypto", "repro.obs.benchrun",
                       "repro.routing"):
            assert module not in loaded

    def test_repro_obs_loads_no_harness(self):
        loaded = _loaded_by("import repro.obs")
        for module in ("repro.obs.benchrun", "pytest", "numpy"):
            assert module not in loaded

    def test_the_cli_parser_loads_no_numpy_or_analysis(self):
        loaded = _loaded_by("import repro.cli; repro.cli.build_parser()")
        assert "numpy" not in loaded
        assert "repro.analysis" not in loaded


class TestNothingLoadsInsideARun:
    """What the perfbench harness imports before it times a run, and what
    the run then imports for the first time."""

    def test_the_server_search_imports_nothing(self):
        got = _fresh("""
            import json, sys
            from repro.click.simrun import TimedForwardingRun
            from repro.hw.presets import nehalem_server
            run = TimedForwardingRun(
                nehalem_server(num_ports=4, queues_per_port=2), 64,
                kp=32, kn=16)
            before = set(sys.modules)
            run.find_loss_free_rate(duration_sec=1e-4)
            print(json.dumps(sorted(set(sys.modules) - before)))
            """)
        assert got == []

    def test_simulate_imports_only_the_epoch_loop(self):
        got = _fresh("""
            import json, sys
            from repro.core import RouteBricksRouter
            from repro.workloads import WorkloadSpec
            from repro.workloads.matrices import uniform_matrix
            router = RouteBricksRouter(num_nodes=4, seed=1)
            spec = WorkloadSpec.fixed(64, seed=1).with_matrix(
                uniform_matrix(4, 3e9))
            before = set(sys.modules)
            router.simulate(spec, until=1e-4)
            print(json.dumps(sorted(set(sys.modules) - before)))
            """)
        assert got == ["repro.parallel", "repro.parallel.runner"]
