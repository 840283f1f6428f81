"""A process-backend worker dying mid-run is a clean, named error.

Each worker process holds its partition's simulation state between
epochs; if one is killed (OOM killer, operator) the run cannot go on.
It must say which partition was lost, release every pool without
hanging, and reach the CLI as ``error: ...`` / exit 2 -- not as a
``BrokenProcessPool`` traceback.
"""

import threading

import pytest

from repro.cli import main
from repro.core import RouteBricksRouter
from repro.errors import ConfigurationError, SimulationError
from repro.parallel import runner, simulate_parallel
from repro.workloads import WorkloadSpec
from repro.workloads.matrices import uniform_matrix

VICTIM = 1


@pytest.fixture
def kill_worker_after_first_epoch(monkeypatch):
    """After the first epoch barrier, SIGKILL partition VICTIM's worker."""
    advance_all = runner._ProcessBackend.advance_all
    backends = []

    def dying(self, *args):
        results = advance_all(self, *args)
        if not backends:
            backends.append(self)
            for process in self.pools[VICTIM]._processes.values():
                process.kill()
                process.join(timeout=30)
        return results

    monkeypatch.setattr(runner._ProcessBackend, "advance_all", dying)
    return backends


def _run_in_thread(fn):
    """Run ``fn`` with a deadline, so a hang fails instead of wedging
    the suite; returns what it raised (or None)."""
    raised = []

    def target():
        try:
            fn()
        except Exception as error:  # noqa: BLE001 - handed to the caller
            raised.append(error)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "run hung after a worker died"
    return raised[0] if raised else None


def test_dead_worker_raises_simulation_error_naming_the_partition(
        kill_worker_after_first_epoch):
    router = RouteBricksRouter(num_nodes=4, seed=11)
    workload = WorkloadSpec.fixed(64).with_matrix(
        uniform_matrix(4, router.port_rate_bps * 0.3))

    error = _run_in_thread(lambda: simulate_parallel(
        router, workload, until=2e-4, workers=2, backend="process"))

    assert isinstance(error, SimulationError)
    assert "partition %d" % VICTIM in str(error)
    backend, = kill_worker_after_first_epoch
    # Every pool was shut down: no worker process outlives the run.
    for pool in backend.pools:
        assert not pool._processes


def test_cli_reports_dead_worker_as_an_error(kill_worker_after_first_epoch,
                                              capsys):
    codes = []
    error = _run_in_thread(lambda: codes.append(main(
        ["parallel", "run", "rb4", "--workers", "2", "--backend", "process",
         "--duration-ms", "0.2"])))

    assert error is None
    assert codes == [2]
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ")
    assert "partition %d" % VICTIM in stderr
    assert "Traceback" not in stderr


class _BrokenDice(WorkloadSpec):
    """Passes the parent's validation; fails when a partition replays
    it.  (Module level, so a worker can unpickle it by reference.)"""

    def events(self, duration_sec, owned=None, id_base=None):
        raise ConfigurationError("the dice fell off the table")


def test_realisation_error_in_a_worker_surfaces_as_itself(monkeypatch):
    backends = []
    init = runner._ProcessBackend.__init__

    def recording(self, specs):
        init(self, specs)
        backends.append(self)

    monkeypatch.setattr(runner._ProcessBackend, "__init__", recording)
    router = RouteBricksRouter(num_nodes=4, seed=11)
    workload = _BrokenDice(name="broken", mix=((64, 1.0),),
                           matrix=uniform_matrix(4, 1e9))

    error = _run_in_thread(lambda: simulate_parallel(
        router, workload, until=2e-4, workers=2, backend="process"))

    assert type(error) is ConfigurationError
    assert "the dice fell off the table" in str(error)
    backend, = backends
    for pool in backend.pools:
        assert not pool._processes
