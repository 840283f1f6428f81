"""The observer's cadence is one rule at any partition count.

Traffic that stops well before the horizon is where a sampling chain can
go wrong: after the drain exactly one more tick is due, and only the
barrier knows when "nothing is pending anywhere" became true.  A tick
that lived in partition 0's queue decided it from a hint computed before
the epoch, and took one tick too many on about half of these points.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel import simulate_parallel
from repro.workloads import WorkloadSpec
from repro.workloads.matrices import uniform_matrix

from .test_parallel import _normalize, _registry, _report_scalars, _router

#: (seed, seconds of traffic, horizon): RB4 at load 0.3, 64 B packets.
EARLY_DRAIN_POINTS = [
    (1, 0.6e-4, 4e-4), (2, 1.7e-4, 4e-4), (3, 0.6e-4, 1e-3),
    (4, 1.1e-4, 4e-4), (5, 1.7e-4, 1e-3), (6, 0.6e-4, 4e-4),
    (7, 1.1e-4, 1e-3), (8, 1.7e-4, 4e-4), (9, 0.6e-4, 1e-3),
    (10, 1.1e-4, 4e-4), (11, 1.7e-4, 1e-3), (12, 0.6e-4, 4e-4),
]


def _run(seed, traffic_sec, until, workers, backend="inline"):
    router = _router(seed=seed)
    workload = WorkloadSpec.fixed(64, seed=seed).with_matrix(
        uniform_matrix(router.num_nodes, router.port_rate_bps * 0.3))
    registry = _registry()
    report = simulate_parallel(
        router, list(workload.events(traffic_sec)), until=until,
        workers=workers, backend=backend, metrics=registry)
    return _report_scalars(report), _normalize(registry.snapshot())


@pytest.mark.parametrize("seed,traffic_sec,until", EARLY_DRAIN_POINTS)
def test_early_drain_runs_agree_at_any_worker_count(seed, traffic_sec, until):
    single = _run(seed, traffic_sec, until, 1)
    assert single[0]["delivered"] > 0
    for workers in (2, 4):
        assert _run(seed, traffic_sec, until, workers) == single, \
            "workers=%d diverged" % workers


def test_early_drain_run_agrees_on_the_process_backend():
    seed, traffic_sec, until = EARLY_DRAIN_POINTS[0]
    assert (_run(seed, traffic_sec, until, 2, backend="process")
            == _run(seed, traffic_sec, until, 1))


@pytest.mark.parametrize("workers", [1, 2])
def test_empty_run_takes_only_the_unconditional_first_tick(workers):
    registry = MetricsRegistry(enabled=True)
    report = simulate_parallel(_router(), [], until=1e-3, workers=workers,
                               backend="inline", metrics=registry)
    assert report.events_run == 1
    occupancy = registry.timeline("link_occupancy").totals(link="0-1")
    assert occupancy["count"] == 2  # t=0 and the first tick
