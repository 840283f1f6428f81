"""Partitioned parallel execution of the cluster DES.

The single-heap engine in :mod:`repro.simnet.engine` executes one event
at a time; this package shards the cluster across partitions -- each
with its own event queue and RNG streams -- and drives them in
conservative-lookahead epochs bounded by the internal links' propagation
delay, exchanging packets as timestamped transit records at epoch
barriers.  RouteBricks scales a router by adding servers; the
reproduction's simulator scales the same way by adding worker processes.

Entry point: :func:`simulate_parallel` --
:meth:`repro.core.router.RouteBricksRouter.simulate` with ``workers``
and ``backend`` knobs; both run the one epoch loop,
:func:`repro.parallel.runner.run_partitions`.  Fault-free runs produce
bit-identical reports and metric snapshots at any worker count.
"""

from .runner import BACKENDS, simulate_parallel

__all__ = ["BACKENDS", "simulate_parallel"]
