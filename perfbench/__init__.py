"""perfbench: the repo's wall-clock benchmark.

A closed, batch benchmark of the simulator itself: one process issues
one simulation call at a time on a fixed input size and the harness
reports *host* time for it.  Every repeat of every workload runs in a
fresh child process; see ``perfbench/README.md``.

Run it from the repo root::

    python3 -m perfbench                      # every workload, timed + traced
    python3 -m perfbench --workload fib_churn_rb4 --trace 0 --seconds 10

Module map: ``workloads`` (the size table), ``entrypoints`` (every call
into ``repro``), ``child`` (one repeat), ``trace`` (spans + profile
bucketing), ``stats`` (medians, bounds, digests), ``__main__`` (the
harness).
"""

import pathlib

#: Where results.json and trace_<workload>.json go (git-ignored).
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
