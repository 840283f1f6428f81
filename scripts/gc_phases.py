#!/usr/bin/env python3
"""Where the cyclic collector runs in one perfbench child, phase by phase.

perfbench divides every time it reports by the child's calibration loop
(``perfbench.child.calibrate``), which runs with the collector on.  A
generation-2 collection that lands inside that loop scales a workload's
reported times while its raw times stay put, so a code change that only
moves where the collector runs can read as a gain or a regression.  Run
this in both trees of a comparison before trusting one.

It runs ``perfbench.child.main`` for one workload in this process, in
the harness's timed mode, with a ``gc.callbacks`` hook, and prints the
number of collections of each generation, and the seconds they took, in
each phase of the child:

* ``build``: imports and scenario set-up, up to the first calibration;
* ``calibrate``: both calibration loops;
* ``run``: the timed run, between them;
* ``check``: everything after the second loop.

The phases are marked by wrapping ``child.calibrate`` from here; nothing
under ``perfbench/`` changes.  The script re-executes itself with the
environment the harness gives a child (``PYTHONPATH=src``,
``PYTHONHASHSEED=0``, ``PYTHONDONTWRITEBYTECODE=1``).  Its own imports
and hook allocate a little, so a collection that sits on a phase
boundary in a harness child can land one phase over here.

Usage, from anywhere::

    python scripts/gc_phases.py <workload> [--seed N]
"""

import gc
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {"PYTHONPATH": os.path.join(ROOT, "src"), "PYTHONHASHSEED": "0",
       "PYTHONDONTWRITEBYTECODE": "1"}
PHASES = ("build", "calibrate", "run", "check")
DEFAULT_SEED = 20090917


def _reexec_as_child() -> None:
    """Restart under the harness's child environment unless already in it."""
    if all(os.environ.get(name) == value for name, value in ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
              + sys.argv[1:], dict(os.environ, **ENV))


def main(argv) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__.strip().rsplit("\n", 1)[-1].strip(), file=sys.stderr)
        return 2
    workload = argv[0]
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv \
        else DEFAULT_SEED
    _reexec_as_child()
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)

    # Every cell exists before the hook is armed, and the hook stores
    # only ints and floats (never tracked by the collector), so counting
    # a collection adds nothing to the next one's count.
    cells = {(phase, gen): [0, 0.0] for phase in PHASES for gen in range(3)}
    phase = ["build"]
    started = [0.0]
    clock = time.perf_counter

    def on_gc(stage, info):
        if stage == "start":
            started[0] = clock()
        else:
            cell = cells[phase[0], info["generation"]]
            cell[0] += 1
            cell[1] += clock() - started[0]

    from perfbench import child

    calibrate = child.calibrate
    after = ["run", "check"]

    def marked_calibrate(*args, **kwargs):
        phase[0] = "calibrate"
        try:
            return calibrate(*args, **kwargs)
        finally:
            phase[0] = after.pop(0) if after else "check"

    child.calibrate = marked_calibrate
    gc.callbacks.append(on_gc)
    try:
        status = child.main([workload, str(seed), "timed"])
    finally:
        gc.callbacks.remove(on_gc)
    print("collections per phase of %s (seed %d), count and seconds:"
          % (workload, seed))
    print("  %-10s %16s %16s %16s" % ("phase", "gen0", "gen1", "gen2"))
    for name in PHASES:
        print("  %-10s" % name + "".join(
            " %5d %10.6f" % tuple(cells[name, gen]) for gen in range(3)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
