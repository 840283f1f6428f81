"""Who reads a host clock is a one-line answer.

``repro.parallel.runner`` does (per-partition busy / barrier telemetry,
which cannot be seen from outside a worker) and ``repro.cli`` does (to
print how long a command took).  Everything else under ``src/repro`` is
a pure function of code and seed; what it costs in real seconds is
measured from outside the program, by ``perfbench``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: The ``time`` module's clock readers (``sleep`` and the formatting
#: helpers are not clocks).
CLOCKS = {stem + suffix
          for stem in ("perf_counter", "process_time", "time", "monotonic",
                       "thread_time")
          for suffix in ("", "_ns")}

ALLOWED = {"parallel/runner.py", "cli.py"}


def clock_reads(path):
    """``(line, name)`` for every host-clock reference in one module:
    ``from time import <clock>`` and ``<time module>.<clock>``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module_names = {alias.asname or alias.name
                    for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names if alias.name == "time"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time" \
                and not node.level:
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in CLOCKS or alias.name == "*"]
        elif isinstance(node, ast.Attribute) and node.attr in CLOCKS \
                and isinstance(node.value, ast.Name) \
                and node.value.id in module_names:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_only_the_runner_and_the_cli_read_a_host_clock():
    readers = {}
    for path in sorted(SRC.rglob("*.py")):
        reads = clock_reads(path)
        if reads:
            readers[path.relative_to(SRC).as_posix()] = reads
    assert set(readers) == ALLOWED, readers


def test_the_walker_sees_both_spellings(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import time as t\n"
        "from time import sleep, process_time\n"
        "def f(time):\n"
        "    return time.time()\n"       # a parameter, not the module
        "x = t.monotonic_ns()\n")
    assert clock_reads(module) == [(2, "process_time"), (5, "monotonic_ns")]
