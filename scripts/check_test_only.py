#!/usr/bin/env python3
"""Fail when ``src/repro`` holds a def or a module that only tests reach,
an attribute nothing reads, or an allowlist entry that names nothing.

Two passes find what only tests reach, both blind to ``__init__``
re-exports (a re-export is not a use):

* **Words.**  A token walk counts every identifier-shaped word in the
  ``.py`` files under ``src``, ``benchmarks``, ``examples``,
  ``perfbench`` and ``scripts``.  A top-level function or class in
  ``src/repro`` whose name occurs there only at its own definition is
  reached, if at all, from ``tests/`` alone.  A method (dunders aside)
  that no code there reads as an attribute (``x.name``), and that no
  ``_summary_fields`` tuple names (``RunResult.summary()`` reads those
  with ``getattr``), is reached from ``tests/`` alone too.
* **Imports.**  An import walk starts at ``repro.cli``, ``repro.__main__``
  and every file under ``benchmarks``, ``examples``, ``perfbench`` and
  ``scripts``, and follows every ``import`` / ``from ... import`` in each
  module it reaches, lazy function-level imports included.  A name
  imported from a package counts as an import of the module the
  package's ``__init__`` takes it from: eagerly (``from .x import
  name``) or through its literal ``_EXPORTS`` table of lazy re-exports
  (``{submodule: (name, ...)}``, see ``repro._lazy``), read with the
  AST.  Of a reached ``__init__``'s own imports the walk follows only
  the modules (``from .. import _lazy``, ``from . import partition``),
  which run whenever the package does.  A ``src/repro`` module the walk
  never reaches is reached, if at all, from ``tests/`` alone.

Delete what only tests reach, with its tests, or add it to ``ALLOWED``
(defs) or ``ALLOWED_MODULES`` with its reason: a test needs it to check
*other* code (a reference, a verifier, a fixture), or DESIGN.md records
why it stays.

Two more passes have no allowlist:

* **Unread attributes.**  An attribute that ``src/repro`` stores
  through a name (``self.name = ...``, ``report.name += 1``) must be read
  somewhere under ``src``, ``benchmarks``, ``examples``, ``perfbench``,
  ``scripts`` or ``tests``: as ``x.name``, or as a string (``getattr``,
  ``_summary_fields``).  A counter nothing reads is dead weight on
  every packet that bumps it.
* **Stale entries.**  Every ``ALLOWED`` key names a def or method that
  exists in ``src/repro``, and every ``ALLOWED_MODULES`` key a module.

Usage::

    python scripts/check_test_only.py

Prints every test-only def and module (allowed ones with their reason),
every unread attribute and every stale entry.  Exit codes: 0 everything
test-only is allowed and the other two passes find nothing, 1 otherwise.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ROOTS = ("src", "benchmarks", "examples", "perfbench", "scripts")
ENTRY_ROOTS = ROOTS[1:]
ENTRY_MODULES = ("repro.cli", "repro.__main__")
SCRIPT = pathlib.Path(__file__).name
SKIP = ("__init__.py", SCRIPT)  # ALLOWED is not a use
WORD = re.compile(r"[A-Za-z_]\w*")

#: Test-only defs (``Class.method`` for a method) that tests use to check
#: other code, one reason each.
ALLOWED = {
    "check_fairness": "the section 3.1 fairness assertion on VLB egress shares",
    "jain_index": "the section 3.1 fairness index beside check_fairness",
    "apply_history": "the serial reference every dispatch strategy is compared to",
    "verify_checksum": "the decoder the checksum encoder is checked against",
    "decode_output_node": "the decoder the MAC output-node encoder is checked against",
    "worst_ratio_deviation": "the paper-narrative test's model-vs-paper check",
    "RouterGraph.add_all": "tests build Click element graphs with it",
    "TimedRunReport.loss_free": "tests check a timed run's verdict with it",
    "ClusterManager.remove_node": "membership removal; tests check re-homing and "
                                  "stale peers after it",
    "Resequencer.pending": "tests check the reorder buffer drains with it",
    "Reassembler.pending": "tests check the fragment buffer drains with it",
    "DegradationReport.fractions": "tests check the degradation curve's shape with it",
    "LatencyBreakdown.fractions": "tests check a latency decomposition's shares with it",
    "LatencyBreakdown.conserved": "the decomposition's conservation check; tests run it "
                                  "on every sampled journey",
    "FaultSchedule.stall_nic": "the FaultSchedule DSL of DESIGN.md's 'Faults & "
                               "degradation' row (NIC-queue stall)",
    "FaultSchedule.flap_link": "the FaultSchedule DSL of DESIGN.md's 'Faults & "
                               "degradation' row (link flap)",
    "FaultSchedule.max_node_id": "the FaultSchedule DSL of DESIGN.md's 'Faults & "
                                 "degradation' row (the nodes a script touches)",
    "FaultSchedule.to_json": "the writer the CLI's schedule loader (from_json) is "
                             "checked against",
    "Packet.tcp": "builds the TCP packets tests feed the parsers and flow keys",
    "SpanProfiler.self_value": "tests read the profiler's charges with it",
    "SpanProfiler.total_value": "tests read the profiler's charges with it",
    "PathTrace.sites": "tests read a sampled journey's hops with it",
    "Core.utilization": "tests check a timed run's core load with it",
    "Bus.utilization": "the bus counterpart of Core.utilization",
}

#: Modules no entry point imports, one DESIGN.md reason each.
ALLOWED_MODULES = {}


def _attribute_uses(tree):
    """Every attribute name ``tree`` reads (``x.name``), plus the names
    in its ``_summary_fields`` tuples, which ``RunResult.summary()``
    reads with ``getattr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "_summary_fields"
                for target in node.targets):
            yield from ast.literal_eval(node.value)


def _defs(tree, where):
    """``(where, line, name)`` of ``tree``'s top-level defs, and of their
    methods (``Class.method``, dunders aside)."""
    defs, methods = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((where, node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            methods.extend((where, item.lineno, "%s.%s" % (node.name, item.name))
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("__"))
    return defs, methods


def find_test_only():
    """``(path, line, name)`` of every top-level def named only where
    defined, and of every method no code reads as an attribute."""
    uses = collections.Counter()
    attributes = set()
    defs = []
    methods = []
    for root in ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.name in SKIP:
                continue
            source = path.read_text()
            tree = ast.parse(source)
            uses.update(WORD.findall(source))
            attributes.update(_attribute_uses(tree))
            if root == "src":
                new_defs, new_methods = _defs(tree, path.relative_to(REPO_ROOT))
                defs += new_defs
                methods += new_methods
    uses.subtract(name for _, _, name in defs)  # a definition is not a use
    return [d for d in defs if uses[d[2]] <= 0] + [
        m for m in methods if m[2].partition(".")[2] not in attributes]


def _modules():
    """Dotted name -> path of every module under ``src/repro``."""
    modules = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(REPO_ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(path, module=None):
    """``(base, name)`` per import in ``path``, anywhere in the file: a
    ``from base import name``, or ``(module, None)`` for ``import
    module``.  ``module`` is the file's dotted name (to resolve relative
    imports); ``None`` outside ``src``."""
    package = None
    if module is not None:
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                if package is None:
                    continue    # a sibling under an entry root: walked anyway
                base = package.rsplit(".", node.level - 1)[0]
                base = base + "." + node.module if node.module else base
            for alias in node.names:
                yield base, alias.name


def _exports(path, package):
    """Name -> ``(base, name)`` for every name the ``__init__`` at
    ``path`` re-exports, eagerly or through its ``_EXPORTS`` table."""
    exports = {name: (base, name) for base, name in _imports(path, package)}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "_EXPORTS"
                for target in node.targets):
            for submodule, names in ast.literal_eval(node.value).items():
                for name in names:
                    exports[name] = (package + "." + submodule, name)
    return exports


def find_unreached():
    """``(path, module)`` of every ``src/repro`` module no entry point
    imports, directly or through the modules it reaches."""
    modules = _modules()
    # package -> {name: (base, name) its __init__ imports it as}
    exports = {package: _exports(path, package)
               for package, path in modules.items() if path.name == "__init__.py"}
    reached = set()
    pending = []

    def reach(base, name):
        if base not in modules:
            return
        parts = base.split(".")
        for end in range(1, len(parts) + 1):   # a submodule runs its parents
            prefix = ".".join(parts[:end])
            if prefix not in reached:
                reached.add(prefix)
                pending.append(prefix)
        if name is None:
            return
        if base + "." + name in modules:
            reach(base + "." + name, None)
        elif name in exports.get(base, ()):
            reach(*exports[base][name])

    for root in ENTRY_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for base, name in _imports(path):
                reach(base, name)
    for module in ENTRY_MODULES:
        reach(module, None)
    while pending:
        module = pending.pop()
        package = modules[module].name == "__init__.py"
        for base, name in _imports(modules[module], module):
            if package and name is not None and base + "." + name not in modules:
                continue            # a re-export is not a use
            reach(base, name)
    return [(modules[m].relative_to(REPO_ROOT), m)
            for m in sorted(modules) if m not in reached]


def find_unread():
    """``(path, line, name)`` of the first store of every ``x.name``
    (``x`` any name: ``self``, a report, ...) in ``src/repro`` that no
    file under ``ROOTS`` or ``tests`` reads."""
    stores = {}
    reads = set()
    for root in ROOTS + ("tests",):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.name == SCRIPT:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    reads.add(node.value)       # getattr(x, "name")
                elif not isinstance(node, ast.Attribute):
                    continue
                elif isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
                elif root == "src" and isinstance(node.value, ast.Name):
                    stores.setdefault(node.attr, (path.relative_to(REPO_ROOT),
                                                  node.lineno))
    return sorted((path, line, name) for name, (path, line) in stores.items()
                  if name not in reads)


def find_stale():
    """Every ``ALLOWED`` or ``ALLOWED_MODULES`` key that names no def,
    method or module in ``src/repro``."""
    names = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        defs, methods = _defs(ast.parse(path.read_text()), path)
        names.update(name for _, _, name in defs + methods)
    modules = _modules()
    return sorted([name for name in ALLOWED if name not in names]
                  + [module for module in ALLOWED_MODULES if module not in modules])


def main() -> int:
    unallowed = 0
    for path, line, name in find_test_only():
        reason = ALLOWED.get(name)
        unallowed += reason is None
        print("%s:%d: %s: %s" % (path, line, name, reason or "only tests name it"))
    unreached = 0
    for path, module in find_unreached():
        reason = ALLOWED_MODULES.get(module)
        unreached += reason is None
        print("%s: %s: %s" % (path, module, reason or "no entry point imports it"))
    unread = find_unread()
    for path, line, name in unread:
        print("%s:%d: .%s: stored, never read" % (path, line, name))
    stale = find_stale()
    for name in stale:
        print("%s: allowlisted, but src/repro defines no such def or module" % name)
    if unallowed:
        print("%d test-only defs in src/repro are not in ALLOWED" % unallowed, file=sys.stderr)
    if unreached:
        print("%d test-only modules in src/repro are not in ALLOWED_MODULES" % unreached,
              file=sys.stderr)
    if unread:
        print("%d attributes in src/repro are stored and never read" % len(unread),
              file=sys.stderr)
    if stale:
        print("%d allowlist entries name nothing in src/repro" % len(stale), file=sys.stderr)
    return 1 if unallowed or unreached or unread or stale else 0


if __name__ == "__main__":
    sys.exit(main())
