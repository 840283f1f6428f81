#!/usr/bin/env python3
"""Fail when ``src/repro`` holds a top-level def that only tests reach.

A token walk counts every identifier-shaped word in the ``.py`` files
under ``src``, ``benchmarks``, ``examples``, ``perfbench`` and
``scripts``; ``__init__`` files are skipped, so a re-export is not a use.
A top-level function or class in ``src/repro`` whose name occurs there
only at its own definition is reached, if at all, from ``tests/`` alone:
delete it with its tests, or add it to ``ALLOWED`` with the reason a
test needs it to check *other* code (a reference, a verifier, a fixture).

Usage::

    python scripts/check_test_only.py

Prints every test-only def (allowed ones with their reason).  Exit
codes: 0 every test-only def is allowed, 1 otherwise.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ROOTS = ("src", "benchmarks", "examples", "perfbench", "scripts")
SKIP = ("__init__.py", pathlib.Path(__file__).name)  # ALLOWED is not a use
WORD = re.compile(r"[A-Za-z_]\w*")

#: Test-only defs that tests use to check other code, one reason each.
ALLOWED = {
    "ClickCluster": "the section 8 end-to-end check runs a whole Click cluster",
    "check_fairness": "the section 3.1 fairness assertion on VLB egress shares",
    "jain_index": "the section 3.1 fairness index beside check_fairness",
    "apply_history": "the serial reference every dispatch strategy is compared to",
    "verify_checksum": "the decoder the checksum encoder is checked against",
    "parse_icmp": "the decoder the ICMP encoders are checked against",
    "worst_ratio_deviation": "the paper-narrative test's model-vs-paper check",
}


def find_test_only():
    """``(path, line, name)`` of every top-level def named only where defined."""
    uses = collections.Counter()
    defs = []
    for root in ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.name in SKIP:
                continue
            source = path.read_text()
            uses.update(WORD.findall(source))
            if root == "src":
                for node in ast.parse(source).body:
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                        defs.append((path.relative_to(REPO_ROOT), node.lineno, node.name))
    uses.subtract(name for _, _, name in defs)  # a definition is not a use
    return [d for d in defs if uses[d[2]] <= 0]


def main() -> int:
    unallowed = 0
    for path, line, name in find_test_only():
        reason = ALLOWED.get(name)
        unallowed += reason is None
        print("%s:%d: %s: %s" % (path, line, name, reason or "only tests name it"))
    if unallowed:
        print("%d test-only defs in src/repro are not in ALLOWED" % unallowed, file=sys.stderr)
    return 1 if unallowed else 0


if __name__ == "__main__":
    sys.exit(main())
