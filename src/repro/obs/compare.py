"""Benchmark-to-baseline comparison: the exact gate.

``python -m repro obs diff`` loads two documents (the committed
baseline and a fresh BENCH artifact, or two BENCH artifacts) and
reports every scalar that is not exactly equal, of any kind: changed,
missing from the current run, or new in it.  Both documents come from
the analytic model and the seeded DES, so they are the same on any
machine, and any difference is a change in what the code computes;
wall-clock cost is not in these documents at all (``perfbench``
measures it).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from .schema import (
    BASELINE_SCHEMA,
    BENCH_SCHEMA,
    validate_baseline,
    validate_bench,
)


def baseline_scalars_for(baseline_doc: dict,
                         bench_name: str) -> Optional[Dict[str, dict]]:
    """Scalars recorded for one benchmark in either document shape."""
    if baseline_doc.get("schema") == BASELINE_SCHEMA:
        entry = baseline_doc.get("benchmarks", {}).get(bench_name)
        return entry["scalars"] if entry else None
    if baseline_doc.get("schema") == BENCH_SCHEMA:
        if baseline_doc.get("name") != bench_name:
            return None
        return baseline_doc.get("scalars", {})
    return None


def _show(cell: Optional[dict]) -> str:
    if cell is None:
        return "missing"
    return "%r (%s)" % (cell["value"], cell["kind"])


def compare_docs(baseline_doc: dict, bench_doc: dict) -> List[str]:
    """One line per scalar of either document that the other does not
    hold exactly; empty when they agree.

    Raises ``ValueError`` when either document fails schema validation
    or the baseline has no entry for this benchmark.
    """
    problems = validate_bench(bench_doc)
    if problems:
        raise ValueError("current document is invalid: %s"
                         % "; ".join(problems))
    if baseline_doc.get("schema") == BASELINE_SCHEMA:
        problems = validate_baseline(baseline_doc)
    else:
        problems = validate_bench(baseline_doc)
    if problems:
        raise ValueError("baseline document is invalid: %s"
                         % "; ".join(problems))
    name = bench_doc["name"]
    base = baseline_scalars_for(baseline_doc, name)
    if base is None:
        raise ValueError("baseline has no entry for benchmark %r" % name)
    current = bench_doc["scalars"]
    return ["%s/%s: %s -> %s" % (name, metric, _show(base.get(metric)),
                                 _show(current.get(metric)))
            for metric in sorted(set(base) | set(current))
            if base.get(metric) != current.get(metric)]


def make_baseline(bench_docs: Iterable[dict]) -> dict:
    """Fold BENCH documents into a committable baseline file."""
    benchmarks = {}
    for doc in bench_docs:
        problems = validate_bench(doc)
        if problems:
            raise ValueError("refusing to bake invalid document %r: %s"
                             % (doc.get("name"), "; ".join(problems)))
        benchmarks[doc["name"]] = {"scalars": doc["scalars"]}
    return {"schema": BASELINE_SCHEMA, "benchmarks": benchmarks}


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)
