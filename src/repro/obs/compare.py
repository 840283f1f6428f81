"""Benchmark-to-baseline comparison: the perf-regression arithmetic.

One code path serves ``python -m repro obs diff`` and CI's
``scripts/check_bench_regression.py``: load two documents (a committed
baseline and a fresh BENCH artifact, or two BENCH artifacts), compare
the ``rate`` scalars they share, and classify each delta: a rate
regresses downward.  ``count`` scalars ride along in the documents for
``obs report`` and never gate.  Both derive from the analytic model and
the seeded DES, so they are deterministic on any machine; wall-clock
cost is not in these documents at all (``perfbench`` measures it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .schema import (
    BASELINE_SCHEMA,
    BENCH_SCHEMA,
    DEFAULT_TOLERANCE,
    validate_baseline,
    validate_bench,
)


@dataclass(frozen=True)
class Delta:
    """One scalar's baseline-vs-current comparison."""

    benchmark: str
    metric: str
    kind: str
    baseline: Optional[float]
    current: Optional[float]
    change: Optional[float]          # fractional; None when undefined
    status: str                      # ok|regressed|improved|missing|new

    @property
    def regressed(self) -> bool:
        return self.status == "regressed"

    def describe(self) -> str:
        if self.change is None:
            return "%-10s %s/%s: %s (baseline %s, current %s)" % (
                self.status, self.benchmark, self.metric,
                self.kind, self.baseline, self.current)
        return "%-10s %s/%s: %.6g -> %.6g (%+.1f%%, %s)" % (
            self.status, self.benchmark, self.metric,
            self.baseline, self.current, self.change * 100, self.kind)


def classify(kind: str, baseline: float, current: float,
             tolerance: float) -> Tuple[Optional[float], str]:
    """Fractional change and verdict for one scalar pair."""
    if baseline == 0:
        if current == 0:
            return 0.0, "ok"
        return None, "new"
    change = (current - baseline) / abs(baseline)
    if kind == "rate" and change < -tolerance:
        return change, "regressed"
    if kind == "rate" and change > tolerance:
        return change, "improved"
    return change, "ok"


def compare_scalars(benchmark: str,
                    baseline: Dict[str, dict],
                    current: Dict[str, dict],
                    tolerance: float = DEFAULT_TOLERANCE) -> List[Delta]:
    """Compare the rate scalars of two maps (metric -> {value, kind})."""
    deltas: List[Delta] = []
    for metric in sorted(baseline):
        cell = baseline[metric]
        kind = cell.get("kind", "count")
        if kind != "rate":
            continue
        base_value = float(cell["value"])
        cur_cell = current.get(metric)
        if cur_cell is None:
            deltas.append(Delta(benchmark, metric, kind, base_value,
                                None, None, "missing"))
            continue
        cur_value = float(cur_cell["value"])
        change, status = classify(kind, base_value, cur_value, tolerance)
        deltas.append(Delta(benchmark, metric, kind, base_value,
                            cur_value, change, status))
    for metric in sorted(set(current) - set(baseline)):
        kind = current[metric].get("kind", "count")
        if kind == "rate":
            deltas.append(Delta(benchmark, metric, kind, None,
                                float(current[metric]["value"]), None,
                                "new"))
    return deltas


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


def compare_docs(baseline_doc: dict, bench_doc: dict,
                 tolerance: float = DEFAULT_TOLERANCE) -> List[Delta]:
    """Compare one BENCH document against a baseline (either shape).

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
    base_scalars = baseline_scalars_for(baseline_doc, name)
    if base_scalars is None:
        raise ValueError("baseline has no entry for benchmark %r" % name)
    return compare_scalars(name, base_scalars, bench_doc["scalars"],
                           tolerance=tolerance)


def make_baseline(bench_docs: Iterable[dict],
                  tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Fold BENCH documents into a committable baseline file."""
    benchmarks = {}
    for doc in bench_docs:
        problems = validate_bench(doc)
        if problems:
            raise ValueError("refusing to bake invalid document %r: %s"
                             % (doc.get("name"), "; ".join(problems)))
        benchmarks[doc["name"]] = {"scalars": doc["scalars"]}
    return {
        "schema": BASELINE_SCHEMA,
        "tolerance": tolerance,
        "benchmarks": benchmarks,
    }


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def summarize(deltas: Sequence[Delta]) -> str:
    """Human-readable digest, regressions first."""
    order = {"regressed": 0, "missing": 1, "new": 2, "improved": 3,
             "ok": 4}
    lines = [d.describe()
             for d in sorted(deltas, key=lambda d: (order[d.status],
                                                    d.benchmark, d.metric))]
    regressed = sum(1 for d in deltas if d.regressed)
    lines.append("%d scalar(s) compared, %d regressed, %d improved, "
                 "%d missing from current run"
                 % (len(deltas), regressed,
                    sum(1 for d in deltas if d.status == "improved"),
                    sum(1 for d in deltas if d.status == "missing")))
    return "\n".join(lines)
