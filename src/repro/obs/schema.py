"""The versioned on-disk contract for benchmark artifacts.

``BENCH_<name>.json`` is the interchange format between the benchmark
runner (:mod:`repro.obs.benchrun`), the CLI (``repro obs report/diff``),
and CI's regression gate (``scripts/check_bench_regression.py``) -- all
three validate against this module rather than trusting each other.
Version the schema string on any incompatible change; consumers refuse
documents whose major name does not match.
"""

from __future__ import annotations

from typing import List

#: Schema tag for a single benchmark result document.  /3 dropped
#: everything read off a host clock (``time``/``perf`` scalars, wall and
#: creation time): a document is a pure function of code and seed.
BENCH_SCHEMA = "repro.bench/3"
#: Schema tag for the committed multi-benchmark baseline.
BASELINE_SCHEMA = "repro.bench-baseline/1"
#: Schema tag for ``TRACE_<name>.json`` Chrome-trace-event timelines
#: (:mod:`repro.obs.timeline`).  The tag rides in the document's
#: ``metadata`` object; the ``traceEvents`` payload itself follows the
#: (external) Chrome trace event format so Perfetto and
#: ``chrome://tracing`` load it unmodified.
TRACE_SCHEMA = "repro.trace-timeline/1"

#: Scalar kinds a document may carry.
#: ``rate``  -- higher is better (Gbps, Mpps, ...); the gated kind
#: ``count`` -- informational (``obs report``, unknown-key warnings)
SCALAR_KINDS = ("rate", "count")

_REQUIRED_TOP = {
    "schema": str,
    "name": str,
    "status": str,
    "tests": list,
    "scalars": dict,
    "metrics": dict,
}

_REQUIRED_TEST = {"name": str, "status": str}

_STATUSES = ("passed", "failed", "error", "skipped")


def validate_bench(doc) -> List[str]:
    """Structural check of one BENCH document; returns problems found."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    for key, types in _REQUIRED_TOP.items():
        if key not in doc:
            errors.append("missing required key %r" % key)
        elif not isinstance(doc[key], types):
            errors.append("key %r has type %s, wanted %s"
                          % (key, type(doc[key]).__name__, types))
    if errors:
        return errors
    if doc["schema"] != BENCH_SCHEMA:
        return ["schema is %r, this tool reads %r"
                % (doc["schema"], BENCH_SCHEMA)]
    if doc["status"] not in ("passed", "failed"):
        errors.append("status must be passed|failed, got %r" % doc["status"])
    for index, test in enumerate(doc["tests"]):
        if not isinstance(test, dict):
            errors.append("tests[%d] is not an object" % index)
            continue
        for key, types in _REQUIRED_TEST.items():
            if not isinstance(test.get(key), types):
                errors.append("tests[%d].%s missing or mistyped"
                              % (index, key))
        if test.get("status") not in _STATUSES:
            errors.append("tests[%d].status %r not in %s"
                          % (index, test.get("status"), _STATUSES))
    for name, entry in doc["scalars"].items():
        if not isinstance(entry, dict):
            errors.append("scalars[%r] is not an object" % name)
            continue
        if not isinstance(entry.get("value"), (int, float)) \
                or isinstance(entry.get("value"), bool):
            errors.append("scalars[%r].value is not numeric" % name)
        if entry.get("kind") not in SCALAR_KINDS:
            errors.append("scalars[%r].kind %r not in %s"
                          % (name, entry.get("kind"), SCALAR_KINDS))
    metrics = doc["metrics"]
    for section in ("counters", "histograms", "timelines"):
        if section in metrics and not isinstance(metrics[section], dict):
            errors.append("metrics.%s is not an object" % section)
    # Optional explain section (profiler + latency decomposition join).
    if "explain" in doc:
        explain = doc["explain"]
        if not isinstance(explain, dict):
            errors.append("explain is not an object")
        else:
            if not isinstance(explain.get("latency"), (dict, type(None))):
                errors.append("explain.latency is not an object or null")
            if not isinstance(explain.get("top_frames", []), list):
                errors.append("explain.top_frames is not a list")
    return errors


#: Chrome trace event phases the exporter emits: complete spans,
#: process/thread metadata, counter samples, and instants.
_TRACE_PHASES = ("X", "M", "C", "i")


def validate_trace(doc) -> List[str]:
    """Structural check of one TRACE (Chrome trace event) document.

    Validates the subset of the Chrome trace event format the exporter
    emits -- enough for Perfetto to load the file: a ``traceEvents``
    list of "X"/"M"/"C"/"i" events with numeric microsecond timestamps,
    integer pid/tid, and per-phase required fields.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    meta = doc.get("metadata")
    if not isinstance(meta, dict):
        errors.append("missing 'metadata' object")
    elif meta.get("schema") != TRACE_SCHEMA:
        errors.append("metadata.schema is %r, this tool reads %r"
                      % (meta.get("schema"), TRACE_SCHEMA))
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        errors.append("displayTimeUnit must be 'ms' or 'ns'")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return errors + ["missing 'traceEvents' list"]
    for index, event in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(event, dict):
            errors.append("%s is not an object" % where)
            continue
        phase = event.get("ph")
        if phase not in _TRACE_PHASES:
            errors.append("%s.ph %r not in %s" % (where, phase,
                                                  _TRACE_PHASES))
            continue
        if not isinstance(event.get("pid"), int):
            errors.append("%s.pid is not an integer" % where)
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append("%s.name is not a non-empty string" % where)
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool) \
                    or ts < 0:
                errors.append("%s.ts is not a microsecond timestamp >= 0"
                              % where)
        if phase == "X":
            if not isinstance(event.get("tid"), int):
                errors.append("%s.tid is not an integer" % where)
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                    or dur < 0:
                errors.append("%s.dur is not a duration >= 0" % where)
        elif phase == "M":
            args = event.get("args")
            if not isinstance(args, dict) \
                    or not isinstance(args.get("name"), str):
                errors.append("%s metadata needs args.name" % where)
        elif phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in args.values()):
                errors.append("%s counter needs numeric args" % where)
    return errors


def validate_baseline(doc) -> List[str]:
    """Structural check of the committed baseline file."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["baseline is not a JSON object"]
    if doc.get("schema") != BASELINE_SCHEMA:
        errors.append("baseline schema is %r, this tool reads %r"
                      % (doc.get("schema"), BASELINE_SCHEMA))
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, dict):
        return errors + ["baseline has no 'benchmarks' object"]
    for name, entry in benchmarks.items():
        if not isinstance(entry, dict) \
                or not isinstance(entry.get("scalars"), dict):
            errors.append("baseline benchmark %r has no scalars" % name)
            continue
        for metric, cell in entry["scalars"].items():
            if not isinstance(cell, dict) \
                    or not isinstance(cell.get("value"), (int, float)) \
                    or cell.get("kind") not in SCALAR_KINDS:
                errors.append("baseline %s.%s is malformed"
                              % (name, metric))
    return errors
