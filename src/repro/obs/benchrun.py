"""Run ``benchmarks/bench_*.py`` scenarios outside pytest, with metrics on.

pytest-benchmark produces interactive output for humans; CI and the
``repro obs`` CLI need a machine-readable artifact instead.  This module
imports one benchmark file, resolves its fixtures against lightweight
stand-ins (a call-through proxy for ``benchmark``, an in-memory
``save_result``, a throw-away directory for ``results_dir``/``tmp_path``,
and the module's own ``@pytest.fixture`` functions), runs every
``test_*`` under a fresh *enabled*
:class:`~repro.obs.metrics.MetricsRegistry`, and emits a schema-versioned
``BENCH_<name>.json`` document (:data:`repro.obs.schema.BENCH_SCHEMA`).

Scalars are harvested two ways:

* rows/dicts returned through the ``benchmark`` proxy are walked for
  throughput-looking numeric keys (``*gbps``, ``*mpps``, ``rate*``...),
  exported as ``kind="rate"`` with ``.mean``/``.min`` aggregates;
* selected registry totals (events run, packets dropped) become
  ``kind="count"``.

Both come from the seeded analytic/DES models and nothing here reads a
host clock (``perfbench`` times runs, from outside), so a document is a
pure function of code and seed.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import math
import pathlib
import random
import statistics
import sys
import traceback
from typing import Any, Callable, Dict, List, Optional

from .explain import explain_from_registry
from .metrics import MetricsRegistry, use_registry
from .schema import BENCH_SCHEMA, validate_bench

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into the image
    _np = None

#: Default RNG seed applied before every test (satellite: reproducible
#: bench JSON run-to-run).
DEFAULT_SEED = 20090917  # RouteBricks' SOSP camera-ready era

#: Quick subset used by CI's bench job -- the scenarios that finish in
#: seconds and still cover the analytic model, the DES, and the cluster.
#: ``timed_server`` is the one that exercises the DES hot paths, so its
#: run also yields a ``PROFILE_*.collapsed`` span-profile sidecar.
QUICK_BENCHMARKS = (
    "table1_batching",
    "fig6_queues",
    "table2_bounds",
    "fig7_aggregate",
    "fig3_topology",
    "timed_server",
    "stateful_scr",
    "fib_churn",
)

#: Numeric dict keys harvested as rate scalars.
_RATE_KEY_HINTS = ("gbps", "mpps", "mbps", "pps", "rate")
#: String dict keys recorded verbatim (e.g. which resource binds).
_LABEL_KEY_HINTS = ("binding", "bottleneck")


def bench_root() -> pathlib.Path:
    """The repo's ``benchmarks/`` directory (repo root is three levels
    above this file: src/repro/obs)."""
    return pathlib.Path(__file__).resolve().parents[3] / "benchmarks"


def normalize(name: str) -> str:
    """Accept ``bench_fig6_queues``, ``fig6_queues``, or a filename."""
    short = name[:-3] if name.endswith(".py") else name
    if short.startswith("bench_"):
        short = short[len("bench_"):]
    return short


def discover(root: Optional[pathlib.Path] = None) -> List[str]:
    """Short names of every benchmark scenario on disk, sorted."""
    root = root or bench_root()
    return sorted(normalize(p.name) for p in root.glob("bench_*.py"))


class BenchmarkProxy:
    """Stands in for pytest-benchmark's ``benchmark`` fixture.

    Supports the two call styles the suite uses -- ``benchmark(fn,
    *args)`` and ``benchmark.pedantic(fn, args=..., rounds=...,
    iterations=...)`` -- calling the target and keeping its result, so
    the scalars can be harvested and assertions downstream still run.
    """

    def __init__(self) -> None:
        self.last_result: Any = None

    def __call__(self, target: Callable, *args, **kwargs) -> Any:
        self.last_result = target(*args, **kwargs)
        return self.last_result

    def pedantic(self, target: Callable, args: tuple = (),
                 kwargs: Optional[dict] = None, rounds: int = 1,
                 iterations: int = 1, warmup_rounds: int = 0) -> Any:
        for _ in range(max(1, rounds) * max(1, iterations)):
            self(target, *args, **(kwargs or {}))
        return self.last_result


class _Skipped(Exception):
    """Internal: a test could not run (unknown fixture, pytest.skip)."""


def _load_module(short: str, root: pathlib.Path):
    path = root / ("bench_%s.py" % short)
    if not path.exists():
        raise FileNotFoundError(
            "no such benchmark %r (looked for %s); known: %s"
            % (short, path, ", ".join(discover(root))))
    # benchmarks/ is not a package: load by file location under a
    # private alias so repeated runs do not collide in sys.modules.
    spec = importlib.util.spec_from_file_location(
        "repro_bench._%s" % short, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def _unwrap_fixture(obj) -> Optional[Callable]:
    """The plain function behind a ``@pytest.fixture`` definition, or
    None when ``obj`` is not one."""
    wrapped = getattr(obj, "__wrapped__", None)
    if wrapped is not None and (
            "fixture" in type(obj).__name__.lower()
            or getattr(obj, "_pytestfixturefunction", None) is not None):
        return wrapped
    return None


class FixtureResolver:
    """Resolves fixture-style parameters for one test invocation."""

    def __init__(self, module, builtins: Dict[str, Any],
                 cache: Dict[str, Any]):
        self.module = module
        self.builtins = builtins
        # Module-scope fixtures (rib, destinations) are expensive;
        # ``cache`` is shared across the tests of one benchmark file.
        self.cache = cache

    def resolve(self, name: str) -> Any:
        if name in self.builtins:
            return self.builtins[name]
        if name in self.cache:
            return self.cache[name]
        fn = _unwrap_fixture(getattr(self.module, name, None))
        if fn is None:
            raise _Skipped("fixture %r is not supported by the runner"
                           % name)
        args = [self.resolve(dep)
                for dep in inspect.signature(fn).parameters]
        value = fn(*args)
        if inspect.isgenerator(value):  # yield-fixture: take the value
            value = next(value)
        self.cache[name] = value
        return value


def _harvest(value: Any, sink: Dict[str, Any], depth: int = 0) -> None:
    """Walk a benchmark return value for throughput-like observations."""
    if depth > 6 or value is None:
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(key, str):
                lowered = key.lower()
                numeric = (isinstance(item, (int, float))
                           and not isinstance(item, bool)
                           and math.isfinite(item))
                if numeric and any(h in lowered for h in _RATE_KEY_HINTS):
                    sink.setdefault(key, []).append(float(item))
                    continue
                if isinstance(item, str) \
                        and any(h in lowered for h in _LABEL_KEY_HINTS):
                    sink.setdefault("label:" + key, []).append(item)
                    continue
            _harvest(item, sink, depth + 1)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _harvest(item, sink, depth + 1)


def _seed_everything(seed: int) -> None:
    random.seed(seed)
    if _np is not None:
        _np.random.seed(seed)


def _registry_counts(registry: MetricsRegistry) -> Dict[str, float]:
    """Totals worth tracking for drift (kind="count")."""
    out: Dict[str, float] = {}
    events = registry.get("sim_events")
    if events is not None:
        out["sim_events"] = float(events.totals()["count"])
    drops = registry.get("node_drops")
    if drops is not None:
        out["node_drops"] = drops.total()
    return out


def run_benchmark(name: str, seed: int = DEFAULT_SEED) -> dict:
    """Execute one benchmark scenario; returns a BENCH document."""
    import tempfile

    import pytest

    root = bench_root()
    short = normalize(name)
    module = _load_module(short, root)

    tests = [(n, fn) for n, fn in sorted(vars(module).items())
             if n.startswith("test_") and inspect.isfunction(fn)]
    registry = MetricsRegistry(enabled=True, trace_sample_every=64,
                               profile=True)
    artifacts: Dict[str, str] = {}
    observations: Dict[str, Any] = {}
    test_entries: List[dict] = []
    scalars: Dict[str, dict] = {}
    module_cache: Dict[str, Any] = {}

    def save_result(artifact: str, text: str) -> None:
        artifacts[artifact] = text

    # Files a scenario writes land in a directory that goes with the
    # run, never in the source tree.
    with tempfile.TemporaryDirectory() as scratch, use_registry(registry):
        tmp_dir = pathlib.Path(scratch)
        for test_name, fn in tests:
            proxy = BenchmarkProxy()
            builtins = {
                "benchmark": proxy,
                "save_result": save_result,
                "results_dir": tmp_dir,
                "tmp_path": tmp_dir,
            }
            resolver = FixtureResolver(module, builtins, module_cache)
            _seed_everything(seed)
            entry = {"name": test_name, "status": "passed"}
            try:
                args = [resolver.resolve(p) for p
                        in inspect.signature(fn).parameters]
                fn(*args)
            except _Skipped as exc:
                entry["status"] = "skipped"
                entry["detail"] = str(exc)
            except pytest.skip.Exception as exc:
                entry["status"] = "skipped"
                entry["detail"] = str(exc)
            except AssertionError as exc:
                entry["status"] = "failed"
                entry["detail"] = str(exc) or "assertion failed"
            except Exception as exc:
                entry["status"] = "error"
                entry["detail"] = "".join(traceback.format_exception_only(
                    type(exc), exc)).strip()
            test_entries.append(entry)
            if entry["status"] != "passed":
                continue
            per_test: Dict[str, Any] = {}
            _harvest(proxy.last_result, per_test)
            for key, values in per_test.items():
                if key.startswith("label:"):
                    observations.setdefault(key, []).extend(values)
                    continue
                scalars["%s.%s.mean" % (test_name, key)] = {
                    "value": statistics.fmean(values), "kind": "rate"}
                scalars["%s.%s.min" % (test_name, key)] = {
                    "value": min(values), "kind": "rate"}

    for key, value in _registry_counts(registry).items():
        scalars["run.%s" % key] = {"value": value, "kind": "count"}
    status = "passed" if all(t["status"] in ("passed", "skipped")
                             for t in test_entries) else "failed"
    doc = {
        "schema": BENCH_SCHEMA,
        "name": short,
        "seed": seed,
        "status": status,
        "tests": test_entries,
        "scalars": scalars,
        "labels": {key[len("label:"):]: sorted(set(values))
                   for key, values in observations.items()},
        "metrics": registry.snapshot(),
        "explain": explain_from_registry(registry),
        "artifacts": sorted(artifacts),
    }
    problems = validate_bench(doc)
    if problems:  # pragma: no cover - guards future schema drift
        raise RuntimeError("runner produced an invalid document: %s"
                           % "; ".join(problems))
    return doc


def _json_default(value):
    """Coerce stray numpy scalars at the serialization boundary."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError("not JSON serializable: %r" % type(value))


def write_bench_json(doc: dict, out_dir: pathlib.Path) -> pathlib.Path:
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("BENCH_%s.json" % doc["name"])
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True,
                  default=_json_default)
        handle.write("\n")
    # Sidecar: the run's collapsed-stack profile, ready for flamegraph
    # tooling (and CI artifact upload).  Skipped when nothing was charged.
    collapsed = (doc.get("metrics", {}).get("profile") or {}).get("collapsed")
    if collapsed:
        profile_path = out_dir / ("PROFILE_%s.collapsed" % doc["name"])
        profile_path.write_text("\n".join(collapsed) + "\n")
    # Sidecar: the Perfetto-loadable timeline of the same run (epochs,
    # barriers, profiler frames, sampled packet journeys).  Skipped when
    # the snapshot yields no events at all.
    from .timeline import chrome_trace, write_trace_json
    trace_doc = chrome_trace(doc["name"], doc.get("metrics") or {})
    if trace_doc["traceEvents"]:
        write_trace_json(trace_doc, out_dir)
    return path
