"""Run a registered paper scenario with metrics on: ``repro obs run``.

Every scenario is a product function in
:data:`repro.analysis.experiments.EXPERIMENTS`, which returns its rows
and declares its gated scalars, one ``(name, kind, value)`` per row and
column.  :func:`run_benchmark` runs one under a fresh *enabled*
:class:`~repro.obs.metrics.MetricsRegistry`, adds the registry's
simulated totals as ``count`` scalars, and returns a schema-versioned
BENCH document (:data:`repro.obs.schema.BENCH_SCHEMA`);
:func:`write_bench_json` writes it as ``BENCH_<name>.json`` beside its
PROFILE/TRACE sidecars.

Everything comes from the analytic model and the seeded DES, and
nothing here reads a host clock (``perfbench`` times runs, from
outside), so a document is a pure function of code and seed: CI holds
every scalar of the quick set exactly against
``benchmarks/results/baseline.json``.
"""

from __future__ import annotations

import json
import pathlib
import random
from typing import Dict

from .explain import explain_from_registry
from .metrics import MetricsRegistry, use_registry
from .schema import BENCH_SCHEMA, DEFAULT_SEED, validate_bench
from .trace import rebase_packet_ids

#: The gated set, run by CI's bench job: every scenario that finishes in
#: seconds.  ``T1-DES`` drives the DES hot paths, so its document also
#: carries a collapsed span profile (``metrics.profile.collapsed``).
QUICK_BENCHMARKS = ("T1", "T2", "F3", "F6", "F7", "F9", "RB4-T",
                    "T1-DES", "SCR", "FIB-CHURN")


def _registry_counts(registry: MetricsRegistry) -> Dict[str, float]:
    """The registry's simulated totals worth holding (kind="count")."""
    out: Dict[str, float] = {}
    events = registry.get("sim_events")
    if events is not None:
        out["sim_events"] = float(events.totals()["count"])
    drops = registry.get("node_drops")
    if drops is not None:
        out["node_drops"] = drops.total()
    return out


def run_benchmark(name: str, seed: int = DEFAULT_SEED) -> dict:
    """Run one registered scenario; returns its BENCH document.

    An unknown name is a ``KeyError``; a scenario whose own check fails
    raises :class:`~repro.errors.SimulationError`.
    """
    from ..analysis.experiments import run_experiment

    registry = MetricsRegistry(enabled=True, trace_sample_every=64,
                               profile=True)
    random.seed(seed)
    with use_registry(registry):
        result = run_experiment(name)
    declared = result["scalars"] + [
        ("run." + key, "count", value)
        for key, value in _registry_counts(registry).items()]
    scalars = {key: {"kind": kind, "value": value}
               for key, kind, value in declared}
    metrics = registry.snapshot()
    traces = metrics["traces"]
    traces["paths"] = rebase_packet_ids(traces["paths"])
    doc = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "seed": seed,
        "scalars": scalars,
        "metrics": metrics,
        "explain": explain_from_registry(registry),
    }
    problems = validate_bench(doc)
    if len(scalars) < len(declared):
        problems.append("two scalars share a name")
    if problems:
        raise ValueError("scenario %s declares an invalid document: %s"
                         % (name, "; ".join(problems)))
    return doc


def write_bench_json(doc: dict, out_dir: pathlib.Path) -> pathlib.Path:
    """Write ``BENCH_<name>.json``, the run's one record: its collapsed
    profile is ``metrics.profile.collapsed``, and ``repro obs timeline``
    exports its Perfetto trace."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("BENCH_%s.json" % doc["name"])
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
