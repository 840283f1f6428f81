"""The perfbench harness: ``python3 -m perfbench`` from the repo root.

Runs every repeat of every selected workload in a fresh child process
(``perfbench.child``), workloads interleaved round-robin, and reports
every timing as its min-of-k value scaled to the reference host speed,
beside the measured minimum, median, quartiles and sample count (see
``perfbench/stats.py`` for why).  Metric names, units, directions and
bounds are read from ``BENCHMARK.json``.

With exactly one ``--workload`` the last line of output is the driver
contract's JSON object (``correct``/``attempted``/``failed``/
``metrics``).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import OUT_DIR, stats
from .workloads import (BENCHMARK_WORKLOADS, DEFAULT_SEED, RATIO_BASE,
                        WORKLOADS)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = ROOT / "perfbench" / "digests.json"

DEFAULT_REPEATS = 5
#: Untraced repeats a ``--trace 1`` invocation times by itself, as the
#: base of the traced run's ratios, when no timed phase ran before it.
BASELINE_REPEATS = 3
CHILD_TIMEOUT_SEC = 170


class Harness:
    """Launches children and keeps every operation's outcome."""

    def __init__(self, seed: int):
        self.seed = seed
        #: Every child launched, tagged with the workload it ran for.
        self.ops: List[dict] = []
        self.env = dict(os.environ,
                        PYTHONPATH=str(SRC),
                        PYTHONHASHSEED="0",
                        PYTHONDONTWRITEBYTECODE="1")

    def run_child(self, scenario: str, mode: str, on_behalf_of: str) -> dict:
        """One repeat; a failure becomes ``{"error": ...}``."""
        command = [sys.executable, "-m", "perfbench.child", scenario,
                   str(self.seed), mode]
        try:
            done = subprocess.run(command, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_SEC)
            if done.returncode != 0:
                raise RuntimeError("exit %d: %s" % (
                    done.returncode, done.stderr.strip()[-2000:]))
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, RuntimeError, ValueError,
                IndexError) as exc:
            result = {"workload": scenario, "mode": mode, "error": str(exc)}
            print("  FAILED %s (%s): %s" % (scenario, mode, exc),
                  file=sys.stderr)
        result["for"] = on_behalf_of
        self.ops.append(result)
        return result

    # -- phases ---------------------------------------------------------------

    def timed_phase(self, names: List[str], repeats: int,
                    seconds: float) -> Dict[str, List[dict]]:
        """Round-robin over ``names`` until each has ``repeats`` repeats
        and has been measured for ``seconds``."""
        runs: Dict[str, List[dict]] = {name: [] for name in names}
        spent = dict.fromkeys(names, 0.0)
        while True:
            pending = [name for name in names
                       if len(runs[name]) < repeats or spent[name] < seconds]
            if not pending:
                return runs
            for name in pending:
                start = time.perf_counter()
                runs[name].append(self.run_child(name, "timed", name))
                spent[name] += time.perf_counter() - start

    def baseline(self, scenario: str, on_behalf_of: str,
                 timed: Dict[str, List[dict]]) -> None:
        """Make sure ``timed`` holds untraced repeats of ``scenario``:
        the timed phase's when it ran, a short set otherwise."""
        if scenario not in timed:
            timed[scenario] = [
                self.run_child(scenario, "timed", on_behalf_of)
                for _ in range(BASELINE_REPEATS)]

    # -- verdicts -------------------------------------------------------------

    def canonical_digests(self) -> Dict[str, str]:
        """Each scenario's digest: that of its first good repeat."""
        digests: Dict[str, str] = {}
        for op in self.ops:
            if "digest" in op:
                digests.setdefault(op["workload"], op["digest"])
        return digests

    def verdict(self, name: str) -> dict:
        """Operations attempted/failed on behalf of workload ``name``."""
        digests = self.canonical_digests()
        twin = WORKLOADS[name].twin
        twin_broken = (twin is not None and twin in digests
                       and name in digests
                       and digests[twin] != digests[name])
        ops = [op for op in self.ops if op["for"] == name]
        failed = 0
        reasons = collections.Counter()
        for op in ops:
            if "error" in op:
                reasons["raised"] += 1
            elif not all(op["checks"].values()):
                reasons["check:" + ",".join(
                    k for k, ok in op["checks"].items() if not ok)] += 1
            elif op["digest"] != digests[op["workload"]]:
                reasons["digest differs between repeats"] += 1
            elif twin_broken and op["workload"] == name:
                reasons["digest differs from %s" % twin] += 1
            else:
                continue
            failed += 1
        return {"attempted": len(ops), "failed": failed,
                "reasons": dict(reasons), "digest": digests.get(name)}


def good(results: List[dict]) -> List[dict]:
    return [r for r in results if "error" not in r]


def summarize_timed(results: List[dict], end_to_end: List[dict]) -> dict:
    """Each end-to-end metric's summary over the good repeats.  The
    reported ``value`` of a time metric is its minimum, scaled to the
    reference host (``stats.host_scale``); ``raw``, median and
    quartiles are the seconds as measured."""
    usable = good(results)
    if not usable:
        return {}
    scale = stats.host_scale([r["calib_s"] for r in usable])
    summary = {}
    for metric in end_to_end:
        values = [r[metric["name"]] for r in usable]
        cell = dict(stats.summarize(values), unit=metric["unit"],
                    values=values)
        cell["raw"] = cell["value"]
        if metric["unit"] == "s":
            cell["value"] = cell["raw"] * scale
        summary[metric["name"]] = cell
    return summary


def derive_layer_metrics(name: str, traced: dict,
                         timed: Dict[str, List[dict]],
                         per_layer: List[dict]):
    """The full per-layer set for one workload: the traced child's
    metrics plus the ratios that need untraced timings.  A metric no
    layer reported on this workload is 0; one whose probe target is
    gone is listed in ``missing`` (and printed ``<name>.missing``)."""
    metrics = dict(traced["metrics"])
    missing = list(traced["missing"])
    base = good(timed[name])

    def best(results, key):
        return min(r[key] for r in results)

    if base:
        wall = best(base, "wall_s")
        metrics["harness.trace_overhead_ratio"] = traced["wall_s"] / wall
        if metrics.get("simnet.events"):
            metrics["simnet.us_per_event"] = (
                wall / metrics["simnet.events"] * 1e6)
        metrics["harness.setup_wall_s"] = best(base, "setup_wall_s")
        metrics["harness.setup_sys_s"] = best(base, "setup_sys_s")
        if name in RATIO_BASE:
            scenario, metric, direction = RATIO_BASE[name]
            other = good(timed.get(scenario, []))
            if other:
                ratio = wall / best(other, "wall_s")
                metrics[metric] = (ratio if direction == "this/base"
                                   else 1.0 / ratio)
    metrics["harness.calib_s"] = best(base + [traced], "calib_s")
    values = {metric["name"]: {"value": float(metrics.get(metric["name"], 0)),
                               "unit": metric["unit"]}
              for metric in per_layer}
    return values, missing


# -- output -------------------------------------------------------------------

def print_timed(name: str, summary: dict, verdict: dict, noisy: bool,
                drift: bool) -> None:
    print("\n== %s  (timed, tracing off)" % name)
    for metric, cell in summary.items():
        print("  %-12s %-4s %-10.6g (as measured: min %-10.6g median "
              "%-10.6g q1 %-10.6g q3 %-10.6g n=%d)" % (
                  metric, cell["unit"], cell["value"], cell["raw"],
                  cell["median"], cell["q1"], cell["q3"], cell["n"]))
    print("  operations: attempted %d, failed %d%s" % (
        verdict["attempted"], verdict["failed"],
        "  %r" % verdict["reasons"] if verdict["reasons"] else ""))
    print("  sim_digest %s%s%s" % (
        verdict["digest"], "  digest_drift" if drift else "",
        "  noisy (calibration spread > %.0f%%)" % (stats.NOISY_SPREAD * 100)
        if noisy else ""))


def print_layers(name: str, values: dict, missing: List[str],
                 coverage: float) -> None:
    print("\n== %s  (traced; profile covers %.1f%% of the run span, the "
          "rest is booked to other.self_s)" % (name, coverage * 100))
    off_path = 0
    for metric, cell in values.items():
        if metric in missing:
            print("  %-34s %s" % (metric + ".missing", cell["unit"]))
        elif cell["value"] == 0:
            off_path += 1
        else:
            print("  %-34s %-8s %.6g" % (metric, cell["unit"], cell["value"]))
    print("  (%d metrics of layers not on this workload's path read 0)"
          % off_path)


def compare_sets(first: dict, second: dict, end_to_end: List[dict]) -> list:
    """--check-repeat: the two timed sets' reported values per (metric,
    workload), with the observed gap against the metric's bound."""
    rows = []
    for name in first:
        for metric in end_to_end:
            key = metric["name"]
            if key not in first[name] or key not in second[name]:
                continue
            a = first[name][key]["value"]
            b = second[name][key]["value"]
            # Either run order may be the slower one: a repeat only
            # agrees when neither side is worse than the other by more
            # than the bound.
            gap = max(stats.worsening(a, b, metric["better"]),
                      stats.worsening(b, a, metric["better"]))
            rows.append({"workload": name, "metric": key, "first": a,
                         "second": b, "gap": gap, "bound": metric["bound"],
                         "ok": gap <= metric["bound"]})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=",".join(BENCHMARK_WORKLOADS),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="timed repeats per workload, at least")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating a workload until it has been "
                             "measured this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed phase only; 1: traced phase only; "
                             "default: both")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the timed phase twice and compare")
    args = parser.parse_args(argv)

    names = [name for name in args.workload.split(",") if name]
    unknown = [name for name in names if name not in BENCHMARK_WORKLOADS]
    if unknown or not names:
        parser.error("unknown workload %r (choose from %s)" % (
            ",".join(unknown), ", ".join(BENCHMARK_WORKLOADS)))
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not (SRC / "repro").is_dir():
        print("error: %s not found: perfbench measures the repro package "
              "of the checkout it sits in" % (SRC / "repro"), file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = benchmark["end_to_end"], benchmark["per_layer"]
    recorded = json.loads(DIGESTS.read_text())
    do_timed = args.trace in (None, 0)
    do_traced = args.trace in (None, 1)

    harness = Harness(args.seed)
    timed: Dict[str, List[dict]] = {}
    report = {"seed": args.seed, "workloads": {name: {} for name in names}}
    ok = True

    repeat_rows = []
    if do_timed:
        timed = harness.timed_phase(names, args.repeats, args.seconds)
        if args.check_repeat:
            second = harness.timed_phase(names, args.repeats, args.seconds)
            repeat_rows = compare_sets(
                {n: summarize_timed(timed[n], end_to_end) for n in names},
                {n: summarize_timed(second[n], end_to_end) for n in names},
                end_to_end)
        # A twin not selected itself still has to be run once, for its
        # digest: the equivalence contracts are checked live.
        for name in names:
            twin = WORKLOADS[name].twin
            if twin is not None and twin not in timed:
                harness.run_child(twin, "timed", name)

    traces = {}
    if do_traced:
        for name in names:
            harness.baseline(name, name, timed)
            if name in RATIO_BASE:
                harness.baseline(RATIO_BASE[name][0], name, timed)
            traces[name] = harness.run_child(name, "traced", name)

    for name in names:
        entry = report["workloads"][name]
        verdict = harness.verdict(name)
        entry.update(attempted=verdict["attempted"], failed=verdict["failed"],
                     reasons=verdict["reasons"], digest=verdict["digest"])
        drift = (args.seed == recorded["seed"]
                 and verdict["digest"] is not None
                 and verdict["digest"] != recorded["digests"].get(name))
        entry["digest_drift"] = drift
        ok = ok and verdict["failed"] == 0 and verdict["attempted"] > 0
        calibration = [r["calib_s"] for r in good(timed.get(name, []))]
        entry["noisy"] = bool(calibration) and stats.is_noisy(calibration)
        if do_timed:
            entry["end_to_end"] = summarize_timed(timed[name], end_to_end)
            ok = ok and bool(entry["end_to_end"])
            print_timed(name, entry["end_to_end"], verdict, entry["noisy"],
                        drift)
        traced = traces.get(name)
        if traced is not None and "error" not in traced:
            values, missing = derive_layer_metrics(name, traced, timed,
                                                   per_layer)
            entry.update(per_layer=values, missing=missing,
                         profile_coverage=traced["profile_coverage"])
            print_layers(name, values, missing, traced["profile_coverage"])
            if not do_timed:
                print("  operations: attempted %d, failed %d" % (
                    verdict["attempted"], verdict["failed"]))
        elif do_traced:
            ok = False

    if repeat_rows:
        report["check_repeat"] = repeat_rows
        print("\n== --check-repeat: two timed sets of the same code")
        for row in repeat_rows:
            print("  %-22s %-12s %-12.6g %-12.6g gap %6.2f%%  bound %4.1f%%"
                  "  %s" % (row["workload"], row["metric"], row["first"],
                            row["second"], row["gap"] * 100,
                            row["bound"] * 100,
                            "ok" if row["ok"] else "OUTSIDE BOUND"))
        ok = ok and all(row["ok"] for row in repeat_rows)

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "results.json").write_text(json.dumps(report, indent=1))

    if len(names) == 1:
        entry = report["workloads"][names[0]]
        metrics = {}
        for key, cell in entry.get("end_to_end", {}).items():
            metrics[key] = {"value": cell["value"], "unit": cell["unit"]}
        metrics.update(entry.get("per_layer", {}))
        if metrics:
            print(json.dumps({"correct": ok,
                              "attempted": entry["attempted"],
                              "failed": entry["failed"],
                              "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
