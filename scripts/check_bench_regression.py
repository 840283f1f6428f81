#!/usr/bin/env python3
"""CI perf-regression gate.

Compares fresh ``BENCH_*.json`` artifacts (written by ``python -m repro
obs run --quick``) against the committed baseline
``benchmarks/results/baseline.json`` and exits non-zero when any rate
scalar fell by more than the tolerance (default 10%).

Usage::

    python scripts/check_bench_regression.py \
        [--baseline benchmarks/results/baseline.json] \
        [--results-dir benchmarks/results] [--tolerance 0.10] \
        [BENCH_file.json ...]

Named files override the results-dir glob.  Exit codes: 0 no
regression, 1 regression found, 2 missing/invalid input.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import compare  # noqa: E402 (needs the path insert)


def unknown_scalar_keys(baseline_doc: dict, bench_doc: dict) -> list:
    """Scalar keys a fresh artifact carries that its baseline entry does
    not, of either kind.

    ``compare_docs`` only surfaces "new" keys for the kind it gates on
    (rate), so a renamed count scalar -- or a typo in a new benchmark's
    summary keys -- would vanish silently.  These come back as
    warnings: baselines should be regenerated to cover them, but an
    unknown key is never a failure.
    """
    base_scalars = compare.baseline_scalars_for(baseline_doc,
                                                bench_doc.get("name", ""))
    if base_scalars is None:
        return []
    return sorted(set(bench_doc.get("scalars", {})) - set(base_scalars))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_files", nargs="*",
                        help="BENCH_*.json files (default: glob "
                             "--results-dir)")
    parser.add_argument("--baseline",
                        default=str(REPO_ROOT / "benchmarks" / "results"
                                    / "baseline.json"))
    parser.add_argument("--results-dir",
                        default=str(REPO_ROOT / "benchmarks" / "results"))
    parser.add_argument("--tolerance", type=float, default=None,
                        help="fractional drop that fails (default: the "
                             "baseline's own, else %g)"
                             % compare.DEFAULT_TOLERANCE)
    parser.add_argument("--ignore-unknown-benchmarks", action="store_true",
                        help="warn (instead of erroring) on artifacts "
                             "with no baseline entry -- for full-suite "
                             "runs gated against the quick baseline")
    args = parser.parse_args(argv)

    try:
        baseline = compare.load_json(args.baseline)
    except (OSError, json.JSONDecodeError) as error:
        print("error: cannot read baseline %s: %s"
              % (args.baseline, error), file=sys.stderr)
        return 2
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(baseline.get("tolerance",
                                       compare.DEFAULT_TOLERANCE))

    paths = [pathlib.Path(p) for p in args.bench_files]
    if not paths:
        paths = sorted(pathlib.Path(args.results_dir).glob("BENCH_*.json"))
    if not paths:
        print("error: no BENCH_*.json files to check (run "
              "`python -m repro obs run --quick` first)", file=sys.stderr)
        return 2

    regressed = False
    problems = False
    all_deltas = []
    warnings = []
    for path in paths:
        try:
            doc = compare.load_json(str(path))
            if args.ignore_unknown_benchmarks and \
                    compare.baseline_scalars_for(
                        baseline, doc.get("name", "")) is None:
                # Ungated, but a failing scenario still fails the run.
                if doc.get("status") != "passed":
                    print("error: %s reports status %r"
                          % (path.name, doc.get("status")),
                          file=sys.stderr)
                    problems = True
                warnings.append(
                    "warning: %s has no baseline entry -- regenerate "
                    "the baseline to start gating it" % doc.get("name"))
                continue
            deltas = compare.compare_docs(baseline, doc,
                                          tolerance=tolerance)
        except (OSError, json.JSONDecodeError, ValueError) as error:
            print("error: %s: %s" % (path, error), file=sys.stderr)
            problems = True
            continue
        if doc.get("status") != "passed":
            print("error: %s reports status %r"
                  % (path.name, doc.get("status")), file=sys.stderr)
            problems = True
        for key in unknown_scalar_keys(baseline, doc):
            kind = doc["scalars"][key].get("kind", "count")
            warnings.append(
                "warning: %s/%s (%s) is not in the baseline -- "
                "regenerate it to start tracking this scalar"
                % (doc.get("name", path.name), key, kind))
        all_deltas.extend(deltas)
        regressed = regressed or any(d.regressed for d in deltas)

    print(compare.summarize(all_deltas))
    for line in warnings:
        print(line)
    if problems:
        return 2
    if regressed:
        print("FAIL: rate regression beyond %.0f%% tolerance"
              % (tolerance * 100), file=sys.stderr)
        return 1
    print("OK: no rate regression beyond %.0f%% tolerance"
          % (tolerance * 100))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
