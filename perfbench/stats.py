"""Summaries, bound comparison and the simulated-result digest.

The value a timing set *reports* is its minimum.  On the shared 2-core
VM this benchmark is gated on, one repeat of unchanged code reads
anywhere from its floor to +50 % (other tenants only ever add time, in
bursts of seconds), and the median of five such repeats moves 9-18 %
between back-to-back invocations; the minimum moves 2-7 %.  It is the
ROADMAP's "min-of-k"; ``host_scale`` is its "ratio to an in-run
calibration loop".  Median and quartiles are kept beside the value.
The measurements behind both are in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Dict, Sequence

#: A calibration set whose quartile spread exceeds this is ``noisy``.
NOISY_SPREAD = 0.05

#: What the child's calibration loop takes on the gating VM when its
#: host is quiet; times are reported as if the host ran at this speed.
CALIB_REF_S = 0.090


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Reported value (the minimum), median, quartiles and sample count
    of a timing set."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": min(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def spread(summary: Dict[str, float]) -> float:
    """Inter-quartile distance as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def is_noisy(calibration: Sequence[float]) -> bool:
    return spread(summarize(calibration)) > NOISY_SPREAD


def host_scale(calibration: Sequence[float]) -> float:
    """Factor that takes this invocation's seconds to reference-host
    seconds: the reference calibration time over the best one seen.

    The shared host's speed moves by tens of percent over an hour
    (``server_64b_scalar`` on unchanged code: 1.42 s, later 2.2 s, the
    calibration loop 0.09 s -> 0.15 s with it), more than any bound, so
    every time metric is divided by how fast the host was while it was
    taken.  Minimum over minimum: both pick the invocation's quietest
    moments.
    """
    return CALIB_REF_S / min(calibration)


def worsening(first: float, second: float, better: str) -> float:
    """How far ``second`` is worse than ``first``, as a share of
    ``first`` (negative when it improved)."""
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def digest(scalars: Dict[str, object]) -> str:
    """sha256 over a report's simulated scalars.

    Floats are hashed by ``repr`` (shortest round-trip form), so two
    runs agree only when every scalar is bit-identical.
    """
    canonical = json.dumps(scalars, sort_keys=True, allow_nan=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()
