"""Evaluation methodology: bottleneck deconstruction and experiment runners.

Reproduces Sec. 5.3's approach: measure per-packet loads on every system
component under increasing input rates, compare them against nominal and
empirical upper bounds, and identify the bottleneck.  Includes plain-text
table formatting for the benchmark harness.  (The empty-poll correction
for measured CPU load lives next to its one caller, in
:mod:`repro.obs.explain`.)
"""

from .bottleneck import (
    BottleneckReport,
    deconstruct,
    load_series,
)
from .report import ascii_bars, format_table
from .experiments import EXPERIMENTS, run_experiment
from .sensitivity import conclusions_at, robustness_sweep
from .summary import headline_rows, summary_text
from .trace_report import characterize, characterize_pcap
from .validation import max_relative_error, validate_forwarding

__all__ = [
    "BottleneckReport",
    "deconstruct",
    "load_series",
    "ascii_bars",
    "format_table",
    "EXPERIMENTS",
    "run_experiment",
    "conclusions_at",
    "robustness_sweep",
    "headline_rows",
    "summary_text",
    "characterize",
    "characterize_pcap",
    "max_relative_error",
    "validate_forwarding",
]
