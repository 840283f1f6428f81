"""Unified cost layer: one model for analytic loads, element costs, DES.

``repro.costs`` owns the calibrated per-packet accounting that the rest of
the reproduction consumes:

* :class:`ResourceVector` -- per-packet cycles + bus bytes with add/scale
  algebra (``repro.perfmodel.LoadVector`` is an alias of it).
* :class:`CostModel` -- the calibrated constants and batching amortization,
  exposed as base/per-byte vector terms for applications and for the
  RX/TX device elements.
* :func:`compile_loads` -- walk a parsed Click graph, weight each
  element's :meth:`resource_cost` by traversal probability, and produce
  the LoadVector the throughput solver consumes.
"""

from .compile import compile_loads, element_costs, traversal_probabilities
from .model import (CACHE_LINE_BYTES, DEFAULT_CONFIG, DEFAULT_COST_MODEL,
                    CostModel, ServerConfig)
from .vector import ZERO_VECTOR, ResourceVector

__all__ = [
    "CACHE_LINE_BYTES",
    "CostModel",
    "DEFAULT_CONFIG",
    "DEFAULT_COST_MODEL",
    "ResourceVector",
    "ServerConfig",
    "ZERO_VECTOR",
    "compile_loads",
    "element_costs",
    "traversal_probabilities",
]
