"""Unified cost layer: one model for analytic loads, element costs, DES.

``repro.costs`` owns the per-packet accounting that the rest of the
reproduction consumes, derived from the constants in
:mod:`repro.calibration`:

* :class:`ResourceVector` -- per-packet cycles + bus bytes with add/scale
  algebra.
* :mod:`repro.costs.model` -- plain functions giving whole-application
  vectors (:func:`per_packet_vector`, with batching amortization and
  scheduling penalties) and their base/per-byte terms for applications
  and for the RX/TX device elements.
* :func:`compile_loads` -- walk a parsed Click graph, weight each
  element's one-packet :meth:`cost` by traversal probability, and produce
  the ResourceVector the throughput solver consumes.
"""

from .compile import compile_loads, element_costs, traversal_probabilities
from .model import (CACHE_LINE_BYTES, DEFAULT_CONFIG, ServerConfig,
                    app_vector, coherence_vector, increment_terms,
                    lock_vector, per_packet_vector, rx_terms,
                    scr_encode_vector, scr_replay_vector,
                    state_access_vector, tx_terms)
from .vector import ZERO_VECTOR, ResourceVector

__all__ = [
    "CACHE_LINE_BYTES",
    "DEFAULT_CONFIG",
    "ResourceVector",
    "ServerConfig",
    "ZERO_VECTOR",
    "app_vector",
    "coherence_vector",
    "compile_loads",
    "element_costs",
    "increment_terms",
    "lock_vector",
    "per_packet_vector",
    "rx_terms",
    "scr_encode_vector",
    "scr_replay_vector",
    "state_access_vector",
    "traversal_probabilities",
    "tx_terms",
]
