"""Compile a Click pipeline into a per-packet load vector.

The paper evaluates three hand-calibrated applications; the compiler makes
the same analytic treatment available to *any* pipeline: walk a parsed
:class:`~repro.click.graph.RouterGraph`, weight each element's
:meth:`~repro.click.element.Element.cost` of one packet by the probability
a packet traverses it, sum the vectors, and hand the result to the
bottleneck solver.  This is the graph-to-cost compilation that automatic
NF-parallelization systems perform for real network functions, applied to
the reproduction's element library.

Traversal probabilities come from each element's
:meth:`~repro.click.element.Element.output_probabilities` (a static
forwarding distribution over its outputs: 1.0 down the main path by
default, uniform for switches and lookups, duplicated for tees).  Entry
elements -- those with no connected inputs, normally ``PollDevice`` --
split arriving traffic uniformly unless ``entry_weights`` says otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigurationError
from .model import DEFAULT_CONFIG, ServerConfig, apply_cpu_penalties
from .vector import ResourceVector


def traversal_probabilities(graph,
                            entry_weights: Optional[Dict[str, float]] = None
                            ) -> Dict[str, float]:
    """Probability that a packet entering the pipeline visits each element.

    ``graph`` must be acyclic (Click's push graphs are).  ``entry_weights``
    maps entry-element names to the fraction of traffic arriving there;
    omitted entries share the remaining weight uniformly, and by default
    all entry elements split traffic evenly.
    """
    elements = graph.elements()
    if not elements:
        raise ConfigurationError("cannot compile an empty graph")
    indegree = {id(element): 0 for element in elements}
    known = set(indegree)
    for element in elements:
        for index in range(element.n_outputs):
            peer = element.output(index).peer
            if peer is not None:
                if id(peer) not in known:
                    raise ConfigurationError(
                        "%s connects to %s, which is not in the graph"
                        % (element.name, peer.name))
                indegree[id(peer)] += 1

    entries = [element for element in elements
               if indegree[id(element)] == 0]
    if not entries:
        raise ConfigurationError(
            "graph has no entry elements (every element has an input); "
            "a pipeline needs at least one source such as PollDevice")

    probability = {id(element): 0.0 for element in elements}
    entry_weights = dict(entry_weights or {})
    named = sum(entry_weights.get(element.name, 0.0) for element in entries)
    unnamed = [element for element in entries
               if element.name not in entry_weights]
    if named > 1.0 + 1e-9 or any(w < 0 for w in entry_weights.values()):
        raise ConfigurationError("entry weights must be >= 0 and sum <= 1")
    residual = (1.0 - named) / len(unnamed) if unnamed else 0.0
    for element in entries:
        probability[id(element)] = entry_weights.get(element.name, residual)

    # Kahn's algorithm: propagate probabilities in topological order.
    remaining = dict(indegree)
    ready = list(entries)
    processed = 0
    while ready:
        element = ready.pop()
        processed += 1
        prob = probability[id(element)]
        outputs = element.output_probabilities()
        if len(outputs) != element.n_outputs:
            raise ConfigurationError(
                "%s declares %d output probabilities for %d outputs"
                % (element.name, len(outputs), element.n_outputs))
        for index in range(element.n_outputs):
            peer = element.output(index).peer
            if peer is None:
                continue
            probability[id(peer)] += prob * outputs[index]
            remaining[id(peer)] -= 1
            if remaining[id(peer)] == 0:
                ready.append(peer)
    if processed < len(elements):
        stuck = sorted(element.name for element in elements
                       if remaining[id(element)] > 0)
        raise ConfigurationError(
            "pipeline graph has a cycle involving %s" % ", ".join(stuck))
    return {element.name: probability[id(element)] for element in elements}


def element_costs(graph, packet_bytes: float = 64,
                  entry_weights: Optional[Dict[str, float]] = None
                  ) -> List[dict]:
    """Per-element cost breakdown: one row per element, traversal-weighted.

    Each row carries the element's name and class, its traversal
    probability, and its *weighted* per-packet contribution on every
    component -- the table the CLI and the bottleneck analysis print.
    """
    if packet_bytes <= 0:
        raise ConfigurationError("packet size must be positive")
    probabilities = traversal_probabilities(graph, entry_weights)
    rows = []
    for element in graph.elements():
        probability = probabilities[element.name]
        vector = element.cost(1, packet_bytes).scaled(probability)
        rows.append({
            "element": element.name,
            "class": type(element).__name__,
            "probability": probability,
            "cpu_cycles": vector.cpu_cycles,
            "mem_bytes": vector.mem_bytes,
            "io_bytes": vector.io_bytes,
            "pcie_bytes": vector.pcie_bytes,
            "qpi_bytes": vector.qpi_bytes,
        })
    return rows


def compile_loads(graph, packet_bytes: float = 64,
                  config: ServerConfig = DEFAULT_CONFIG,
                  spec=None,
                  entry_weights: Optional[Dict[str, float]] = None
                  ) -> ResourceVector:
    """The per-packet load vector of an arbitrary pipeline.

    Sums every element's one-packet :meth:`cost` weighted by its traversal
    probability, then applies the scheduling penalties the analytic model
    charges (``config.multi_queue``, the spec's CPI inflation).  Batching
    amortization is *not* added here -- the device elements already carry
    their ``kp``/``kn`` shares -- so for the preset applications the
    result equals :func:`repro.costs.per_packet_vector` at the
    same batching configuration.

    The returned vector plugs straight into
    :func:`repro.perfmodel.throughput.rate_from_loads` (and hence
    ``max_loss_free_rate``), which is what ``python -m repro pipeline``
    does.
    """
    if packet_bytes <= 0:
        raise ConfigurationError("packet size must be positive")
    probabilities = traversal_probabilities(graph, entry_weights)
    total = ResourceVector()
    for element in graph.elements():
        probability = probabilities[element.name]
        if probability <= 0.0:
            continue
        total = total + element.cost(1, packet_bytes).scaled(probability)
    return apply_cpu_penalties(total, config, spec)
