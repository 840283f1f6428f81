"""Tests for the unified cost layer (repro.costs).

The load-bearing property is *exactness*: compiling a preset application's
Click pipeline element-by-element must reproduce the analytic per-packet
load vector bit-for-bit (well, to float tolerance), because both sides now
draw from the same cost functions (:mod:`repro.costs.model`).
"""

import dataclasses
import warnings

import pytest

from repro import calibration as cal
from repro.analysis.bottleneck import pipeline_breakdown
from repro.click import (
    Discard,
    Element,
    PollDevice,
    RouterGraph,
    Tee,
    build_pipeline,
    pipeline_registry,
)
from repro.costs import (
    DEFAULT_CONFIG,
    ResourceVector,
    ServerConfig,
    ZERO_VECTOR,
    app_vector,
    compile_loads,
    element_costs,
    increment_terms,
    per_packet_vector,
    rx_terms,
    traversal_probabilities,
    tx_terms,
)
from repro.errors import ConfigurationError
from repro.hw.presets import NEHALEM, XEON_SHARED_BUS
from repro.hw.server import Server
from repro.perfmodel import rate_from_loads
from repro.perfmodel.custom_app import define_application

COMPONENTS = ("cpu_cycles", "mem_bytes", "io_bytes", "pcie_bytes",
              "qpi_bytes")


# -- ResourceVector algebra -------------------------------------------------

class TestResourceVector:
    def test_defaults_are_zero(self):
        assert not any(dataclasses.astuple(ResourceVector()))
        assert ZERO_VECTOR == ResourceVector()

    def test_add_and_sub(self):
        a = ResourceVector(cpu_cycles=100.0, mem_bytes=10.0)
        b = ResourceVector(cpu_cycles=20.0, io_bytes=5.0)
        s = a + b
        assert s.cpu_cycles == 120.0
        assert s.mem_bytes == 10.0
        assert s.io_bytes == 5.0
        d = s - b
        assert d.cpu_cycles == pytest.approx(a.cpu_cycles)
        assert d.io_bytes == pytest.approx(0.0)

    def test_scaled(self):
        v = ResourceVector(cpu_cycles=3.0, pcie_bytes=2.0).scaled(64)
        assert v.cpu_cycles == 192.0
        assert v.pcie_bytes == 128.0
        assert v.mem_bytes == 0.0

    def test_with_cpu_replaces_only_cpu(self):
        v = ResourceVector(cpu_cycles=1.0, qpi_bytes=7.0).with_cpu(42.0)
        assert v.cpu_cycles == 42.0
        assert v.qpi_bytes == 7.0

    def test_frozen(self):
        with pytest.raises(Exception):
            ResourceVector().cpu_cycles = 1.0


# -- the cost model ---------------------------------------------------------

class TestCostModel:
    def test_bookkeeping_matches_table1(self):
        assert cal.bookkeeping_cycles(32, 16) == pytest.approx(
            cal.BOOK_POLL_CYCLES / 32 + cal.BOOK_NIC_CYCLES / 16)
        # No batching: the full poll + NIC overhead per packet.
        assert cal.bookkeeping_cycles(1, 1) == pytest.approx(
            cal.BOOK_POLL_CYCLES + cal.BOOK_NIC_CYCLES)

    def test_bookkeeping_rejects_bad_batches(self):
        with pytest.raises(ConfigurationError):
            cal.bookkeeping_cycles(0, 16)

    def test_app_resolution(self):
        assert cal.resolve_app("ipsec") is cal.APPLICATIONS["ipsec"]
        assert (cal.resolve_app(cal.MINIMAL_FORWARDING)
                is cal.MINIMAL_FORWARDING)
        assert cal.resolve_app(None) is cal.APPLICATIONS["routing"]
        with pytest.raises(ConfigurationError):
            cal.resolve_app("quantum-routing")

    def test_app_vector_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            app_vector("routing", 0)

    def test_per_packet_vector_equals_legacy_loads(self):
        """The vector equals the calibration's own per-size AppCost
        methods plus the Table 1 bookkeeping on the CPU."""
        for app in ("forwarding", "routing", "ipsec"):
            cost = cal.APPLICATIONS[app]
            for size in (64, 1024):
                vec = per_packet_vector(app, size)
                for comp in COMPONENTS:
                    legacy = getattr(cost, comp)(size)
                    if comp == "cpu_cycles":
                        legacy += cal.bookkeeping_cycles()
                    assert getattr(vec, comp) == pytest.approx(
                        legacy, rel=1e-12), (app, size, comp)

    def test_single_queue_penalty(self):
        multi = per_packet_vector(
            "routing", 64, ServerConfig(multi_queue=True))
        single = per_packet_vector(
            "routing", 64, ServerConfig(multi_queue=False))
        assert single.cpu_cycles - multi.cpu_cycles == pytest.approx(
            cal.PIPELINE_SYNC_CYCLES)
        assert single.mem_bytes == multi.mem_bytes

    def test_shared_bus_cpi_inflation(self):
        base = per_packet_vector("routing", 64)
        slow = per_packet_vector(
            "routing", 64, DEFAULT_CONFIG, XEON_SHARED_BUS)
        assert slow.cpu_cycles == pytest.approx(
            base.cpu_cycles * XEON_SHARED_BUS.cpi_factor)

    def test_decomposition_sums_to_application(self):
        """rx + tx + increment terms reassemble the whole-app vector."""
        kp, kn = DEFAULT_CONFIG.kp, DEFAULT_CONFIG.kn
        for app in ("forwarding", "routing", "ipsec"):
            for size in (64, 1024):
                rx_b, rx_s = rx_terms(kp)
                tx_b, tx_s = tx_terms(kn)
                inc_b, inc_s = increment_terms(app)
                total = (rx_b + tx_b + inc_b
                         + (rx_s + tx_s + inc_s).scaled(size))
                expected = app_vector(app, size)
                expected = expected.with_cpu(
                    expected.cpu_cycles + cal.bookkeeping_cycles(kp, kn))
                for comp in COMPONENTS:
                    assert getattr(total, comp) == pytest.approx(
                        getattr(expected, comp), rel=1e-9), (app, size, comp)

    def test_derive_application_matches_custom_app(self):
        app = define_application(
            "dpi", cycles_per_packet=2000.0, cycles_per_byte=3.0,
            extra_memory_lines=2.0)
        base = cal.MINIMAL_FORWARDING
        assert app.cpu_base_cycles == pytest.approx(
            base.cpu_base_cycles + 2000.0)
        assert app.cpu_per_byte_cycles == pytest.approx(
            base.cpu_per_byte_cycles + 3.0)
        assert app.mem_base_bytes == pytest.approx(
            base.mem_base_bytes + 2 * 64)
        with pytest.raises(ConfigurationError):
            define_application("bad")


# -- element costs ----------------------------------------------------------

class TestElementCosts:
    def test_affine_cost_evaluation(self):
        e = Element("e")
        e.set_cost_terms(ResourceVector(cpu_cycles=100.0),
                         ResourceVector(cpu_cycles=2.0, mem_bytes=1.0))
        v = e.cost(1, 100)
        assert v.cpu_cycles == pytest.approx(300.0)
        assert v.mem_bytes == pytest.approx(100.0)

    def test_cycle_cost_shim_removed(self):
        # The PR1 cycle_cost deprecation shim is gone; the attribute no
        # longer exists on Element at all.
        e = Element("e")
        e.set_cost_terms(ResourceVector(cpu_cycles=5.0))
        assert not hasattr(e, "cycle_cost")
        assert e.cost(1, 100).cpu_cycles == pytest.approx(5.0)

    #: Arguments for every class the server-bound registry builds.
    REGISTRY_ARGS = {
        "CheckIPHeader": [], "ConnTrackFirewall": [], "Counter": [],
        "DecIPTTL": [], "Discard": [], "DropFrontQueue": [],
        "EtherEncap": [], "FlowHashSwitch": [], "IPsecESPEncap": [],
        "L4LoadBalancer": [], "LookupIPRoute": [], "Meter": ["1e6"],
        "NAT": [], "Paint": ["1"], "PollDevice": [], "Queue": [],
        "RandomSample": ["0.5"], "RedQueue": [], "RoundRobinSwitch": [],
        "SetTTL": ["64"], "SourceFilter": ["10.0.0.0/8"], "Tee": [],
        "ToDevice": [], "TokenBucketPolicer": [],
    }

    @pytest.mark.parametrize("packet_bytes", [64, 1500])
    def test_one_packet_costs_what_compile_loads_sums(self, packet_bytes):
        """The DES price of one packet, ``cost(1, L)``, is bit for bit
        the vector ``compile_loads`` adds for that element."""
        server = Server(NEHALEM, num_ports=1, queues_per_port=1)
        registry = pipeline_registry(server)
        assert set(self.REGISTRY_ARGS) == set(registry._factories)
        for class_name, args in self.REGISTRY_ARGS.items():
            graph = RouterGraph()
            element = graph.add(registry.create(class_name, args, "e"))
            assert (compile_loads(graph, packet_bytes)
                    == element.cost(1, packet_bytes)), class_name

    def test_device_elements_carry_model_terms(self):
        server = Server(NEHALEM, num_ports=1, queues_per_port=1)
        poll = PollDevice(server.port(0), queue_id=0, kp=32)
        base, per_byte = rx_terms(32)
        assert poll.cost_base == base
        assert poll.cost_per_byte == per_byte


# -- traversal probabilities -------------------------------------------------

def chain(*elements):
    graph = RouterGraph()
    graph.add_all(elements)
    for up, down in zip(elements, elements[1:]):
        up.connect_to(down)
    return graph


class TestTraversalProbabilities:
    def test_linear_chain_is_all_ones(self):
        graph = chain(Element("a"), Element("b"), Discard(name="c"))
        probs = traversal_probabilities(graph)
        assert probs == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_tee_duplicates(self):
        tee = Tee(2, name="tee")
        d1, d2 = Discard(name="d1"), Discard(name="d2")
        graph = RouterGraph()
        graph.add_all([tee, d1, d2])
        tee.connect_to(d1, output=0)
        tee.connect_to(d2, output=1)
        probs = traversal_probabilities(graph)
        assert probs["d1"] == 1.0
        assert probs["d2"] == 1.0

    def test_entry_weights(self):
        a, b = Element("a"), Element("b")
        sink = Discard(name="sink")
        merge = Element("merge")
        graph = RouterGraph()
        graph.add_all([a, b, merge, sink])
        a.connect_to(merge)
        b.connect_to(merge, peer_port=0)
        merge.connect_to(sink)
        probs = traversal_probabilities(graph, {"a": 0.75, "b": 0.25})
        assert probs["a"] == 0.75
        assert probs["b"] == 0.25
        assert probs["merge"] == pytest.approx(1.0)
        # Default: uniform split across entries.
        uniform = traversal_probabilities(graph)
        assert uniform["a"] == pytest.approx(0.5)

    def test_bad_entry_weights_rejected(self):
        graph = chain(Element("a"), Discard(name="z"))
        with pytest.raises(ConfigurationError):
            traversal_probabilities(graph, {"a": 1.5})
        with pytest.raises(ConfigurationError):
            traversal_probabilities(graph, {"a": -0.1})

    def test_cycle_rejected(self):
        entry, a, b = Element("entry"), Element("a"), Element("b")
        entry.connect_to(a)
        a.connect_to(b)
        b.connect_to(a)
        graph = RouterGraph()
        graph.add_all([entry, a, b])
        with pytest.raises(ConfigurationError, match="cycle"):
            traversal_probabilities(graph)

    def test_all_inputs_connected_rejected(self):
        a, b = Element("a"), Element("b")
        a.connect_to(b)
        b.connect_to(a)
        graph = RouterGraph()
        graph.add_all([a, b])
        with pytest.raises(ConfigurationError, match="no entry elements"):
            traversal_probabilities(graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            traversal_probabilities(RouterGraph())

    def test_peer_outside_graph_rejected(self):
        a, b = Element("a"), Element("b")
        a.connect_to(b)
        graph = RouterGraph()
        graph.add(a)
        with pytest.raises(ConfigurationError, match="not in the graph"):
            traversal_probabilities(graph)


# -- compile_loads: the preset-exactness acceptance criterion ----------------

@pytest.mark.parametrize("app", ["forwarding", "routing", "ipsec"])
@pytest.mark.parametrize("size", [64, 1024])
def test_compile_loads_reproduces_preset_vectors(app, size):
    """Element-wise compilation == the analytic per-packet load vector."""
    server = Server(NEHALEM, num_ports=1, queues_per_port=1)
    graph = build_pipeline(app, server)
    compiled = compile_loads(graph, packet_bytes=size)
    analytic = per_packet_vector(cal.APPLICATIONS[app], size)
    for comp in COMPONENTS:
        assert getattr(compiled, comp) == pytest.approx(
            getattr(analytic, comp), rel=1e-9), (app, size, comp)


def test_compile_loads_feeds_rate_solver():
    server = Server(NEHALEM, num_ports=1, queues_per_port=1)
    graph = build_pipeline("routing", server)
    loads = compile_loads(graph, packet_bytes=64)
    result = rate_from_loads(loads, 64)
    legacy = rate_from_loads(per_packet_vector(cal.IP_ROUTING, 64), 64)
    assert result.rate_bps == pytest.approx(legacy.rate_bps, rel=1e-9)
    assert result.bottleneck == legacy.bottleneck


def test_compile_loads_single_queue_penalty():
    server = Server(NEHALEM, num_ports=1, queues_per_port=1)
    graph = build_pipeline("forwarding", server)
    multi = compile_loads(graph, 64, ServerConfig(multi_queue=True))
    single = compile_loads(graph, 64, ServerConfig(multi_queue=False))
    assert single.cpu_cycles - multi.cpu_cycles == pytest.approx(
        cal.PIPELINE_SYNC_CYCLES)


def test_compile_loads_rejects_bad_size():
    server = Server(NEHALEM, num_ports=1, queues_per_port=1)
    graph = build_pipeline("forwarding", server)
    with pytest.raises(ConfigurationError):
        compile_loads(graph, packet_bytes=0)


def test_element_costs_rows():
    server = Server(NEHALEM, num_ports=1, queues_per_port=1)
    graph = build_pipeline("routing", server)
    rows = element_costs(graph, packet_bytes=64)
    by_name = {row["element"]: row for row in rows}
    assert by_name["src"]["class"] == "PollDevice"
    assert by_name["src"]["probability"] == 1.0
    assert by_name["src"]["cpu_cycles"] > 0
    # With a 1-port table the lookup never misses: the Discard arm is cold.
    discard = [row for row in rows if row["class"] == "Discard"]
    assert discard and discard[0]["probability"] == 0.0
    assert discard[0]["cpu_cycles"] == 0.0


def test_pipeline_breakdown_summary():
    server = Server(NEHALEM, num_ports=1, queues_per_port=1)
    graph = build_pipeline("routing", server)
    summary = pipeline_breakdown(graph, packet_bytes=64)
    assert summary["rate_gbps"] > 0
    assert summary["bottleneck"] in summary["loads"]
    assert len(summary["elements"]) == len(graph.elements())
    legacy = rate_from_loads(per_packet_vector(cal.IP_ROUTING, 64), 64)
    assert summary["rate_gbps"] == pytest.approx(
        legacy.rate_bps / 1e9, rel=1e-9)


def test_no_stray_deprecation_warnings_on_preset_compile():
    """The rewiring must not route through the deprecated shim."""
    server = Server(NEHALEM, num_ports=1, queues_per_port=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        graph = build_pipeline("ipsec", server)
        compile_loads(graph, packet_bytes=64)
