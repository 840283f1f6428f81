"""The DES node and the Click element run one Direct-VLB first-hop rule.

One packet sequence and one scripted link-state oracle drive a
``ClusterNode`` (which reads link bits) and a ``VLBIngress`` (which reads
TX rings) seeded alike; every first hop, detours included, must match.
"""

import random

import pytest

from repro.calibration import FLOWLET_DELTA_SEC
from repro.click import CounterElement, Discard
from repro.click.elements.cluster import VLBIngress
from repro.core.node import ClusterNode
from repro.net import IPv4Address, Packet
from repro.routing import Route, RoutingTable
from repro.simnet.engine import Simulator

NODES = 4
SELF = 0
SLOTS = 4  # ring slots == busy threshold in queued bits at 1 bit/s


class _ScriptedPort:
    """One peer's link state, read as a DES link (bits queued at 1 bit/s)
    and as a Click TX ring (descriptors queued, ``SLOTS`` of them)."""

    rate_bps = 1.0
    capacity = SLOTS

    def __init__(self, occupancy, peer):
        self._occupancy = occupancy
        self._peer = peer

    def __len__(self):
        return self._occupancy[self._peer]

    def queued_bits(self):
        return float(self._occupancy[self._peer])


def _table():
    table = RoutingTable()
    for node in range(NODES):
        table.add_route("10.%d.0.0/16" % node,
                        Route(port=node,
                              next_hop=IPv4Address("10.%d.0.1" % node)))
    return table


def _sequence(seed=5, packets=400):
    """(time, flow, egress) over several flows, with a gap longer than the
    flowlet timeout halfway through."""
    rng = random.Random(seed)
    out = []
    now = 0.0
    for index in range(packets):
        now += 1e-6 if index != packets // 2 else 2 * FLOWLET_DELTA_SEC
        out.append((now, rng.randrange(8), rng.randrange(NODES)))
    return out


def _first_hops(use_flowlets, seed=11):
    occupancy = [0] * NODES
    ports = [_ScriptedPort(occupancy, peer) for peer in range(NODES)]
    node = ClusterNode(SELF, Simulator(), NODES, random.Random(seed),
                       link_busy_threshold_sec=SLOTS,
                       use_flowlets=use_flowlets)
    for peer in range(NODES):
        if peer != SELF:
            node.connect(peer, ports[peer])
    ingress = VLBIngress(_table(), SELF, NODES, tx_rings=ports,
                         use_flowlets=use_flowlets, seed=seed)
    sinks = []
    for output in range(ingress.n_outputs):
        sink = CounterElement(name="out%d" % output)
        sink.connect_to(Discard(name="d%d" % output))
        ingress.connect_to(sink, output=output)
        sinks.append(sink)
    script = random.Random(23)
    sequence = _sequence()
    des_hops, click_hops = [], []
    for now, flow, egress in sequence:
        # The oracle: each link's occupancy, a full ring / busy link
        # about one time in five.
        occupancy[:] = [script.randrange(SLOTS + 1) for _ in range(NODES)]
        dst = "10.%d.1.1" % egress
        des_hops.append(node.choose_path(
            Packet.udp("172.16.0.1", dst, src_port=flow), egress, now))
        before = [sink.count for sink in sinks]
        ingress.now = now
        ingress.receive(Packet.udp("172.16.0.1", dst, src_port=flow))
        (hop,) = [i for i, sink in enumerate(sinks)
                  if sink.count != before[i]]
        click_hops.append(hop)
    egresses = [egress for _, _, egress in sequence]
    return des_hops, click_hops, egresses, node, ingress


@pytest.mark.parametrize("use_flowlets", [False, True])
def test_des_node_and_click_element_pick_the_same_first_hops(use_flowlets):
    des_hops, click_hops, egresses, node, ingress = _first_hops(use_flowlets)
    assert des_hops == click_hops
    assert node.rng.getstate() == ingress.rng.getstate()
    # The sequence exercised the rule, not only the direct path.
    detours = sum(1 for hop, egress in zip(des_hops, egresses)
                  if hop != egress)
    assert detours > 20
    if use_flowlets:
        assert node.flowlets.switches == ingress.flowlets.switches > 0
        assert node.flowlets.spills == ingress.flowlets.spills > 0
