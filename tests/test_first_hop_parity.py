"""The DES node runs the Direct-VLB first-hop rule.

One packet sequence and one scripted link-state oracle drive a
``ClusterNode``; every first hop, detours included, must be one the rule
(``core.vlb.direct_first_hop``) allows for the link state of its
instant, and with flowlets a kept pinned path must be available.
"""

import random
from types import SimpleNamespace

import pytest

from repro.calibration import FLOWLET_DELTA_SEC
from repro.core.node import ClusterNode
from repro.net import Packet
from repro.simnet.engine import Simulator

NODES = 4
SELF = 0
SLOTS = 4  # busy threshold in queued bits at 1 bit/s


class _ScriptedPort:
    """One peer's link state, read as a DES link (bits queued at 1 bit/s)."""

    rate_bps = 1.0

    def __init__(self, occupancy, peer):
        self._occupancy = occupancy
        self._peer = peer

    def queued_bits(self):
        return float(self._occupancy[self._peer])


def ingress_hop(node, packet, egress, now):
    """The first hop ``node.ingress`` picks for ``packet`` at ``now``
    (``egress`` itself for a local delivery): the event it files."""
    sim, filed = node.sim, []
    node.sim = SimpleNamespace(
        now=now, schedule_timer=lambda delay, event: filed.append(event))
    try:
        node.ingress(packet, egress)
    finally:
        node.sim = sim
    (event,) = filed
    return event.args[1] if event.func == node._send else egress


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
    node = ClusterNode(SELF, Simulator(), NODES, random.Random(seed),
                       link_busy_threshold_sec=SLOTS,
                       use_flowlets=use_flowlets)
    for peer in range(NODES):
        if peer != SELF:
            node.connect(peer, _ScriptedPort(occupancy, peer))
    script = random.Random(23)
    sequence = _sequence()
    hops, states = [], []
    for now, flow, egress in sequence:
        # The oracle: each link's occupancy, a busy link about one time
        # in five.
        occupancy[:] = [script.randrange(SLOTS + 1) for _ in range(NODES)]
        states.append(list(occupancy))
        dst = "10.%d.1.1" % egress
        hops.append(ingress_hop(
            node, Packet.udp("172.16.0.1", dst, src_port=flow), egress, now))
    egresses = [egress for _, _, egress in sequence]
    return hops, states, egresses, node


def _rule_hops(occupancy, egress):
    """The hops ``direct_first_hop`` may pick: direct while the link is
    free, else any least-loaded intermediate (the shuffle breaks ties).
    A packet for this node is delivered locally."""
    if egress == SELF or occupancy[egress] < SLOTS:
        return {egress}
    candidates = [i for i in range(NODES) if i not in (SELF, egress)]
    least = min(occupancy[i] for i in candidates)
    return {i for i in candidates if occupancy[i] == least}


@pytest.mark.parametrize("use_flowlets", [False, True])
def test_des_node_follows_the_first_hop_rule(use_flowlets):
    hops, states, egresses, node = _first_hops(use_flowlets)
    for hop, occupancy, egress in zip(hops, states, egresses):
        if use_flowlets and hop not in _rule_hops(occupancy, egress):
            # A pinned path is kept only while it is available.
            assert hop != SELF and occupancy[hop] < SLOTS
        else:
            assert hop in _rule_hops(occupancy, egress)
    # The sequence exercised the rule, not only the direct path.
    detours = sum(1 for hop, egress in zip(hops, egresses)
                  if hop != egress)
    assert detours > 20
    if use_flowlets:
        assert node.flowlets.switches > 0
        assert node.flowlets.spills > 0
