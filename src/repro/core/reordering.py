"""The reordering metric of Sec. 6.2.

"We measure reordering as the fraction of same-flow packet sequences that
were reordered within their TCP/UDP flow; for instance, if a TCP flow
consists of 5 packets that enter the cluster in sequence <p1..p5> and exit
in sequence <p1, p4, p2, p3, p5>, we count one reordered sequence."

We implement that as: within each flow, count maximal descending breaks --
every position where the exiting packet's ingress sequence number is not
greater than the maximum seen so far starts/extends one reordered
sequence; consecutive displaced packets count once.  For the example
above, <p2, p3> after p4 is a single reordered sequence.
"""

from __future__ import annotations

from typing import Dict

from ..net.flows import FiveTuple
from ..net.packet import Packet


class ReorderingMeter:
    """Observe egress packets and report the reordered-sequence fraction.

    Each flow's egress order is folded as it is observed, so the meter
    holds one small record per flow, not every sequence number.
    ``flow_seq`` counts from 1: a flow's maximum starts at 0.
    """

    def __init__(self):
        # Per flow: [max_seen, in_reordered_run, reordered, packets].
        self._flows: Dict[FiveTuple, list] = {}

    def observe(self, packet: Packet) -> None:
        """Fold one packet leaving the cluster into its flow's record."""
        flow = packet.flow_key or packet.five_tuple()
        state = self._flows.get(flow)
        if state is None:
            state = self._flows[flow] = [0, False, 0, 0]
        seq = packet.flow_seq
        state[3] += 1
        if seq > state[0]:
            state[0] = seq
            state[1] = False
        elif not state[1]:
            # Overtaken by a later packet: one more reordered sequence.
            state[1] = True
            state[2] += 1

    def reordered_count(self) -> int:
        """Total reordered sequences across every observed flow.

        Flows are keyed by five-tuple and observed at their egress node,
        so a partitioned run's per-partition meters see disjoint flow
        sets -- summing their counts reproduces the global figure.
        """
        return sum(state[2] for state in self._flows.values())

    def reordered_fraction(self) -> float:
        """Reordered sequences per same-flow packet sequence observed.

        The paper's example counts one reordered sequence in a 5-packet
        flow; normalizing by packets observed (each packet heads one
        potential same-flow sequence) reproduces the sub-percent scale of
        the Sec. 6.2 numbers.
        """
        total = self.packets_observed()
        return self.reordered_count() / total if total else 0.0

    def packets_observed(self) -> int:
        return sum(state[3] for state in self._flows.values())
