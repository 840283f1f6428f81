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

from typing import Dict, List

from ..net.flows import FiveTuple
from ..net.packet import Packet


class ReorderingMeter:
    """Observe egress packets and report the reordered-sequence fraction.

    Each flow's egress order is folded as it is observed, so the meter
    holds one small record per flow, not every sequence number.
    ``flow_seq`` counts from 1: a flow's maximum starts at 0.
    """

    def __init__(self):
        # Per flow: [max_seen, in_reordered_run, reordered, runs, packets];
        # ``in_reordered_run`` is None until the flow's first packet.
        self._flows: Dict[FiveTuple, list] = {}

    @staticmethod
    def _step(state: list, seq: int) -> None:
        """Fold the next egress sequence number into a flow's record."""
        state[4] += 1
        if seq > state[0]:
            state[0] = seq
            if state[1] is not False:
                state[1] = False
                state[3] += 1
        elif state[1] is not True:
            # Overtaken by a later packet: one more reordered sequence.
            state[1] = True
            state[2] += 1
            state[3] += 1

    def _record(self, flow: FiveTuple) -> list:
        state = self._flows.get(flow)
        if state is None:
            state = self._flows[flow] = [0, None, 0, 0, 0]
        return state

    def observe(self, packet: Packet) -> None:
        """Record one packet leaving the cluster (uses ``flow_seq``)."""
        self._step(self._record(packet.five_tuple()), packet.flow_seq)

    def observe_sequence(self, flow: FiveTuple, seqs: List[int]) -> None:
        """Record a whole flow's egress order at once (testing hook)."""
        state = self._record(flow)
        for seq in seqs:
            self._step(state, seq)

    @staticmethod
    def reordered_sequences(seqs: List[int]) -> int:
        """Number of reordered sequences in one flow's egress order."""
        meter = ReorderingMeter()
        meter.observe_sequence(None, seqs)      # one anonymous flow
        return meter.reordered_count()

    def total_sequences(self) -> int:
        """Total same-flow packet sequences observed.

        Following the paper's normalization, every maximal in-order run is
        one sequence; the fraction reordered is (reordered runs) / (all
        runs).
        """
        return sum(state[3] for state in self._flows.values())

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
        the Sec. 6.2 numbers.  :meth:`reordered_run_fraction` provides the
        alternative run-based normalization.
        """
        total = self.packets_observed()
        return self.reordered_count() / total if total else 0.0

    def reordered_run_fraction(self) -> float:
        """Reordered runs over all maximal same-flow runs (stricter)."""
        total = self.total_sequences()
        return self.reordered_count() / total if total else 0.0

    def packets_observed(self) -> int:
        return sum(state[4] for state in self._flows.values())
