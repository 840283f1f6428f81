"""Output-node re-sequencing: the alternative RB4 rejected (Sec. 6.1).

"Another option would be to tag incoming packets with sequence numbers and
re-sequence them at the output node; this is an option we would pursue, if
the CPUs were not our bottleneck."

This module implements that option so the trade-off is measurable: the
input node tags each flow's packets with consecutive sequence numbers; the
output node buffers out-of-order arrivals and releases them in order, with
a timeout bounding how long a gap can stall a flow (packets lost or
overtaken beyond the timeout are flushed).  The cost is buffer memory,
added latency while holding back early arrivals, and per-packet CPU work —
the reason the paper chose flowlets instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Tuple

from ..errors import ConfigurationError
from ..net.packet import Packet


@dataclass
class _FlowState:
    next_expected: int = 1
    buffer: Dict[int, Tuple[Packet, float]] = field(default_factory=dict)
    flushed: int = 0


class Resequencer:
    """Per-flow in-order release with a gap timeout.

    ``deliver`` is called with each packet in sequence order.  ``offer``
    feeds arrivals; ``expire`` (driven by the caller's clock) flushes
    flows whose head-of-line gap has outlived ``timeout_sec``.
    """

    def __init__(self, deliver: Callable[[Packet], None],
                 timeout_sec: float = 1e-3, max_buffer: int = 4096):
        if timeout_sec <= 0:
            raise ConfigurationError("timeout must be positive")
        if max_buffer < 1:
            raise ConfigurationError("max_buffer must be >= 1")
        self.deliver = deliver
        self.timeout_sec = timeout_sec
        self.max_buffer = max_buffer
        self._flows: Dict[Hashable, _FlowState] = {}
        self.buffered_high_watermark = 0
        self.delivered = 0
        self.timed_out = 0
        self.held = 0  # packets that had to wait at least once

    def _buffered(self) -> int:
        return sum(len(state.buffer) for state in self._flows.values())

    def offer(self, flow: Hashable, packet: Packet, now: float) -> None:
        """Feed one arrival; releases as much in-order prefix as possible."""
        state = self._flows.setdefault(flow, _FlowState())
        seq = packet.flow_seq
        if seq < state.next_expected:
            # Duplicate or already-flushed straggler: deliver immediately
            # (dropping would turn reordering into loss).
            self.deliver(packet)
            self.delivered += 1
            return
        if seq == state.next_expected:
            self.deliver(packet)
            self.delivered += 1
            state.next_expected += 1
            self._release_ready(state)
            return
        # A gap: hold the packet.
        if self._buffered() >= self.max_buffer:
            # Buffer exhausted: flush this flow's backlog in seq order.
            self._flush(state)
        state.buffer[seq] = (packet, now)
        self.held += 1
        self.buffered_high_watermark = max(self.buffered_high_watermark,
                                           self._buffered())

    def _release_ready(self, state: _FlowState) -> None:
        while state.next_expected in state.buffer:
            packet, _ = state.buffer.pop(state.next_expected)
            self.deliver(packet)
            self.delivered += 1
            state.next_expected += 1

    def _flush(self, state: _FlowState) -> None:
        for seq in sorted(state.buffer):
            packet, _ = state.buffer.pop(seq)
            self.deliver(packet)
            self.delivered += 1
            state.next_expected = max(state.next_expected, seq + 1)
        state.flushed += 1

    def expire(self, now: float) -> int:
        """Flush flows whose oldest buffered packet exceeded the timeout.

        Returns the number of packets released by timeout (these count as
        give-ups: the missing predecessor is presumed lost)."""
        released = 0
        for state in self._flows.values():
            if not state.buffer:
                continue
            oldest = min(arrival for _, arrival in state.buffer.values())
            if now - oldest > self.timeout_sec:
                before = len(state.buffer)
                self._flush(state)
                released += before
                self.timed_out += before
        return released

    def pending(self) -> int:
        """Packets currently held back."""
        return self._buffered()
