"""Flare-style flowlet tracking for reordering avoidance (Sec. 6.1).

Two rules bound reordering: (1) same-flow packets arriving within
``delta`` of each other keep using the flow's current path whenever that
path has capacity; (2) after an inactivity gap longer than ``delta`` the
flow may be re-assigned to any path (no packet can be overtaken across a
100 ms gap by cluster paths that differ by tens of microseconds).  When a
flowlet's current path is saturated the packet spills to per-packet
balancing -- the case that produces RB4's residual 0.15 % reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable

from .. import calibration as cal
from ..errors import ConfigurationError


@dataclass
class _FlowletEntry:
    path: int
    last_seen: float
    packets: int = 0


class FlowletTable:
    """Per-flow path pinning with an inactivity timeout.

    ``assign`` returns the path for a packet and keeps the per-flow state;
    the caller supplies a ``path_available`` predicate (local link-load
    information -- VLB needs nothing global) and a ``fresh_path`` factory
    used when a new flowlet starts or the pinned path is saturated.
    """

    def __init__(self, delta_sec: float = cal.FLOWLET_DELTA_SEC,
                 max_entries: int = 1 << 20):
        if delta_sec <= 0:
            raise ConfigurationError("delta must be positive")
        if max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        self.delta_sec = delta_sec
        self.max_entries = max_entries
        self._table: Dict[Hashable, _FlowletEntry] = {}
        self.switches = 0       # flowlet boundary re-assignments
        self.spills = 0         # mid-flowlet path changes (reordering risk)

    def __len__(self) -> int:
        return len(self._table)

    def assign(self, flow: Hashable, now: float,
               path_available: Callable[[int], bool],
               fresh_path: Callable[[], int]) -> int:
        """Path for the next packet of ``flow`` at time ``now``."""
        entry = self._table.get(flow)
        if entry is not None and now < entry.last_seen:
            raise ConfigurationError("time ran backwards for flow %r" % (flow,))
        if entry is None:
            self._maybe_evict(now)
            path = fresh_path()
            self._table[flow] = _FlowletEntry(path=path, last_seen=now,
                                              packets=1)
            return path
        gap = now - entry.last_seen
        entry.last_seen = now
        entry.packets += 1
        if gap > self.delta_sec:
            # Flowlet boundary: safe to re-balance.
            new_path = fresh_path()
            if new_path != entry.path:
                self.switches += 1
                entry.path = new_path
            return entry.path
        if path_available(entry.path):
            return entry.path
        # The pinned path is full mid-flowlet: spill (may reorder).
        new_path = fresh_path()
        if new_path != entry.path:
            self.spills += 1
            entry.path = new_path
        return entry.path

    def _maybe_evict(self, now: float) -> None:
        """Drop idle entries when the table is full (simple full sweep --
        adequate for simulation scales)."""
        if len(self._table) < self.max_entries:
            return
        idle = [flow for flow, entry in self._table.items()
                if now - entry.last_seen > self.delta_sec]
        for flow in idle:
            del self._table[flow]
        if len(self._table) >= self.max_entries:
            # Everything is active; evict the stalest entry.
            stalest = min(self._table, key=lambda f: self._table[f].last_seen)
            del self._table[stalest]
