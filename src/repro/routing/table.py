"""The routing-table facade used by the dataplane.

:class:`RoutingTable` pairs next-hop bookkeeping with a pluggable LPM
engine (DIR-24-8 by default, matching the paper; a plain binary trie for
small tables or as a correctness oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import RoutingError
from ..net.addresses import IPv4Address, MACAddress, Prefix
from .dir24_8 import Dir24_8
from .trie import BinaryTrie


@dataclass(frozen=True)
class Route:
    """A routing-table entry's action: output port and next-hop addresses."""

    port: int
    next_hop: IPv4Address
    next_hop_mac: MACAddress = MACAddress(0)

    def __post_init__(self):
        if self.port < 0:
            raise RoutingError("route port must be >= 0, got %r" % self.port)


class RoutingTable:
    """IPv4 FIB with longest-prefix-match semantics.

    Parameters
    ----------
    engine:
        ``"dir24_8"`` (default; the paper's D-lookup) or ``"trie"``.
    """

    def __init__(self, engine: str = "dir24_8"):
        if engine == "dir24_8":
            self._lpm = Dir24_8()
        elif engine == "trie":
            self._lpm = BinaryTrie()
        else:
            raise RoutingError("unknown LPM engine %r" % engine)
        self.engine_name = engine
        self._routes = {}
        self._slot_cache = None  # slot-aligned (ports, next_hops, macs)

    def __len__(self) -> int:
        return len(self._routes)

    def add_route(self, prefix, route: Route) -> None:
        """Insert or replace the route for ``prefix`` (str or Prefix)."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self._lpm.insert(prefix, route)
        self._routes[prefix] = route
        self._slot_cache = None

    def remove_route(self, prefix) -> None:
        """Remove the route for ``prefix``; raises if absent."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        if prefix not in self._routes:
            raise RoutingError("no route for %s" % prefix)
        self._lpm.remove(prefix)
        del self._routes[prefix]
        self._slot_cache = None

    def has_route(self, prefix) -> bool:
        """Exact-match membership test."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        return prefix in self._routes

    def lookup(self, address) -> Optional[Route]:
        """Longest-prefix-match ``address`` to a :class:`Route` (or None)."""
        return self._lpm.lookup(address)

    def _slot_columns(self):
        """Slot-aligned (ports, next_hops, macs) arrays for DIR-24-8.

        Aligned with :meth:`Dir24_8.value_slots` so a slot array from
        ``lookup_batch_slots`` indexes straight into them; rebuilt lazily
        after any route change.
        """
        if self._slot_cache is None:
            values = self._lpm.value_slots()
            n = len(values)
            ports = np.full(n, -1, dtype=np.int64)
            next_hops = np.full(n, None, dtype=object)
            macs = np.full(n, None, dtype=object)
            for i, route in enumerate(values):
                if route is not None:
                    ports[i] = route.port
                    next_hops[i] = route.next_hop
                    macs[i] = route.next_hop_mac
            self._slot_cache = (ports, next_hops, macs)
        return self._slot_cache

    def lookup_batch(self, addresses):
        """Vectorized LPM over an integer address array.

        Returns ``(ports, next_hops, next_hop_macs)`` arrays; a port of
        ``-1`` marks a miss (the corresponding next-hop entries are
        None).  With the DIR-24-8 engine the whole batch resolves in a
        handful of numpy operations; other engines fall back to a scalar
        loop with identical results.
        """
        addresses = np.asarray(addresses, dtype=np.uint32)
        n = len(addresses)
        if hasattr(self._lpm, "lookup_batch_slots"):
            ports, next_hops, macs = self._slot_columns()
            if len(ports):
                slots = self._lpm.lookup_batch_slots(addresses)
                miss = slots < 0
                safe = np.where(miss, 0, slots)
                out_ports = ports[safe]
                out_hops = next_hops[safe]
                out_macs = macs[safe]
                if miss.any():
                    out_ports = out_ports.copy()
                    out_ports[miss] = -1
                    out_hops[miss] = None
                    out_macs[miss] = None
                return out_ports, out_hops, out_macs
        out_ports = np.full(n, -1, dtype=np.int64)
        out_hops = np.full(n, None, dtype=object)
        out_macs = np.full(n, None, dtype=object)
        for i, address in enumerate(addresses.tolist()):
            route = self._lpm.lookup(address)
            if route is not None:
                out_ports[i] = route.port
                out_hops[i] = route.next_hop
                out_macs[i] = route.next_hop_mac
        return out_ports, out_hops, out_macs

    def lookup_or_raise(self, address) -> Route:
        """Like :meth:`lookup` but raises :class:`RoutingError` on a miss."""
        route = self._lpm.lookup(address)
        if route is None:
            raise RoutingError("no route to %s" % IPv4Address(address))
        return route

    def routes(self) -> Iterable[Tuple[Prefix, Route]]:
        """All installed (prefix, route) pairs."""
        return self._routes.items()

    def memory_bytes(self) -> int:
        """Approximate size of the lookup structure (DIR-24-8 only)."""
        if hasattr(self._lpm, "memory_bytes"):
            return self._lpm.memory_bytes()
        return 0
