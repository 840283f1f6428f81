"""The routing-table facade used by the dataplane.

:class:`RoutingTable` pairs next-hop bookkeeping with a pluggable LPM
engine (DIR-24-8 by default, matching the paper; a plain binary trie for
small tables or as a correctness oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

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
        self._routes = {}

    def __len__(self) -> int:
        return len(self._routes)

    def add_route(self, prefix, route: Route) -> None:
        """Insert or replace the route for ``prefix`` (str or Prefix)."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self._lpm.insert(prefix, route)
        self._routes[prefix] = route

    def remove_route(self, prefix) -> None:
        """Remove the route for ``prefix``; raises if absent."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        if prefix not in self._routes:
            raise RoutingError("no route for %s" % prefix)
        self._lpm.remove(prefix)
        del self._routes[prefix]

    def has_route(self, prefix) -> bool:
        """Exact-match membership test."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        return prefix in self._routes

    def lookup(self, address) -> Optional[Route]:
        """Longest-prefix-match ``address`` to a :class:`Route` (or None)."""
        return self._lpm.lookup(address)

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
        """Allocated bytes of the lookup structure (DIR-24-8 only)."""
        if hasattr(self._lpm, "memory_bytes"):
            return self._lpm.memory_bytes()
        return 0
