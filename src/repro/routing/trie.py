"""A bitwise binary trie for IPv4 longest-prefix matching.

This is the reference LPM structure: simple enough to be obviously correct,
used both directly (small tables) and as the oracle against which the
DIR-24-8 fast path is property-tested.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..errors import RoutingError
from ..net.addresses import IPv4Address, Prefix


class _TrieNode:
    __slots__ = ("children", "value", "has_value")

    def __init__(self):
        self.children = [None, None]
        self.value = None
        self.has_value = False


class BinaryTrie:
    """Longest-prefix-match over IPv4 prefixes, one bit per level."""

    def __init__(self):
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value) -> None:
        """Insert or replace the entry for ``prefix``."""
        node = self._root
        network = prefix.network.value
        for depth in range(prefix.length):
            bit = (network >> (31 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def remove(self, prefix: Prefix) -> None:
        """Remove the entry for ``prefix``; raises if absent."""
        path = []
        node = self._root
        network = prefix.network.value
        for depth in range(prefix.length):
            bit = (network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                raise RoutingError("prefix %s not in trie" % prefix)
            path.append((node, bit))
            node = child
        if not node.has_value:
            raise RoutingError("prefix %s not in trie" % prefix)
        node.value = None
        node.has_value = False
        self._size -= 1
        # Prune now-empty branches so memory does not leak across churn.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child.has_value or child.children[0] is not None \
                    or child.children[1] is not None:
                break
            parent.children[bit] = None

    def lookup(self, address) -> Optional[object]:
        """Return the value of the longest matching prefix, or ``None``."""
        value = self._root.value if self._root.has_value else None
        node = self._root
        addr = int(IPv4Address(address))
        for depth in range(32):
            bit = (addr >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
            if node.has_value:
                value = node.value
        return value

    def get(self, prefix: Prefix):
        """Exact-match: the value stored for ``prefix``, or ``None``."""
        node = self._root
        network = prefix.network.value
        for depth in range(prefix.length):
            bit = (network >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return None
        return node.value if node.has_value else None

    def contains(self, prefix: Prefix) -> bool:
        """True if ``prefix`` itself (exact match) is in the trie."""
        node = self._root
        network = prefix.network.value
        for depth in range(prefix.length):
            bit = (network >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return False
        return node.has_value

    def lookup_covering(self, address, max_length: int) -> Tuple[Optional[Prefix], Optional[object]]:
        """Longest match for ``address`` among prefixes of length <= ``max_length``.

        ``max_length`` may be negative (removing a default route asks for
        the cover of ``/0``, i.e. length <= -1): nothing can cover it, so
        the answer is explicitly ``(None, None)``.
        """
        if max_length < 0:
            return (None, None)
        addr = int(IPv4Address(address))
        best = (None, None)
        node = self._root
        if node.has_value:
            best = (Prefix(0, 0), node.value)
        for depth in range(min(32, max_length)):
            bit = (addr >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
            if node.has_value:
                best = (Prefix.from_address(addr, depth + 1), node.value)
        return best

    def items(self) -> Iterator[Tuple[Prefix, object]]:
        """Yield (prefix, value) pairs in depth-first order."""
        stack = [(self._root, 0, 0)]
        while stack:
            node, bits, depth = stack.pop()
            if node.has_value:
                yield Prefix(bits << (32 - depth) if depth else 0, depth), node.value
            for bit in (1, 0):
                child = node.children[bit]
                if child is not None:
                    stack.append((child, (bits << 1) | bit, depth + 1))
