"""DIR-24-8-BASIC longest-prefix matching (Gupta, Lin & McKeown, 1998).

This is the "D-lookup algorithm" the paper's IP-routing application uses
(Sec. 5.1, [34]).  A 2^24-entry first-level table (TBL24) resolves all
prefixes of length <= 24 in one probe; prefixes longer than 24 bits divert
the covering TBL24 slot to a 256-entry second-level table, for a worst case
of two probes.  The structure is what gives hardware-speed lookups at the
cost of memory -- the exact trade the paper leans on.  Entries are int16
and empty is 0, so a TBL24 page no prefix covers is never committed; the
32,768th value slot or level-2 table widens all of them to int32, once.

The implementation supports incremental insert/remove.  Each table entry
records the length of the prefix that wrote it, so a shorter (less
specific) prefix never clobbers a longer one; removals consult a shadow
:class:`BinaryTrie` to restore the covering route.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import RoutingError
from ..net.addresses import IPv4Address, Prefix
from .trie import BinaryTrie

_TBL24_SIZE = 1 << 24
#: Entry v: 0 is empty, v > 0 is value slot v - 1, and v <= _LONG_BASE is
#: level-2 table _LONG_BASE - v.  Widened to int32 before |v| > 32767.
_EMPTY = 0
_LONG_BASE = -1


class Dir24_8:
    """DIR-24-8-BASIC with incremental updates.

    Values are arbitrary Python objects (typically next hops); ``None`` is
    not a legal value since it encodes "no route".
    """

    def __init__(self):
        self._tbl24 = np.zeros(_TBL24_SIZE, dtype=np.int16)
        self._depth24 = np.zeros(_TBL24_SIZE, dtype=np.int8)
        self._long_values = []   # list of 256-entry arrays, TBL24's dtype
        self._long_depths = []   # list of np.int8[256]
        self._free_long = []     # recycled second-level table ids
        self._values = []
        self._value_index = {}   # hashable value -> slot (dedup by equality)
        self._id_index = {}      # id(value) -> slot for unhashable values
        self._value_refs = []    # trie prefixes referencing each slot
        self._free_values = []   # recycled value slots
        self._shadow = BinaryTrie()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- helpers -----------------------------------------------------------

    def _intern(self, value) -> int:
        """Slot index for ``value``, allocating (or recycling) one if new.

        Hashable values dedup by equality, unhashable ones by identity;
        either way the slot is refcounted by the number of trie prefixes
        that route to it, so update churn cannot leak slots.
        """
        if value is None:
            raise RoutingError("None is not a legal route value")
        try:
            index = self._value_index.get(value)
            hashable = True
        except TypeError:
            index = self._id_index.get(id(value))
            hashable = False
        if index is None:
            if self._free_values:
                index = self._free_values.pop()
                self._values[index] = value
            else:
                index = len(self._values)
                self._widen_for(index + 1)
                self._values.append(value)
                self._value_refs.append(0)
            if hashable:
                self._value_index[value] = index
            else:
                self._id_index[id(value)] = index
        return index

    def _find_index(self, value) -> int:
        """Slot of a value known to be referenced by the shadow trie."""
        try:
            return self._value_index[value]
        except TypeError:
            return self._id_index[id(value)]

    def _release(self, index: int) -> None:
        """Drop one trie reference; reclaim the slot when none remain."""
        self._value_refs[index] -= 1
        if self._value_refs[index] == 0:
            value = self._values[index]
            try:
                del self._value_index[value]
            except TypeError:
                del self._id_index[id(value)]
            self._values[index] = None
            self._free_values.append(index)

    def _widen_for(self, code: int) -> None:
        """Widen every table to int32, once, if int16 cannot hold ``code``."""
        if code > np.iinfo(np.int16).max and self._tbl24.dtype == np.int16:
            self._tbl24 = self._tbl24.astype(np.int32)
            self._long_values = [t.astype(np.int32)
                                 for t in self._long_values]

    def _alloc_long(self, fill_value: int, fill_depth: int) -> int:
        if self._free_long:
            tid = self._free_long.pop()
            self._long_values[tid].fill(fill_value)
            self._long_depths[tid].fill(fill_depth)
            return tid
        tid = len(self._long_values)
        self._widen_for(tid + 1)
        self._long_values.append(np.full(256, fill_value, self._tbl24.dtype))
        self._long_depths.append(np.full(256, fill_depth, dtype=np.int8))
        return tid

    # -- updates -----------------------------------------------------------

    def insert(self, prefix: Prefix, value) -> None:
        """Insert or replace the route for ``prefix``."""
        old_value = self._shadow.get(prefix)
        vindex = self._intern(value)
        self._value_refs[vindex] += 1
        self._shadow.insert(prefix, value)
        if old_value is None:
            self._size += 1
        if prefix.length <= 24:
            self._write_short(prefix, vindex + 1, prefix.length)
        else:
            self._write_long(prefix, vindex + 1, prefix.length)
        if old_value is not None:
            # Replacement: the displaced value loses this prefix's
            # reference (after the table rewrite, so its slot can never
            # be recycled while still reachable).
            self._release(self._find_index(old_value))

    def remove(self, prefix: Prefix) -> None:
        """Remove the route for ``prefix``; raises if absent."""
        old_value = self._shadow.get(prefix)
        self._shadow.remove(prefix)  # raises RoutingError if absent
        self._size -= 1
        # Find what now covers the removed range: the longest remaining
        # prefix *shorter* than the removed one (longer prefixes inside the
        # range own their own entries and must not be disturbed).
        cover_prefix, cover_value = self._shadow.lookup_covering(
            prefix.network, prefix.length - 1)
        if cover_value is None:
            cover_entry, cover_depth = _EMPTY, 0
        else:
            cover_entry = self._intern(cover_value) + 1
            cover_depth = cover_prefix.length
        if prefix.length <= 24:
            self._write_short(prefix, cover_entry, cover_depth,
                              overwrite_depth=prefix.length)
        else:
            self._write_long(prefix, cover_entry, cover_depth,
                             overwrite_depth=prefix.length)
        # The removed prefix no longer references its value; its table
        # entries were just rewritten to the covering route, so the slot
        # can be reclaimed if this was the last reference.
        self._release(self._find_index(old_value))

    def _write_short(self, prefix: Prefix, entry: int, depth: int,
                     overwrite_depth: Optional[int] = None) -> None:
        """Write a <=24-bit prefix across its TBL24 range.

        When ``overwrite_depth`` is given (removal), only entries written by
        a prefix of exactly that length are rewritten; otherwise entries
        written by shorter-or-equal prefixes are (insertion semantics).
        """
        start = prefix.network.value >> 8
        count = 1 << (24 - prefix.length)
        sl = slice(start, start + count)
        tbl = self._tbl24[sl]
        dep = self._depth24[sl]
        if overwrite_depth is None:
            mask = dep <= depth
        else:
            mask = dep == overwrite_depth
        # Plain slots: write directly.
        plain = mask & (tbl > _LONG_BASE)
        tbl[plain] = entry
        dep[plain] = depth
        # Slots diverted to second-level tables: update their default part.
        diverted = np.nonzero(mask & (tbl <= _LONG_BASE))[0]
        for offset in diverted:
            tid = _LONG_BASE - int(tbl[offset])
            lvals = self._long_values[tid]
            ldeps = self._long_depths[tid]
            # Only the slot's *background* entries (depth <= 24, i.e. not
            # owned by a longer prefix) belong to short-prefix writes;
            # entries owned by >24-bit prefixes must never be disturbed.
            background = ldeps <= 24
            if overwrite_depth is None:
                lmask = background & (ldeps <= depth)
            else:
                lmask = background & (ldeps == overwrite_depth)
            lvals[lmask] = entry
            ldeps[lmask] = depth
            # TBL24's recorded depth for a diverted slot tracks the
            # background's prefix length (every background entry shares
            # it -- the slot-selection mask above matched it), so record
            # the new background depth alongside the rewrite.
            dep[offset] = depth

    def _write_long(self, prefix: Prefix, entry: int, depth: int,
                    overwrite_depth: Optional[int] = None) -> None:
        """Write a >24-bit prefix into (creating if needed) a level-2 table."""
        slot = prefix.network.value >> 8
        current = int(self._tbl24[slot])
        if current > _LONG_BASE:
            # Divert this slot: seed the new table with the current route.
            tid = self._alloc_long(current, int(self._depth24[slot]))
            self._tbl24[slot] = _LONG_BASE - tid
        else:
            tid = _LONG_BASE - current
        lvals = self._long_values[tid]
        ldeps = self._long_depths[tid]
        start = prefix.network.value & 0xFF
        count = 1 << (32 - prefix.length)
        sl = slice(start, start + count)
        if overwrite_depth is None:
            lmask = ldeps[sl] <= depth
        else:
            lmask = ldeps[sl] == overwrite_depth
        lvals[sl][lmask] = entry
        ldeps[sl][lmask] = depth
        if overwrite_depth is not None and not (ldeps > 24).any():
            # Removal left no >24-bit prefix under this slot: every entry
            # now holds the (uniform) background route, so fold it back
            # into TBL24, un-divert the slot, and recycle the table.
            # Without this the second-level pool only ever grows --
            # long-prefix churn leaks a 256-entry table per cycle.
            if (lvals == lvals[0]).all():
                self._tbl24[slot] = int(lvals[0])
                self._depth24[slot] = int(ldeps[0])
                self._free_long.append(tid)

    # -- lookups -----------------------------------------------------------

    def lookup(self, address) -> Optional[object]:
        """Longest-prefix-match ``address``; 1-2 table probes."""
        if type(address) is not int or not 0 <= address <= 0xFFFFFFFF:
            address = int(IPv4Address(address))
        entry = self._tbl24.item(address >> 8)
        if entry <= _LONG_BASE:
            entry = self._long_values[_LONG_BASE - entry].item(address & 0xFF)
        if entry == _EMPTY:
            return None
        return self._values[entry - 1]

    def memory_bytes(self) -> int:
        """Allocated bytes; untouched TBL24 pages are not resident."""
        total = self._tbl24.nbytes + self._depth24.nbytes
        for lvals, ldeps in zip(self._long_values, self._long_depths):
            total += lvals.nbytes + ldeps.nbytes
        return total
