"""Internet checksum (RFC 1071) and incremental updates (RFC 1624).

The IP-routing application recomputes/updates the IPv4 header checksum on
every packet (Sec. 5.1); decrementing the TTL uses the incremental form, as
a real fast path would.
"""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    Returns the checksum value ready to be stored in a header field (i.e.,
    already complemented).  An odd trailing byte is padded with zero, per
    RFC 1071.
    """
    total = 0
    length = len(data)
    # Sum 16-bit big-endian words.
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    # Fold carries.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (including its embedded checksum field) sums to zero."""
    total = 0
    length = len(data)
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total == 0xFFFF


def incremental_checksum_update(checksum: int, old_word: int, new_word: int) -> int:
    """Update ``checksum`` for a 16-bit field change (RFC 1624, eqn. 3).

    ``checksum`` is the stored (complemented) header checksum; ``old_word``
    and ``new_word`` are the 16-bit field value before and after the change.
    Returns the new stored checksum.
    """
    if not 0 <= checksum <= 0xFFFF:
        raise ValueError("checksum out of range: %r" % checksum)
    if not 0 <= old_word <= 0xFFFF or not 0 <= new_word <= 0xFFFF:
        raise ValueError("checksum words must be 16-bit")
    # HC' = ~(~HC + ~m + m')  (one's complement arithmetic)
    total = (~checksum & 0xFFFF) + (~old_word & 0xFFFF) + new_word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF



def ttl_decrement_checksum(checksum: int, old_ttl: int, proto: int) -> int:
    """Incrementally update an IPv4 checksum for a TTL decrement.

    TTL shares its 16-bit word with the protocol field (TTL is the high
    byte); decrementing TTL by one changes that word from
    ``old_ttl << 8 | proto`` to ``(old_ttl - 1) << 8 | proto``.
    """
    if old_ttl <= 0:
        raise ValueError("cannot decrement TTL %r" % old_ttl)
    old_word = ((old_ttl & 0xFF) << 8) | (proto & 0xFF)
    new_word = (((old_ttl - 1) & 0xFF) << 8) | (proto & 0xFF)
    return incremental_checksum_update(checksum, old_word, new_word)
