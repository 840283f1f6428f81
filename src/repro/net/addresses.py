"""IPv4 and MAC address types, and IPv4 prefixes.

Lightweight value types (plain ints under the hood) tuned for the hot paths
of the simulator: the routing table performs millions of lookups, so
addresses avoid the overhead of :mod:`ipaddress` objects while keeping
explicit, validated constructors.
"""

from __future__ import annotations

from ..errors import PacketError, RoutingError

_MAX_IPV4 = 0xFFFFFFFF
_MAX_MAC = 0xFFFFFFFFFFFF


class IPv4Address:
    """An IPv4 address backed by a 32-bit integer.

    Instances are immutable, hashable, and totally ordered by numeric value.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, IPv4Address):
            numeric = value.value
        elif isinstance(value, int):
            numeric = value
        elif isinstance(value, str):
            numeric = _parse_dotted_quad(value)
        else:
            raise PacketError("cannot build IPv4Address from %r" % (value,))
        if not 0 <= numeric <= _MAX_IPV4:
            raise PacketError("IPv4 address out of range: %r" % (value,))
        object.__setattr__(self, "value", numeric)

    def __setattr__(self, name, value):
        raise AttributeError("IPv4Address is immutable")

    def __reduce__(self):
        # The immutability guard breaks pickle's default slot-state
        # restore (it calls the overridden __setattr__); rebuild through
        # the constructor instead.
        return (IPv4Address, (self.value,))

    def __int__(self):
        return self.value

    def __index__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, IPv4Address):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __lt__(self, other):
        return self.value < int(other)

    def __le__(self, other):
        return self.value <= int(other)

    def __hash__(self):
        return hash(self.value)

    def __str__(self):
        v = self.value
        return "%d.%d.%d.%d" % ((v >> 24) & 0xFF, (v >> 16) & 0xFF,
                                (v >> 8) & 0xFF, v & 0xFF)

    def __repr__(self):
        return "IPv4Address('%s')" % self

    def to_bytes(self) -> bytes:
        """Serialize to 4 network-order bytes."""
        return self.value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        """Parse 4 network-order bytes."""
        if len(data) != 4:
            raise PacketError("IPv4 address needs 4 bytes, got %d" % len(data))
        return cls(int.from_bytes(data, "big"))


def _parse_dotted_quad(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise PacketError("malformed IPv4 address %r" % text)
    value = 0
    for part in parts:
        if not part.isdigit():
            raise PacketError("malformed IPv4 address %r" % text)
        octet = int(part)
        if octet > 255:
            raise PacketError("IPv4 octet out of range in %r" % text)
        value = (value << 8) | octet
    return value


class MACAddress:
    """A 48-bit Ethernet MAC address.

    RouteBricks encodes the identity of a packet's *output node* in the
    destination MAC address so intermediate cluster nodes can switch packets
    queue-to-queue without touching IP headers (Sec. 6.1);
    :meth:`with_node_id` / :meth:`node_id` implement that trick.
    """

    __slots__ = ("value",)

    #: Low byte of the MAC carries the encoded cluster node id.
    NODE_ID_MASK = 0xFF

    def __init__(self, value):
        if isinstance(value, MACAddress):
            numeric = value.value
        elif isinstance(value, int):
            numeric = value
        elif isinstance(value, str):
            numeric = _parse_mac(value)
        else:
            raise PacketError("cannot build MACAddress from %r" % (value,))
        if not 0 <= numeric <= _MAX_MAC:
            raise PacketError("MAC address out of range: %r" % (value,))
        object.__setattr__(self, "value", numeric)

    def __setattr__(self, name, value):
        raise AttributeError("MACAddress is immutable")

    def __reduce__(self):
        return (MACAddress, (self.value,))

    def __int__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, MACAddress):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(("mac", self.value))

    def __str__(self):
        octets = self.value.to_bytes(6, "big")
        return ":".join("%02x" % b for b in octets)

    def __repr__(self):
        return "MACAddress('%s')" % self

    def to_bytes(self) -> bytes:
        """Serialize to 6 network-order bytes."""
        return self.value.to_bytes(6, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "MACAddress":
        """Parse 6 network-order bytes."""
        if len(data) != 6:
            raise PacketError("MAC address needs 6 bytes, got %d" % len(data))
        return cls(int.from_bytes(data, "big"))

    def with_node_id(self, node_id: int) -> "MACAddress":
        """Return a copy with the cluster node id encoded in the low byte."""
        if not 0 <= node_id <= self.NODE_ID_MASK:
            raise PacketError("node id %r does not fit in a MAC byte" % node_id)
        return interned_mac((self.value & ~self.NODE_ID_MASK) | node_id)

    def node_id(self) -> int:
        """Extract the cluster node id encoded by :meth:`with_node_id`."""
        return self.value & self.NODE_ID_MASK


#: Cluster MACs encode a node id in the low byte, so a simulation only
#: ever sees a handful of distinct (immutable) values: worth interning.
#: A hot path may read it directly; only :func:`interned_mac` adds to it.
INTERNED_MACS = {}


def interned_mac(value: int) -> MACAddress:
    """The one shared :class:`MACAddress` for ``value``."""
    mac = INTERNED_MACS.get(value)
    if mac is None:
        mac = INTERNED_MACS[value] = MACAddress(value)
    return mac


def _parse_mac(text: str) -> int:
    parts = text.split(":")
    if len(parts) != 6:
        raise PacketError("malformed MAC address %r" % text)
    value = 0
    for part in parts:
        if len(part) not in (1, 2):
            raise PacketError("malformed MAC address %r" % text)
        try:
            octet = int(part, 16)
        except ValueError:
            raise PacketError("malformed MAC address %r" % text) from None
        value = (value << 8) | octet
    return value


class Prefix:
    """An IPv4 prefix (network address + mask length) for LPM routing."""

    __slots__ = ("network", "length")

    def __init__(self, network, length: int):
        if not 0 <= length <= 32:
            raise RoutingError("prefix length must be in [0, 32], got %r" % length)
        addr = IPv4Address(network)
        mask = _mask(length)
        if addr.value & ~mask & _MAX_IPV4:
            raise RoutingError(
                "network %s has host bits set for /%d" % (addr, length))
        object.__setattr__(self, "network", addr)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name, value):
        raise AttributeError("Prefix is immutable")

    def __reduce__(self):
        return (Prefix, (self.network.value, self.length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation."""
        if "/" not in text:
            raise RoutingError("prefix %r missing '/len'" % text)
        net, _, length = text.partition("/")
        if not length.isdigit():
            raise RoutingError("bad prefix length in %r" % text)
        return cls(net, int(length))

    @classmethod
    def from_address(cls, address, length: int) -> "Prefix":
        """Build the /length prefix containing ``address`` (truncates host bits)."""
        value = int(IPv4Address(address)) & _mask(length)
        return cls(value, length)

    def contains(self, address) -> bool:
        """True if ``address`` falls inside this prefix."""
        return (int(IPv4Address(address)) & _mask(self.length)) == self.network.value

    def __eq__(self, other):
        if isinstance(other, Prefix):
            return (self.network.value, self.length) == (other.network.value, other.length)
        return NotImplemented

    def __hash__(self):
        return hash((self.network.value, self.length))

    def __str__(self):
        return "%s/%d" % (self.network, self.length)

    def __repr__(self):
        return "Prefix.parse('%s')" % self


def _mask(length: int) -> int:
    if length == 0:
        return 0
    return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4
