"""Flow identification and RSS-style hashing.

Multi-queue NICs spread incoming packets across receive queues by hashing
the five-tuple (receive-side scaling, Sec. 4.2 [12]); the flowlet switcher
(Sec. 6.1) tracks per-flow state keyed by the same tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .addresses import IPv4Address

#: Default 40-byte Toeplitz-like key, fixed so queue assignment is
#: deterministic across runs.
_DEFAULT_HASH_SEED = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class FiveTuple:
    """The classic (src IP, dst IP, proto, src port, dst port) flow key.

    Hashed once, at construction, to the value a frozen dataclass would
    compute per call (the hash of the field tuple): a generated flow's
    one key is looked up at every flowlet and reorder-meter access.  The
    fields and the hash live in slots; the pickled state is the plain
    dataclass's field dict, and unpickling recomputes the hash.
    """

    __slots__ = ("src", "dst", "proto", "src_port", "dst_port", "_hash")

    src: IPv4Address
    dst: IPv4Address
    proto: int
    src_port: int
    dst_port: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((
            self.src, self.dst, self.proto, self.src_port, self.dst_port)))

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        return {"src": self.src, "dst": self.dst, "proto": self.proto,
                "src_port": self.src_port, "dst_port": self.dst_port}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def as_ints(self):
        """Tuple of plain ints (handy for hashing and dict keys)."""
        return (int(self.src), int(self.dst), self.proto,
                self.src_port, self.dst_port)


def rss_hash(flow: FiveTuple, seed: int = _DEFAULT_HASH_SEED) -> int:
    """Deterministic 32-bit hash of a five-tuple.

    A splitmix-style integer mix rather than a literal Toeplitz hash: what
    matters for the simulation is that same-flow packets always land in the
    same queue and that distinct flows spread uniformly, both of which this
    provides.
    """
    x = seed
    for word in flow.as_ints():
        x ^= word + 0x9E3779B97F4A7C15 + ((x << 6) & 0xFFFFFFFFFFFFFFFF) + (x >> 2)
        x &= 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
    return x & 0xFFFFFFFF


def queue_for_flow(flow: FiveTuple, num_queues: int,
                   seed: int = _DEFAULT_HASH_SEED) -> int:
    """Map a flow to a receive-queue index in ``[0, num_queues)``."""
    if num_queues < 1:
        raise ValueError("num_queues must be >= 1, got %r" % num_queues)
    return rss_hash(flow, seed) % num_queues
