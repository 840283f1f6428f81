"""Flow-skewed traffic for the stateful NF suite (repro.stateful).

State-Compute Replication's interesting regime is *skewed* per-flow load:
a few elephant flows carry most packets, so RSS flow-pinning concentrates
work on one core while shared-state locking serializes on the elephants'
entries.  This generator produces exactly that structure:

* a **Zipf rank distribution** over a fixed pool of flow slots -- slot
  ``k`` (0-based) receives traffic proportional to ``1/(k+1)**skew``, so
  ``skew=0`` is uniform and ``skew>1`` concentrates on a handful of
  elephants;
* **flow churn** -- each slot's flow has a geometric lifetime in packets;
  when it expires, a fresh flow (new five-tuple, next generation) takes
  over the slot, so the *rank* structure persists while flow identities
  turn over, the way backbone traffic behaves;
* the **Abilene structure** -- frame sizes come from
  :data:`~repro.workloads.abilene.ABILENE_SIZE_MIX` (the trimodal
  backbone profile) and inter-arrivals are exponential, matching the
  synthetic Abilene trace the cluster experiments replay.

Everything is deterministic for a given seed, including the flow-ID
stream, which is what lets the three dispatch strategies (and their
tests) consume byte-identical packet histories.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..errors import ConfigurationError
from ..net.addresses import IPv4Address
from ..net.flows import FiveTuple
from ..net.headers import PROTO_UDP
from .abilene import ABILENE_SIZE_MIX


@dataclass(frozen=True)
class PacketRecord:
    """One packet of the flow-skewed stream, as the dispatch engine and
    the SCR history log see it: global sequence, arrival time, flow key,
    frame length.  Compact on purpose -- this is what SCR would actually
    share between cores."""

    seq: int
    time: float
    key: FiveTuple
    length: int
    flow_slot: int
    flow_generation: int


class SkewedFlowWorkload:
    """Zipf-skewed, churning flow population over Abilene packet sizes.

    Parameters
    ----------
    num_flows:
        Number of concurrently live flow slots (the rank distribution's
        support).
    skew:
        Zipf exponent ``s``; slot ``k`` draws traffic ``~ 1/(k+1)**s``.
        ``0.0`` is uniform; backbone measurements sit around 1.0-1.3.
    churn_packets:
        Mean flow lifetime in packets (geometric); ``None`` disables
        churn so slot and flow are one-to-one.
    rate_pps:
        Aggregate arrival rate; inter-arrivals are exponential.
    seed:
        Deterministic stream per seed.
    """

    def __init__(self, num_flows: int = 512, skew: float = 1.1,
                 churn_packets: Optional[float] = None,
                 rate_pps: float = 1e6, seed: int = 0):
        if num_flows < 1:
            raise ConfigurationError("need >= 1 flow slot")
        # Written so that NaN fails too (every comparison with NaN is false).
        if not 0 <= skew < math.inf:
            raise ConfigurationError("skew exponent must be finite and >= 0")
        if churn_packets is not None and not 1 <= churn_packets < math.inf:
            raise ConfigurationError("churn_packets must be finite and >= 1 packet")
        if not 0 < rate_pps < math.inf:
            raise ConfigurationError("rate must be finite and positive")
        self.num_flows = num_flows
        self.skew = skew
        self.churn_packets = churn_packets
        self.rate_pps = rate_pps
        self.seed = seed
        self.rng = random.Random(seed)
        # Zipf CDF over slots: cum[k] = sum of weights of slots 0..k.
        weights = [1.0 / (k + 1) ** skew for k in range(num_flows)]
        total = sum(weights)
        self._cdf: List[float] = list(itertools.accumulate(
            w / total for w in weights))
        self._cdf[-1] = 1.0  # guard float undershoot at the tail
        self._sizes, self._size_weights = zip(*ABILENE_SIZE_MIX)
        self._generations = [0] * num_flows
        self._remaining = [self._draw_lifetime() for _ in range(num_flows)]
        self._keys = [self._new_key(slot) for slot in range(num_flows)]

    # -- flow identity -----------------------------------------------------

    def _draw_lifetime(self) -> float:
        if self.churn_packets is None:
            return float("inf")
        return max(1, int(self.rng.expovariate(1.0 / self.churn_packets)))

    def _new_key(self, slot: int) -> FiveTuple:
        """A fresh five-tuple for ``slot``; drawn from the seeded RNG so
        the identity stream is deterministic."""
        src = IPv4Address((10 << 24) | self.rng.getrandbits(24))
        dst = IPv4Address((172 << 24) | (16 << 16)
                          | (slot & 0xFFFF))
        sport = 1024 + self.rng.randrange(60000)
        return FiveTuple(src=src, dst=dst, proto=PROTO_UDP,
                         src_port=sport, dst_port=80)

    def _draw_slot(self) -> int:
        return bisect.bisect_left(self._cdf, self.rng.random())

    def draw_size(self) -> int:
        """One frame size from the Abilene trimodal mixture."""
        return self.rng.choices(self._sizes,
                                weights=self._size_weights)[0]

    # -- streams -----------------------------------------------------------

    def records(self, count: int) -> Iterator[PacketRecord]:
        """Yield ``count`` packet records in arrival order."""
        if count < 0:
            raise ValueError("count must be >= 0")
        now = 0.0
        mean_gap = 1.0 / self.rate_pps
        for seq in range(count):
            now += self.rng.expovariate(1.0 / mean_gap)
            slot = self._draw_slot()
            yield PacketRecord(seq=seq, time=now, key=self._keys[slot],
                               length=self.draw_size(), flow_slot=slot,
                               flow_generation=self._generations[slot])
            self._remaining[slot] -= 1
            if self._remaining[slot] <= 0:
                self._generations[slot] += 1
                self._keys[slot] = self._new_key(slot)
                self._remaining[slot] = self._draw_lifetime()

    # -- skew diagnostics --------------------------------------------------

    @staticmethod
    def empirical_shares(records: List[PacketRecord]) -> Dict[FiveTuple,
                                                              float]:
        """Per-flow packet share of a materialized record list."""
        counts: Dict[FiveTuple, int] = {}
        for record in records:
            counts[record.key] = counts.get(record.key, 0) + 1
        total = float(len(records)) or 1.0
        return {key: count / total for key, count in counts.items()}

    @staticmethod
    def top_share(records: List[PacketRecord]) -> float:
        """The busiest flow's packet share (the elephant's weight)."""
        shares = SkewedFlowWorkload.empirical_shares(records)
        return max(shares.values()) if shares else 0.0
