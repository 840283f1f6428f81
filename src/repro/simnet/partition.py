"""Partitioned simulation islands with conservative lookahead.

A :class:`Partition` wraps a :class:`Simulator` (its own event queue and
RNG streams) plus the machinery to exchange packets with other
partitions: a :class:`CrossLink` keeps the shared queueing/serialization
semantics of :class:`Link` but, instead of scheduling a delivery event on
the (remote) peer, packs a timestamped fixed-width record into the
partition outbox.  At each epoch barrier the outbox leaves as one
:class:`Parcel` per destination partition, which a runner routes by its
header and the destination unpacks in :meth:`Partition.inject`.

Conservative lookahead: every cross delivery takes at least
``serialization + propagation > propagation`` seconds after its send is
committed, and then does nothing any other event can observe for
:attr:`Partition.receive_delay_sec` more.  So with ``W = min(propagation
over all cross-links) + receive delay`` a partition may run from ``m``
(the later of the earliest pending event anywhere and its own clock) to
``m + W``: a send committed in that window may *deliver* inside it --
the record then arrives behind the destination's clock and is applied
as of its timestamp (:meth:`Simulator.run_as_of`) -- but whatever the
delivery schedules lands strictly after the window.  ``W`` is exposed as
:attr:`Partition.lookahead_sec`.
"""

from __future__ import annotations

import pickle
from functools import partial
from struct import Struct
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from ..errors import ConfigurationError
from .engine import Simulator
from .links import Link


#: What leads every transit record: ``deliver_time, send_time, src_node,
#: seq, dst_node``.  Sorting unpacked records compares the first four,
#: which reproduces the single-heap engine's tie order (it breaks
#: equal-time ties by schedule order, and a cross delivery is scheduled
#: at its send time); ``(src_node, seq)`` is unique, so nothing after it
#: -- the packet's own fields -- is ever reached by the comparison.
RECORD_HEAD = "<ddhqh"
_HEAD_FIELDS = 5


class Parcel(NamedTuple):
    """Everything one partition sends another at one barrier.

    The header fields are all a runner needs (the epoch loop's earliest
    pending time, the transit telemetry); ``blob`` is the records packed
    end to end and ``tails`` the pickled ``{(src_node, seq): tail}`` of
    those that have one (``None`` when none does), written by the source
    partition and read only by the destination, so records cross the
    parent process as bytes.
    """

    earliest: float      # min deliver_time over the records
    count: int
    frame_bytes: int     # frame lengths of the carried packets, summed
    blob: bytes
    tails: Optional[bytes]


class CrossLink(Link):
    """A link whose receive side lives on another partition.

    Send-side behavior (bounded FIFO, serialization at the link rate,
    stalls, flush-on-crash accounting) is inherited unchanged from
    :class:`Link`; only delivery differs -- the serialized packet becomes
    a transit record in the owning partition's outbox.
    """

    def __init__(self, partition: "Partition", name: str, rate_bps: float,
                 src_node: int, dst_node: int,
                 propagation_sec: float = 1e-6,
                 queue_packets: int = 1024):
        if propagation_sec <= 0:
            raise ConfigurationError(
                "cross-link propagation must be positive: it is the "
                "conservative lookahead window")
        super().__init__(partition.sim, name, rate_bps,
                         deliver=self._no_local_deliver,
                         propagation_sec=propagation_sec,
                         queue_packets=queue_packets)
        self.partition = partition
        self.src_node = src_node
        self.dst_node = dst_node

    @staticmethod
    def _no_local_deliver(packet) -> None:
        raise RuntimeError("CrossLink delivers via transit records, "
                           "never locally")

    def _schedule_delivery(self, packet, tx_time: float) -> None:
        now = self.sim.now
        # Associate exactly as Link._schedule_delivery's
        # ``schedule_timer(tx_time + propagation)`` does (``now + (tx +
        # prop)``): float addition is not associative, and the delivery
        # timestamp must be bit-identical to the single-sim engine's.
        self.partition._emit(self.src_node, self.dst_node, now,
                             now + (tx_time + self.propagation_sec), packet)


class Partition:
    """One shard of a partitioned simulation.

    Owns a private :class:`Simulator`, an outbox of transit records, and
    the table of local delivery callbacks for records addressed to its
    nodes.  The runner alternates :meth:`inject` / :meth:`advance` under
    a barrier protocol; ``assignment`` (node id -> partition id) says
    which parcel an outgoing record joins.
    """

    #: Seconds a delivered record does nothing observable at its
    #: destination (a subclass that knows its receivers sets it); the
    #: part of :attr:`lookahead_sec` that makes deliveries arrive late.
    receive_delay_sec = 0.0
    #: ``struct`` format of the fixed-width row ``packet.to_wire`` packs
    #: behind :data:`RECORD_HEAD` (a subclass that knows its packets sets
    #: it; this package never imports a packet type).
    packet_format = ""

    def __init__(self, partition_id: int, *, assignment: Sequence[int],
                 metrics=None):
        self.partition_id = partition_id
        self.sim = Simulator(metrics=metrics)
        self.assignment = assignment
        self._record = Struct(RECORD_HEAD + self.packet_format)
        #: Destination partition -> ``[packed records, earliest deliver
        #: time, frame bytes, tails by (src_node, seq)]`` bound for it.
        self.outbox: Dict[int, list] = {}
        self._seq = 0
        self._destinations: Dict[int, Callable[[tuple], None]] = {}
        self._cross_links: List[CrossLink] = []

    # -- topology wiring ---------------------------------------------------

    def cross_link(self, name: str, rate_bps: float, src_node: int,
                   dst_node: int, propagation_sec: float = 1e-6,
                   queue_packets: int = 1024) -> CrossLink:
        """Create (and track) a boundary link from a local node."""
        link = CrossLink(self, name, rate_bps, src_node, dst_node,
                         propagation_sec=propagation_sec,
                         queue_packets=queue_packets)
        self._cross_links.append(link)
        return link

    def register_destination(self, node_id: int,
                             callback: Callable[[tuple], None]) -> None:
        """Route incoming records for ``node_id`` to ``callback(wire)``
        (``wire``: the record's unpacked packet fields and its tail)."""
        self._destinations[node_id] = callback

    @property
    def lookahead_sec(self) -> Optional[float]:
        """Minimum propagation over this partition's cross-links, plus
        the receive delay.

        ``None`` when the partition has no boundary (a single-partition
        run may advance straight to the horizon).
        """
        if not self._cross_links:
            return None
        return (min(link.propagation_sec for link in self._cross_links)
                + self.receive_delay_sec)

    # -- record exchange ---------------------------------------------------

    def _emit(self, src_node: int, dst_node: int, send_time: float,
              deliver_time: float, packet) -> None:
        destination = self.assignment[dst_node]
        box = self.outbox.get(destination)
        if box is None:
            box = self.outbox[destination] = [
                bytearray(), deliver_time, 0, {}]
        elif deliver_time < box[1]:
            box[1] = deliver_time
        row, tail = packet.to_wire(self._record.pack, deliver_time,
                                   send_time, src_node, self._seq, dst_node)
        box[0] += row
        box[2] += packet.length
        if tail is not None:
            box[3][src_node, self._seq] = tail
        self._seq += 1

    def inject(self, parcels) -> None:
        """Take delivery of incoming parcels.

        A record at or after the clock becomes a local delivery event; one
        already behind it (possible once :attr:`receive_delay_sec` widens
        the window) is applied as of its ``deliver_time``, which raises
        if its consequences would land before the clock.  Records are
        sorted by their full tie-break key first, so the order they are
        applied or scheduled in (and hence local event seq order among
        equal-time deliveries) is independent of how the runner batched
        them.  The destination callback gets ``(packet fields, tail)``.
        """
        sim = self.sim
        rows, tails = [], {}
        for parcel in parcels:
            rows.extend(self._record.iter_unpack(parcel.blob))
            if parcel.tails is not None:
                tails.update(pickle.loads(parcel.tails))
        rows.sort()
        for row in rows:
            deliver_time, dst_node = row[0], row[4]
            callback = self._destinations.get(dst_node)
            if callback is None:
                raise ConfigurationError(
                    "partition %d has no destination for node %d"
                    % (self.partition_id, dst_node))
            deliver = partial(callback, (
                row[_HEAD_FIELDS:], tails.get(row[2:4])))  # (src, seq)
            if deliver_time < sim.now:
                sim.run_as_of(deliver_time, deliver)
            else:
                sim.schedule_timer_at(deliver_time, deliver)

    # -- time advancement --------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Earliest pending local event time, or ``None`` when drained."""
        return self.sim.peek_time()

    def advance(self, until: float) -> Dict[int, Parcel]:
        """Run local events up to ``until`` and return (and clear) the
        outbox, packed as one parcel per destination partition."""
        self.sim.run(until=until)
        outbox, self.outbox = self.outbox, {}
        size = self._record.size
        return {
            destination: Parcel(
                earliest, len(blob) // size, frame_bytes, bytes(blob),
                pickle.dumps(tails) if tails else None)
            for destination, (blob, earliest, frame_bytes, tails)
            in outbox.items()}
