"""The fault-schedule DSL: timed failure/recovery events.

RouteBricks' VLB interconnect claims graceful degradation with *no
centralized scheduler* (Sec. 3.2): when servers or internal links die,
the survivors route around them on purely local information.  A
:class:`FaultSchedule` scripts the failures that claim is tested against:

* **server crash / recover** -- the node goes dark (external port
  included) and later reboots with fresh state;
* **internal link down / up** -- one directed cable is cut / respliced;
  :meth:`FaultSchedule.flap_link` scripts a flapping cable;
* **NIC-queue stall / resume** -- a node's transmit queues wedge for a
  while (packets queue and overflow but nothing is unplugged).

Schedules are built programmatically::

    schedule = (FaultSchedule()
                .crash_node(at=0.5e-3, node=2)
                .recover_node(at=2.0e-3, node=2)
                .fail_link(at=1.0e-3, src=0, dst=1))

or loaded from a plain dict/JSON spec (``FaultSchedule.from_dict``), and
consumed by :class:`repro.faults.FaultInjector` /
:meth:`repro.core.RouteBricksRouter.simulate`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError

#: Event kinds a schedule may contain.
NODE_DOWN = "node_down"
NODE_UP = "node_up"
LINK_DOWN = "link_down"
LINK_UP = "link_up"
NIC_STALL = "nic_stall"

KINDS = (NODE_DOWN, NODE_UP, LINK_DOWN, LINK_UP, NIC_STALL)
_NODE_KINDS = (NODE_DOWN, NODE_UP, NIC_STALL)
_LINK_KINDS = (LINK_DOWN, LINK_UP)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault event.

    ``target`` is a node id for node events and a directed ``(src, dst)``
    pair for link events.  ``duration_sec`` applies only to ``nic_stall``.
    """

    time: float
    kind: str
    target: Union[int, Tuple[int, int]]
    duration_sec: Optional[float] = None

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise ConfigurationError("fault time must be finite and "
                                     "non-negative, got %r" % (self.time,))
        if self.kind not in KINDS:
            raise ConfigurationError("unknown fault kind %r (have %s)"
                                     % (self.kind, list(KINDS)))
        if self.kind in _NODE_KINDS:
            if not isinstance(self.target, int):
                raise ConfigurationError("%s needs a node id target"
                                         % self.kind)
        else:
            if (not isinstance(self.target, tuple) or len(self.target) != 2
                    or not all(isinstance(x, int) for x in self.target)):
                raise ConfigurationError("%s needs a (src, dst) target"
                                         % self.kind)
            if self.target[0] == self.target[1]:
                raise ConfigurationError("a link cannot loop back")
        if self.kind == NIC_STALL:
            if self.duration_sec is None \
                    or not 0 < self.duration_sec < math.inf:
                raise ConfigurationError("nic_stall needs a positive, "
                                         "finite duration_sec")
        elif self.duration_sec is not None:
            raise ConfigurationError("duration_sec only applies to "
                                     "nic_stall")

    def to_dict(self) -> dict:
        data = {"time": self.time, "kind": self.kind}
        if self.kind in _NODE_KINDS:
            data["node"] = self.target
        else:
            data["src"], data["dst"] = self.target
        if self.duration_sec is not None:
            data["duration_sec"] = self.duration_sec
        return data

    @classmethod
    def from_dict(cls, spec: dict) -> "FaultEvent":
        try:
            kind = spec["kind"]
            time = float(spec["time"])
        except KeyError as missing:
            raise ConfigurationError("fault event needs %s" % missing)
        if kind in _NODE_KINDS:
            if "node" not in spec:
                raise ConfigurationError("%s event needs 'node'" % kind)
            target: Union[int, Tuple[int, int]] = int(spec["node"])
        elif kind in _LINK_KINDS:
            if "src" not in spec or "dst" not in spec:
                raise ConfigurationError("%s event needs 'src' and 'dst'"
                                         % kind)
            target = (int(spec["src"]), int(spec["dst"]))
        else:
            raise ConfigurationError("unknown fault kind %r" % kind)
        duration = spec.get("duration_sec")
        return cls(time=time, kind=kind, target=target,
                   duration_sec=None if duration is None
                   else float(duration))


class FaultSchedule:
    """An ordered script of :class:`FaultEvent` (builder-style API)."""

    def __init__(self, events: Optional[List[FaultEvent]] = None):
        self._events: List[FaultEvent] = list(events or [])

    # -- builder ------------------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultSchedule":
        self._events.append(event)
        return self

    def crash_node(self, at: float, node: int) -> "FaultSchedule":
        """Server ``node`` dies at time ``at`` (port dark, state lost)."""
        return self.add(FaultEvent(time=at, kind=NODE_DOWN, target=node))

    def recover_node(self, at: float, node: int) -> "FaultSchedule":
        """Server ``node`` finishes rebooting at time ``at``."""
        return self.add(FaultEvent(time=at, kind=NODE_UP, target=node))

    def fail_link(self, at: float, src: int, dst: int) -> "FaultSchedule":
        """The directed internal cable src -> dst is cut at ``at``."""
        return self.add(FaultEvent(time=at, kind=LINK_DOWN,
                                   target=(src, dst)))

    def restore_link(self, at: float, src: int, dst: int) -> "FaultSchedule":
        """The cable comes back at ``at``."""
        return self.add(FaultEvent(time=at, kind=LINK_UP,
                                   target=(src, dst)))

    def stall_nic(self, at: float, node: int,
                  duration_sec: float) -> "FaultSchedule":
        """Node ``node``'s transmit queues wedge for ``duration_sec``."""
        return self.add(FaultEvent(time=at, kind=NIC_STALL, target=node,
                                   duration_sec=duration_sec))

    def flap_link(self, src: int, dst: int, start: float,
                  period_sec: float, count: int,
                  duty: float = 0.5) -> "FaultSchedule":
        """Script a flapping cable: ``count`` down/up cycles from
        ``start``, down for ``duty`` of each ``period_sec``."""
        if period_sec <= 0 or not 0 < duty < 1:
            raise ConfigurationError("need period > 0 and 0 < duty < 1")
        if count < 1:
            raise ConfigurationError("need >= 1 flap")
        for i in range(count):
            t0 = start + i * period_sec
            self.fail_link(t0, src, dst)
            self.restore_link(t0 + duty * period_sec, src, dst)
        return self

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self.events())

    def events(self) -> List[FaultEvent]:
        """Events in time order (ties keep script order)."""
        return sorted(self._events, key=lambda e: e.time)

    def max_node_id(self) -> int:
        """Largest node id the schedule touches (-1 if none)."""
        largest = -1
        for event in self._events:
            ids = (event.target if isinstance(event.target, tuple)
                   else (event.target,))
            largest = max(largest, *ids)
        return largest

    def validate(self, num_nodes: int) -> None:
        """Reject events that reference nodes outside [0, num_nodes)."""
        for event in self._events:
            ids = (event.target if isinstance(event.target, tuple)
                   else (event.target,))
            for node in ids:
                if not 0 <= node < num_nodes:
                    raise ConfigurationError(
                        "fault event %s targets node %d, cluster has %d"
                        % (event.kind, node, num_nodes))

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, list]:
        return {"events": [event.to_dict() for event in self.events()]}

    @classmethod
    def from_dict(cls, spec: Union[dict, list]) -> "FaultSchedule":
        """Build from ``{"events": [...]}`` or a bare event list."""
        if isinstance(spec, dict):
            spec = spec.get("events", [])
        return cls([FaultEvent.from_dict(item) for item in spec])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))
