"""Task scheduling: threads statically pinned to cores.

RouteBricks keeps Click's programming model but enforces a specific
element-to-core allocation (Sec. 8): polling and sending elements are
bound to queues, queues to threads, threads to cores.  The scheduler here

* owns that static assignment,
* validates the two rules -- (1) each NIC queue is accessed by one core,
  (2) each packet is handled by one core (no cross-thread PacketQueue
  handoffs) -- reporting violations rather than silently degrading, and
* runs polling rounds, charging each element's cycle cost to the core its
  thread is pinned on (cycles feed the utilization analysis of Sec. 5.3).
"""

from __future__ import annotations

from typing import Dict, List

from .. import calibration as cal
from ..errors import SchedulingError
from ..hw.components import Core
from .element import Element
from .elements.device import PollDevice, ToDevice
from .elements.standard import PacketQueue


class CoreThread:
    """A kernel thread pinned to one core, running tasks round-robin."""

    def __init__(self, thread_id: int, core: Core):
        self.thread_id = thread_id
        self.core = core
        self.poll_tasks: List[PollDevice] = []
        self.pull_tasks: List[tuple] = []  # (PacketQueue, downstream Element)
        self.owned_elements: List[Element] = []
        # Each owned element's (packets_in, bytes_in) at the last booking.
        self._booked: List[tuple] = []

    def add_poll_task(self, device: PollDevice) -> None:
        """Schedule a PollDevice on this thread and claim its queue."""
        device.queue.note_access(self.core.core_id)
        self.poll_tasks.append(device)
        self.own(device)

    def add_pull_task(self, queue: PacketQueue, downstream: Element) -> None:
        """Pull packets from a Click queue into ``downstream`` (pipelining)."""
        self.pull_tasks.append((queue, downstream))
        self.own(downstream)

    def own(self, element: Element) -> None:
        """Statically assign ``element``'s work to this thread's core."""
        if element not in self.owned_elements:
            self.owned_elements.append(element)
            self._booked.append((element.packets_in, element.bytes_in))
            if isinstance(element, ToDevice):
                element.queue.note_access(self.core.core_id)

    def run_once(self, kp: int = cal.DEFAULT_KP) -> int:
        """One scheduling round: every task runs once.  Returns packets moved."""
        moved = 0
        for device in self.poll_tasks:
            moved += device.run_task()
        for queue, downstream in self.pull_tasks:
            for packet in queue.fifo.poll_batch(kp):
                downstream.receive(packet)
                moved += 1
        return moved

    def book_work(self) -> List[tuple]:
        """The work each owned element did since the last booking, as
        ``(element, ResourceVector)`` pairs in ownership order; the CPU
        entries are what this thread's core is charged."""
        work = []
        booked = self._booked
        for index, element in enumerate(self.owned_elements):
            packets0, bytes0 = booked[index]
            packets = element.packets_in
            if packets > packets0:
                nbytes = element.bytes_in
                work.append((element,
                             element.cost(packets - packets0,
                                          nbytes - bytes0)))
                booked[index] = (packets, nbytes)
        return work


class Scheduler:
    """Static thread-to-core scheduler with rule validation."""

    def __init__(self):
        self.threads: List[CoreThread] = []
        self._cores_used: Dict[int, CoreThread] = {}

    def spawn(self, core: Core) -> CoreThread:
        """Create a thread pinned to ``core`` (one thread per core)."""
        if core.core_id in self._cores_used:
            raise SchedulingError("core %d already has a thread" % core.core_id)
        thread = CoreThread(len(self.threads), core)
        self.threads.append(thread)
        self._cores_used[core.core_id] = thread
        return thread

    def validate_rules(self) -> List[str]:
        """Check the two RouteBricks rules; returns violation descriptions.

        Violations are not errors -- the paper deliberately measures rule-
        violating configurations (Fig. 6) -- but callers can assert on an
        empty list for production configurations.
        """
        violations = []
        # Rule 1: one core per NIC queue.
        seen_queues = {}
        for thread in self.threads:
            for element in thread.owned_elements:
                queue = getattr(element, "queue", None)
                if queue is None:
                    continue
                key = id(queue)
                if key in seen_queues and seen_queues[key] is not thread:
                    violations.append(
                        "queue of %s accessed by threads %d and %d"
                        % (element.name, seen_queues[key].thread_id,
                           thread.thread_id))
                seen_queues.setdefault(key, thread)
        for thread in self.threads:
            for element in thread.owned_elements:
                queue = getattr(element, "queue", None)
                if queue is not None and queue.is_shared():
                    violations.append("%s queue is touched by cores %s"
                                      % (element.name,
                                         sorted(queue.accessing_cores)))
        # Rule 2: one core per packet -- a pull task whose upstream queue
        # is fed by a different thread is a pipeline handoff.
        producers = {}
        for thread in self.threads:
            for element in thread.owned_elements:
                for index in range(element.n_outputs):
                    peer = element.output(index).peer
                    if isinstance(peer, PacketQueue):
                        producers.setdefault(id(peer), set()).add(thread)
        for thread in self.threads:
            for queue, _ in thread.pull_tasks:
                feeders = producers.get(id(queue), set())
                if any(feeder is not thread for feeder in feeders):
                    violations.append(
                        "packets handed off across cores via %s" % queue.name)
        return violations

    def run_rounds(self, rounds: int, kp: int = cal.DEFAULT_KP) -> int:
        """Run ``rounds`` scheduling rounds on every thread.

        Then each thread charges its core once, for the work its owned
        elements booked (:meth:`CoreThread.book_work`), so
        ``Core.cycles_used`` reflects Sec. 5.3's accounting.  The device
        elements' terms already include the irreducible per-packet base
        and the amortized batching shares.
        """
        if rounds < 1:
            raise SchedulingError("rounds must be >= 1")
        total = 0
        for _ in range(rounds):
            for thread in self.threads:
                total += thread.run_once(kp)
        for thread in self.threads:
            thread.core.charge(sum(vec.cpu_cycles
                                   for _, vec in thread.book_work()))
        return total
