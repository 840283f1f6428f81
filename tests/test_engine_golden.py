"""Golden event-order test across the engine refactors.

``GOLDEN`` below is the (time, tag) execution order of a mixed workload
recorded on the original engine (dataclass events, one binary heap): a
periodic heartbeat, a self-rescheduling poll chain, tie-breaking
one-shots, cancellations and nested scheduling.  The engine has since
dropped periodic tasks and cancellation, so :func:`drive` files the same
workload minus the heartbeat and the two cancelled one-shots, and the
tests check it against ``GOLDEN`` with the beats taken out.  Removing
filings cannot reorder the rest: every surviving event keeps its time
and its place among the others in filing order.  The current engine
must replay it exactly -- same times, same tie-break order, same number
of executed events -- whichever front files the homogeneous poll chain:
``schedule_timer`` or a :meth:`~Simulator.timer_filer` closure.

The poll step (0.125) is a binary-exact float, so any divergence here is
a real ordering regression.
"""

import pytest

from repro.simnet import Simulator

#: Captured on the original engine (see module docstring).
GOLDEN = [
    (0.0, "poll0"), (0.125, "poll1"), (0.25, "beat"), (0.25, "poll2"),
    (0.375, "poll3"), (0.5, "a"), (0.5, "b"), (0.5, "c"), (0.5, "beat"),
    (0.5, "poll4"), (0.625, "killer"), (0.625, "poll5"), (0.75, "beat"),
    (0.75, "poll6"), (0.875, "poll7"), (1.0, "nest"), (1.0, "beat"),
    (1.0, "poll8"), (1.0625, "stop-beat"), (1.0625, "timer-child"),
    (1.125, "nested-child"), (1.125, "poll9"), (1.25, "poll10"),
    (1.375, "poll11"),
]

#: Total events executed on the original engine, including the
#: cancelled heartbeat's final no-op tick at 1.25 and excluding the two
#: cancelled one-shots.
GOLDEN_EVENTS_RUN = 25

GOLDEN_FINAL_NOW = 2.0

#: What :func:`drive` must replay: ``GOLDEN`` without the heartbeat, and
#: its count without the four beats and the no-op tick.
EXPECTED = [event for event in GOLDEN if event[1] != "beat"]
EXPECTED_EVENTS_RUN = GOLDEN_EVENTS_RUN - 5


def drive(sim, log, use_filer=False):
    """The recorded workload minus its heartbeat and cancelled one-shots:
    a self-rescheduling poll chain, tie-breaking one-shots and nested
    scheduling from inside a callback."""
    if use_filer:
        file_at = sim.timer_filer()

        def timer(delay, callback):
            file_at(sim.now + delay, callback)
    else:
        timer = sim.schedule_timer

    def note(tag):
        log.append((sim.now, tag))

    n = [0]

    def poll():
        note("poll%d" % n[0])
        n[0] += 1
        if n[0] < 12:
            timer(0.125, poll)

    timer(0.0, poll)
    sim.schedule_timer(0.5, lambda: note("a"))
    sim.schedule_timer(0.5, lambda: note("b"))
    sim.schedule_timer_at(0.5, lambda: note("c"))
    sim.schedule_timer(0.625, lambda: note("killer"))

    def nest():
        note("nest")
        sim.schedule_timer(0.125, lambda: note("nested-child"))
        timer(0.0625, lambda: note("timer-child"))

    sim.schedule_timer(1.0, nest)
    sim.schedule_timer(1.0625, lambda: note("stop-beat"))


class TestGoldenOrder:
    @pytest.mark.parametrize("use_filer", [True, False],
                             ids=["timer_filer", "schedule_timer"])
    def test_replays_golden(self, use_filer):
        sim = Simulator()
        log = []
        drive(sim, log, use_filer=use_filer)
        sim.run(until=2.0)
        assert log == EXPECTED
        assert sim.now == GOLDEN_FINAL_NOW
        assert sim.events_run == EXPECTED_EVENTS_RUN

    def test_step_by_step_matches_run(self):
        """Running one event instant at a time (``run(until=)`` the next
        pending time) must produce the same order as one batch run."""
        sim = Simulator()
        log = []
        drive(sim, log)
        while sim.peek_time() is not None and sim.peek_time() <= 2.0:
            before = sim.events_run
            sim.run(until=sim.peek_time())
            assert sim.events_run > before
        assert log == EXPECTED
        assert sim.events_run == EXPECTED_EVENTS_RUN

    def test_epoch_sliced_run_matches_batch(self):
        """Repeated run(until=slice) calls -- the parallel runner's epoch
        protocol -- must replay the golden order exactly, including when
        slice boundaries land on event times (boundary events execute in
        the epoch that reaches them first, i.e. run(until=t) is
        inclusive)."""
        for epoch in (0.0625, 0.1, 0.125, 0.33, 1.0):
            sim = Simulator()
            log = []
            drive(sim, log)
            t = 0.0
            while t < GOLDEN_FINAL_NOW:
                t = min(t + epoch, GOLDEN_FINAL_NOW)
                sim.run(until=t)
            assert log == EXPECTED, "epoch=%r diverged" % epoch
            assert sim.now == GOLDEN_FINAL_NOW
            assert sim.events_run == EXPECTED_EVENTS_RUN
