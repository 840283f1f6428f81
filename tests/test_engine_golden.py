"""Golden event-order test across the engine refactors.

``GOLDEN`` below is the (time, tag) execution order of a mixed
schedule / schedule_at / schedule_every / cancel workload recorded on
the original engine (dataclass events, one binary heap).  The current
engine must replay it exactly -- same times, same tie-break order, same
number of executed events -- whichever front files the homogeneous poll
chain: ``schedule`` (handle-returning) or ``schedule_timer``
(handle-free).

The heartbeat interval (0.25) and poll step (0.125) are binary-exact
floats, so the schedule_every grid fix cannot shift any time in this
workload: any divergence here is a real ordering regression.
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

#: Total events executed, including the cancelled heartbeat's final
#: no-op tick at 1.25 and excluding the two cancelled one-shots.
GOLDEN_EVENTS_RUN = 25

GOLDEN_FINAL_NOW = 2.0


def drive(sim, log, use_timer=False):
    """The recorded workload: periodic beats, a self-rescheduling poll
    chain, tie-breaking one-shots, pre-run and mid-run cancellations,
    and nested scheduling from inside a callback."""
    timer = (sim.schedule_timer if use_timer
             else (lambda d, cb: sim.schedule(d, cb)))

    def note(tag):
        log.append((sim.now, tag))

    beat = sim.schedule_every(0.25, lambda: note("beat"))
    n = [0]

    def poll():
        note("poll%d" % n[0])
        n[0] += 1
        if n[0] < 12:
            timer(0.125, poll)

    timer(0.0, poll)
    sim.schedule(0.5, lambda: note("a"))
    sim.schedule(0.5, lambda: note("b"))
    sim.schedule_at(0.5, lambda: note("c"))
    dead = sim.schedule(0.375, lambda: note("dead"))
    dead.cancel()
    victim = sim.schedule(0.75, lambda: note("victim"))

    def killer():
        note("killer")
        victim.cancel()

    sim.schedule(0.625, killer)

    def nest():
        note("nest")
        sim.schedule(0.125, lambda: note("nested-child"))
        timer(0.0625, lambda: note("timer-child"))

    sim.schedule(1.0, nest)

    def stop():
        note("stop-beat")
        beat.cancel()

    sim.schedule(1.0625, stop)
    return beat


class TestGoldenOrder:
    @pytest.mark.parametrize("use_timer", [False, True],
                             ids=["schedule", "schedule_timer"])
    def test_replays_golden(self, use_timer):
        sim = Simulator()
        log = []
        drive(sim, log, use_timer=use_timer)
        sim.run(until=2.0)
        assert log == GOLDEN
        assert sim.now == GOLDEN_FINAL_NOW
        assert sim.events_run == GOLDEN_EVENTS_RUN

    def test_step_by_step_matches_run(self):
        """step() must produce the same order as the batch run loops."""
        sim = Simulator()
        log = []
        drive(sim, log, use_timer=True)
        while sim.peek_time() is not None and sim.peek_time() <= 2.0:
            assert sim.step()
        assert log == GOLDEN
        assert sim.events_run == GOLDEN_EVENTS_RUN

    def test_epoch_sliced_run_matches_batch(self):
        """Repeated run(until=slice) calls -- the parallel runner's epoch
        protocol -- must replay the golden order exactly, including when
        slice boundaries land on event times (boundary events execute in
        the epoch that reaches them first, i.e. run(until=t) is
        inclusive)."""
        for epoch in (0.0625, 0.1, 0.125, 0.33, 1.0):
            sim = Simulator()
            log = []
            drive(sim, log, use_timer=True)
            t = 0.0
            while t < GOLDEN_FINAL_NOW:
                t = min(t + epoch, GOLDEN_FINAL_NOW)
                sim.run(until=t)
            assert log == GOLDEN, "epoch=%r diverged" % epoch
            assert sim.now == GOLDEN_FINAL_NOW
            assert sim.events_run == GOLDEN_EVENTS_RUN
