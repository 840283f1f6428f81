"""The poll-batched dataplane, pinned against the per-packet loops.

Until a734422 every timed run and element graph had a second "batch"
code path held in lockstep by live scalar==batch twins.  The twins are
gone with the switch; what replaces them is
``tests/data/timed_run_goldens.json``, **recorded at a734422 from the
per-packet loops** (``batch=False``, the default).  The surviving
``TimedForwardingRun.run`` (token rings, each poll charged as it runs) and
``TimedPipelineRun.run`` must reproduce every report scalar, per-core
cycle total, registry snapshot, and trace hop bit for bit -- do not
regenerate the file to make a refactor pass.

One exception, and how it was made: arrivals stopped being DES events
(each poll now delivers the arrivals due by its instant), which moves
only the engine's own ``sim_events`` timeline -- a count of events, not
a simulated quantity.  So the snapshot digests hash the snapshot
*without* that timeline, and every ``snapshot_sha256`` in the file was
recomputed that way at 6ed096f, the last commit that still filed one
event per arrival (``recorded_at_snapshot_sha256``), through
:func:`_snapshot_digest` below.  The observed ``TimedPipelineRun``
scenario of ``tests/test_simrun.py`` was recorded there too.  The
``scheduler_rounds`` core total moved by one ulp, 11735.5 to
11735.500000000002, when the scheduler began pricing work with the
affine ``Element.cost(packets, bytes)`` in place of a mean-size probe
packet.  No other golden value was touched.

The per-packet drop-accounting and scheduler-round checks that sat
beside the twins stay here.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.click import (
    CheckIPHeader,
    Discard,
    PollDevice,
    Scheduler,
    ToDevice,
)
from repro.click.element import Element
from repro.click.elements.standard import Paint
from repro.click.pipelines import PRESET_PIPELINES
from repro.click.simrun import TimedForwardingRun, TimedPipelineRun
from repro.costs import compile_loads
from repro.hw import nehalem_server
from repro.net import Packet
from repro.obs.metrics import MetricsRegistry, use_registry

PACKET_BYTES = 64
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "timed_run_goldens.json").read_text())


def _udp(dst="10.1.0.5", length=64, ttl=64):
    return Packet.udp("192.168.0.1", dst, length=length, ttl=ttl)


def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _report_scalars(report):
    return {"offered": report.offered_packets,
            "forwarded": report.forwarded_packets,
            "dropped": report.dropped_packets,
            "empty_polls": report.empty_polls,
            "total_polls": report.total_polls,
            "residual_backlog": report.residual_backlog,
            "achieved_bps": report.achieved_bps}


# -- TimedForwardingRun vs the per-packet loop -------------------------------

#: Table 1's (kp, kn) rows with the paper's loss-free rate, each offered
#: under, at, and over that rate ...
_TABLE1 = {"kp1_kn1": (1, 1, 1.46e9), "kp32_kn1": (32, 1, 4.97e9),
           "kp32_kn16": (32, 16, 9.77e9)}
_LOADS = {"under": 0.5, "near": 1.0, "over": 1.5}
FORWARDING_CASES = {
    "%s_%s" % (row, load): (kp, kn, rate * factor, 1e-3)
    for row, (kp, kn, rate) in _TABLE1.items()
    for load, factor in _LOADS.items()}
# ... plus horizons too short for more than 0, 1 or 2 arrivals (the
# short-horizon edge: 64 B at 1 Gbps is one packet per 512 ns).
FORWARDING_CASES.update({
    "offered_%d" % n: (32, 16, 1e9, (n + 0.5) * 512e-9) for n in (0, 1, 2)})
# The scenario the live scalar==batch twin used to run.
FORWARDING_CASES["legacy_twin"] = (32, 16, 5e9, 1e-3)


def _snapshot_digest(registry):
    """sha256 of the full-resolution snapshot minus the engine's
    ``sim_events`` timeline (how many events the simulator ran, not what
    it simulated).
    Trace packet ids become ranks: the id counter is process-global and
    counts every ``Packet`` built, which is not a simulated quantity
    (the per-packet loop built one per arrival, the token rings build
    one per *sampled* arrival)."""
    snap = json.loads(json.dumps(
        registry.snapshot(max_bins=1 << 30, max_traces=1 << 30)))
    del snap["timelines"]["sim_events"]
    paths = snap["traces"]["paths"]
    rank = {pid: i for i, pid in enumerate(
        sorted(p["packet_id"] for p in paths))}
    for p in paths:
        p["packet_id"] = rank[p["packet_id"]]
    return _sha256(snap)


def observe_forwarding(case, observed=True, **run_kwargs):
    kp, kn, offered_bps, duration_sec = FORWARDING_CASES[case]
    registry = (MetricsRegistry(enabled=True, trace_sample_every=16,
                                profile=True)
                if observed else MetricsRegistry(enabled=False))
    server = nehalem_server()
    run = TimedForwardingRun(server, packet_bytes=PACKET_BYTES, kp=kp,
                             kn=kn, metrics=registry, **run_kwargs)
    report = run.run(offered_bps, duration_sec=duration_sec, seed=3)
    state = {"report": _report_scalars(report),
             "core_cycles": [core.cycles_used for core in server.cores]}
    if observed:
        tracer = registry.tracer
        hops = [[[hop.site, hop.time, hop.note] for hop in trace.hops]
                for trace in tracer.traces]
        state.update(snapshot_sha256=_snapshot_digest(registry),
                     tracer=[tracer.seen, tracer.sampled],
                     first_trace_hops=hops[0] if hops else [],
                     hops_sha256=_sha256(hops))
    return state


# (legacy_twin runs observed in the named test below.)
@pytest.mark.parametrize("case",
                         sorted(set(FORWARDING_CASES) - {"legacy_twin"}))
def test_forwarding_run_matches_per_packet_golden(case):
    assert observe_forwarding(case) == GOLDEN["forwarding"][case]


@pytest.mark.parametrize("case", sorted(FORWARDING_CASES))
def test_forwarding_run_unobserved_matches_golden(case):
    golden = GOLDEN["forwarding"][case]
    state = observe_forwarding(case, observed=False)
    assert state == {"report": golden["report"],
                     "core_cycles": golden["core_cycles"]}


def test_forwarding_run_bit_identical_under_observability():
    """The old twin's scenario, now against the recorded per-packet run
    (and actually forwarding, under- and over-load alike)."""
    golden = GOLDEN["forwarding"]["legacy_twin"]
    assert observe_forwarding("legacy_twin") == golden
    assert golden["report"]["forwarded"] > 0
    assert golden["tracer"][1] > 0 and golden["first_trace_hops"]
    assert GOLDEN["forwarding"]["kp32_kn16_over"]["report"]["dropped"] > 0


@pytest.mark.parametrize("flag", [True, False])
def test_batch_keyword_is_accepted_and_ignored(flag):
    """``perfbench`` still passes ``batch=``; it selects nothing."""
    assert (observe_forwarding("kp32_kn16_near", batch=flag)
            == GOLDEN["forwarding"]["kp32_kn16_near"])
    assert "batch" not in vars(TimedForwardingRun(nehalem_server(),
                                                  batch=flag))


def test_forwarding_run_holds_nothing_per_poll():
    """Arrivals are never filed and each poll charges when it runs, so a
    saturated run holds nothing that grows with the horizon (a log
    replayed once at the end peaked at 9.3 MiB here, the per-packet loop
    at 2.6)."""
    run = TimedForwardingRun(nehalem_server(), packet_bytes=PACKET_BYTES,
                             kp=32, kn=16,
                             metrics=MetricsRegistry(enabled=False))
    tracemalloc.start()
    try:
        report = run.run(15.25e9, duration_sec=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.offered_packets > 29000
    assert peak < 3 * 2 ** 20


# -- TimedPipelineRun vs its recording ---------------------------------------

def observe_pipeline(preset):
    server = nehalem_server(num_ports=1, queues_per_port=2)
    run = TimedPipelineRun(server, preset, packet_bytes=PACKET_BYTES,
                           kp=8, kn=4)
    report = run.run(4e9, duration_sec=1e-3, seed=1)
    counters = {}
    for index, thread in enumerate(run.threads):
        for element in thread.owned_elements:
            counters["%d/%s" % (index, element.name)] = [
                element.packets_in, element.bytes_in,
                element.packets_out, element.packets_dropped]
    loads = compile_loads(run.graphs[0], packet_bytes=PACKET_BYTES)
    return {"report": _report_scalars(report),
            "element_counters": counters,
            "compile_loads": [loads.cpu_cycles, loads.mem_bytes,
                              loads.io_bytes, loads.pcie_bytes,
                              loads.qpi_bytes],
            "core_cycles": [core.cycles_used for core in server.cores]}


@pytest.mark.parametrize("preset", sorted(PRESET_PIPELINES))
def test_preset_pipeline_matches_per_packet_golden(preset):
    golden = GOLDEN["pipeline"][preset]
    assert observe_pipeline(preset) == golden
    assert golden["report"]["forwarded"] > 0


def test_observed_pipeline_matches_golden():
    """``tests/test_simrun.py``'s observed routing run (over its loss-free
    rate: drops and a full backlog), traces and profile on."""
    registry = MetricsRegistry(enabled=True, trace_sample_every=16,
                               profile=True)
    server = nehalem_server(num_ports=4, queues_per_port=2)
    run = TimedPipelineRun(server, "routing", kp=8, kn=4, metrics=registry)
    report = run.run(4e9, duration_sec=2e-4, seed=3)
    golden = GOLDEN["pipeline_observed"]
    assert {"report": _report_scalars(report),
            "core_cycles": [core.cycles_used for core in server.cores],
            "snapshot_sha256": _snapshot_digest(registry)} == golden
    assert golden["report"]["dropped"] > 0


# -- drop accounting ---------------------------------------------------------

class TestDropAccounting:
    def _bad(self):
        return Packet(length=64)  # no IP header -> invalid_header

    def test_scalar_drop_tags_cause(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            check = CheckIPHeader()
        check.connect_to(Discard())
        check.receive(self._bad())
        check.receive(_udp())
        assert check.packets_dropped == 1
        series = registry._metrics["element_drops"].series()
        assert len(series) == 1
        (key, count), = series.items()
        assert "invalid_header" in key and count == 1

    def test_burst_drops_count_per_packet(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            check = CheckIPHeader()
        check.connect_to(Discard())
        for packet in [self._bad(), _udp(), self._bad(), _udp(ttl=0)]:
            check.receive(packet)
        assert (check.packets_in, check.packets_dropped) == (4, 3)
        (key, count), = registry._metrics["element_drops"].series().items()
        assert "invalid_header" in key and count == 3


# -- scheduler rounds --------------------------------------------------------

class TestSchedulerRounds:
    def test_rounds_move_and_charge_the_burst(self):
        server = nehalem_server(num_ports=2, queues_per_port=8)
        scheduler = Scheduler()
        thread = scheduler.spawn(server.cores[0])
        poll = PollDevice(server.port(0), queue_id=0)
        to_dev = ToDevice(server.port(1), queue_id=0)
        poll.connect_to(to_dev)
        thread.add_poll_task(poll)
        thread.own(to_dev)
        for _ in range(10):
            server.port(0).rx_queues[0].push(_udp())
        moved = scheduler.run_rounds(2)
        assert [moved, poll.packets_in, poll.bytes_in, poll.empty_polls,
                len(to_dev.drain()), server.cores[0].cycles_used
                ] == GOLDEN["scheduler_rounds"]
        assert moved == 10


def test_paint_annotates_every_packet():
    class Sink(Element):
        n_outputs = 0

        def process(self, packet, port):
            self.drop(packet, "sink")

    paint = Paint(5)
    paint.connect_to(Sink())
    packets = [_udp(), _udp()]
    for packet in packets:
        paint.receive(packet)
    assert [p.annotations.get("paint") for p in packets] == [5, 5]
