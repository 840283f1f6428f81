"""Pinned goldens for the single-heap-only features of the cluster builder.

``tests/test_parallel.py`` holds workers=1 and workers=N in step, but
resequencing, ``until=None`` replays, manager convergence, FIB-routed
forwarding and churn only ever run on one partition, so no twin covers
them.  The values below were recorded at the commit *before*
``RouteBricksRouter.simulate`` became the one-partition case of
``ClusterPartition``; they pin every report scalar and the normalized
registry snapshot of five RB4 scenarios so that move (and later ones)
cannot shift them.
"""

import hashlib
import json

import pytest

from repro.control import run_churn
from repro.control.runner import announce_rib, build_cluster
from repro.core import RouteBricksRouter
from repro.core.partition import PartitionFragment, merge_fragments
from repro.errors import SimulationError
from repro.faults import FaultSchedule
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.workloads import FlowGenerator, WorkloadSpec
from repro.workloads.matrices import uniform_matrix

NODES = 4
UNTIL = 6e-4


def _registry():
    return MetricsRegistry(enabled=True, trace_sample_every=16, profile=True)


def _snapshot_digest(registry):
    """sha256 over a snapshot, trace packet ids rebased to the smallest
    sampled id (the global packet-id counter depends on what ran
    earlier in the process).  Nothing else is dropped: a single-heap
    snapshot holds simulated quantities only."""
    snap = json.loads(json.dumps(registry.snapshot()))
    paths = snap["traces"]["paths"]
    if paths:
        base = min(p["packet_id"] for p in paths)
        for p in paths:
            p["packet_id"] -= base
    return hashlib.sha256(
        json.dumps(snap, sort_keys=True).encode()).hexdigest()


def _scalars(report):
    latency = report.latency_usec
    return {
        "offered": report.offered_packets,
        "delivered": report.delivered_packets,
        "bytes": report.delivered_bytes,
        "dropped": report.dropped_packets,
        "direct": report.direct_packets,
        "indirect": report.indirect_packets,
        "reordered_fraction": report.reordered_fraction,
        "flowlet_switches": report.flowlet_switches,
        "flowlet_spills": report.flowlet_spills,
        "resequencer_held": report.resequencer_held,
        "resequencer_timeouts": report.resequencer_timeouts,
        "fib_miss": report.fib_miss_packets,
        "fault_events": report.fault_events,
        "fault_flushed": report.fault_flushed_packets,
        "convergence": [
            (c.event, c.node, c.failed_at, c.detected_at, c.converged_at,
             c.live_nodes) for c in report.convergence],
        "duration": report.duration_sec,
        "events_run": report.events_run,
        "node_stats": [tuple(sorted(row.items()))
                       for row in report.node_stats],
        "latency_count": len(latency),
        "latency_mean": float(latency.mean()),
        "latency_p50": float(latency.percentile(50)),
        "latency_p99": float(latency.percentile(99)),
    }


def _plain(registry):
    router = RouteBricksRouter(num_nodes=NODES, seed=11)
    workload = WorkloadSpec.fixed(64).with_matrix(
        uniform_matrix(NODES, router.port_rate_bps * 0.3))
    return router.simulate(workload, until=UNTIL, metrics=registry), {}


def _reorder_prone_router():
    return RouteBricksRouter(use_flowlets=False, resequence=True, seed=3)


def _bursty_trace():
    return FlowGenerator(num_flows=50, packets_per_flow=200,
                         packet_bytes=740, burst_size=8, burst_gap_sec=1e-4,
                         intra_burst_gap_sec=4e-7, seed=1).timed_packets()


def _resequenced_replay(registry):
    """``replay_pair`` runs open-ended (``until=None``) and charges the
    active registry."""
    with use_registry(registry):
        return _reorder_prone_router().replay_pair(_bursty_trace()), {}


def _resequenced_observed(registry):
    events = ((time, 0, 1, packet) for time, packet in _bursty_trace())
    return _reorder_prone_router().simulate(events, until=9e-3,
                                            metrics=registry), {}


def _faults_with_manager(registry):
    router, manager = build_cluster(NODES, seed=7)
    announce_rib(manager, 64, seed=8)
    manager.push_fibs()
    workload = WorkloadSpec.fixed(64).with_matrix(
        uniform_matrix(NODES, router.port_rate_bps * 0.3))
    schedule = (FaultSchedule()
                .crash_node(at=0.15e-3, node=1)
                .fail_link(at=0.2e-3, src=0, dst=2)
                .recover_node(at=0.35e-3, node=1)
                .restore_link(at=0.4e-3, src=0, dst=2))
    report = router.simulate(workload, until=UNTIL, faults=schedule,
                             manager=manager, detection_latency_sec=50e-6,
                             fib_push_latency_sec=20e-6, metrics=registry)
    return report, {"rib_version": manager.rib_version,
                    "live_nodes": manager.live_nodes()}


def _fib_routed_churn(registry):
    churn = run_churn(NODES, routes=400, update_rate_per_sec=200e3,
                      duration_sec=1e-3, tail_sec=0.3e-3, seed=5,
                      verify_probes=64, metrics=registry)
    extra = {
        "updates_applied": churn.updates_applied,
        "fib_ops": churn.fib_ops,
        "rebuilds": churn.rebuilds,
        "sync_ticks": churn.sync_ticks,
        "mean_convergence_sec": churn.mean_convergence_sec,
        "final_convergence_sec": churn.final_convergence_sec,
        "unconverged": churn.unconverged,
        "consistent": churn.consistent,
    }
    return churn.forwarding, extra


SCENARIOS = {
    "plain": _plain,
    "resequenced_replay": _resequenced_replay,
    "resequenced_observed": _resequenced_observed,
    "faults_with_manager": _faults_with_manager,
    "fib_routed_churn": _fib_routed_churn,
}

#: Pinned with observation off (recorded when an observed open-ended
#: resequencing run was refused); ``_resequenced_observed`` pins the
#: instrumented resequencer.
UNOBSERVED_GOLDENS = {"resequenced_replay"}


def observe(name, registry=None):
    if registry is None:
        registry = (MetricsRegistry(enabled=False)
                    if name in UNOBSERVED_GOLDENS else _registry())
    report, extra = SCENARIOS[name](registry)
    return report, {"scalars": _scalars(report), "extra": extra,
                    "snapshot_sha256": _snapshot_digest(registry)}


# Recorded at 276b315 (the parent of the builder collapse) with
# PYTHONPATH=<parent>/src; do not regenerate to make a refactor pass.
GOLDEN = {
    'plain': {
        'extra': {},
        'scalars': {
            'bytes': 808064,
            'convergence': [],
            'delivered': 12626,
            'direct': 12626,
            'dropped': 0,
            'duration': 0.0006,
            'events_run': 66057,
            'fault_events': 0,
            'fault_flushed': 0,
            'fib_miss': 0,
            'flowlet_spills': 0,
            'flowlet_switches': 0,
            'indirect': 0,
            'latency_count': 12626,
            'latency_mean': 48.653958713393926,
            'latency_p50': 48.651199999999996,
            'latency_p99': 48.69913537515811,
            'node_stats': [
                (('egress', 3076), ('ingress', 3441), ('intermediate', 0), ('node', 0)),
                (('egress', 3164), ('ingress', 3472), ('intermediate', 0), ('node', 1)),
                (('egress', 3222), ('ingress', 3475), ('intermediate', 0), ('node', 2)),
                (('egress', 3164), ('ingress', 3371), ('intermediate', 0), ('node', 3)),
            ],
            'offered': 13759,
            'reordered_fraction': 0.0,
            'resequencer_held': 0,
            'resequencer_timeouts': 0,
        },
        'snapshot_sha256': 'c2f681ccab94da25686f02fb579bd9a78e9896e1fa7c265bfa599ff0906bbdb0',
    },
    'resequenced_replay': {
        'extra': {},
        'scalars': {
            'bytes': 7400000,
            'convergence': [],
            'delivered': 10000,
            'direct': 9428,
            'dropped': 0,
            'duration': 0.008000000000000004,
            'events_run': 51732,
            'fault_events': 0,
            'fault_flushed': 0,
            'fib_miss': 0,
            'flowlet_spills': 0,
            'flowlet_switches': 0,
            'indirect': 572,
            'latency_count': 10000,
            'latency_mean': 68.36404257770803,
            'latency_p50': 65.4904111671746,
            'latency_p99': 113.60578442131536,
            'node_stats': [
                (('egress', 0), ('ingress', 10000), ('intermediate', 0), ('node', 0)),
                (('egress', 10000), ('ingress', 0), ('intermediate', 0), ('node', 1)),
                (('egress', 0), ('ingress', 0), ('intermediate', 275), ('node', 2)),
                (('egress', 0), ('ingress', 0), ('intermediate', 297), ('node', 3)),
            ],
            'offered': 10000,
            'reordered_fraction': 0.0,
            'resequencer_held': 233,
            'resequencer_timeouts': 0,
        },
        'snapshot_sha256': 'a098579edb9506817e9327728ee0c55ab4eb2e372a056b38a5d54c2b408c6404',
    },
    'resequenced_observed': {
        'extra': {},
        'scalars': {
            'bytes': 7400000,
            'convergence': [],
            'delivered': 10000,
            'direct': 9428,
            'dropped': 0,
            'duration': 0.009,
            # Re-recorded once, with the snapshot digest below, when the
            # observer left the event queue: 51783 pinned a run where
            # observing added 51 events to ``resequenced_replay``'s 51732
            # -- 50 ticks to the horizon plus an expiry the tick chain
            # kept armed.  Now it adds the 45 ticks up to the drain; see
            # test_observation_adds_only_its_tick_events.
            'events_run': 51777,
            'fault_events': 0,
            'fault_flushed': 0,
            'fib_miss': 0,
            'flowlet_spills': 0,
            'flowlet_switches': 0,
            'indirect': 572,
            'latency_count': 10000,
            'latency_mean': 68.36404257770803,
            'latency_p50': 65.4904111671746,
            'latency_p99': 113.60578442131536,
            'node_stats': [
                (('egress', 0), ('ingress', 10000), ('intermediate', 0), ('node', 0)),
                (('egress', 10000), ('ingress', 0), ('intermediate', 0), ('node', 1)),
                (('egress', 0), ('ingress', 0), ('intermediate', 275), ('node', 2)),
                (('egress', 0), ('ingress', 0), ('intermediate', 297), ('node', 3)),
            ],
            'offered': 10000,
            'reordered_fraction': 0.0,
            'resequencer_held': 233,
            'resequencer_timeouts': 0,
        },
        'snapshot_sha256': 'fb3f1538f835501d051b2e5442458d1f6b84e03861ac9022d00232b04f7310d2',
    },
    'faults_with_manager': {
        'extra': {
            'live_nodes': [0, 1, 2, 3],
            'rib_version': 66,
        },
        'scalars': {
            'bytes': 612928,
            'convergence': [
                ('node_down', 1, 0.00015, 0.00019999999999999998, 0.00021999999999999998, 3),
                ('node_up', 1, 0.00035, 0.0004, 0.00042, 4),
            ],
            'delivered': 9577,
            'direct': 7946,
            'dropped': 2895,
            'duration': 0.0006,
            'events_run': 65174,
            'fault_events': 4,
            'fault_flushed': 0,
            'fib_miss': 0,
            'flowlet_spills': 16,
            'flowlet_switches': 0,
            'indirect': 1631,
            'latency_count': 9577,
            'latency_mean': 52.03757252027333,
            'latency_p50': 48.651199999999996,
            'latency_p99': 68.55745738712238,
            'node_stats': [
                (('egress', 2625), ('ingress', 3441), ('intermediate', 1299), ('node', 0)),
                (('egress', 1585), ('ingress', 2239), ('intermediate', 0), ('node', 1)),
                (('egress', 2689), ('ingress', 3475), ('intermediate', 166), ('node', 2)),
                (('egress', 2678), ('ingress', 3371), ('intermediate', 1429), ('node', 3)),
            ],
            'offered': 13759,
            'reordered_fraction': 0.0,
            'resequencer_held': 0,
            'resequencer_timeouts': 0,
        },
        'snapshot_sha256': '454603e7d069a1f8828d54395c0b1766c28a415604d0d874ed8be96a7076885c',
    },
    'fib_routed_churn': {
        'extra': {
            'consistent': True,
            'fib_ops': 788,
            'final_convergence_sec': 5.5856048341079365e-05,
            'mean_convergence_sec': 5.5748503623565454e-05,
            'rebuilds': 0,
            'sync_ticks': 10,
            'unconverged': 0,
            'updates_applied': 197,
        },
        'scalars': {
            'bytes': 866816,
            'convergence': [],
            'delivered': 3386,
            'direct': 3386,
            'dropped': 520,
            'duration': 0.0013,
            'events_run': 15235,
            'fault_events': 0,
            'fault_flushed': 0,
            'fib_miss': 520,
            'flowlet_spills': 0,
            'flowlet_switches': 0,
            'indirect': 0,
            'latency_count': 3386,
            'latency_mean': 48.5126733608991,
            'latency_p50': 48.80480000000001,
            'latency_p99': 48.804800000000014,
            'node_stats': [
                (('egress', 894), ('ingress', 857), ('intermediate', 0), ('node', 0)),
                (('egress', 761), ('ingress', 844), ('intermediate', 0), ('node', 1)),
                (('egress', 866), ('ingress', 846), ('intermediate', 0), ('node', 2)),
                (('egress', 865), ('ingress', 839), ('intermediate', 0), ('node', 3)),
            ],
            'offered': 3906,
            'reordered_fraction': 0.0,
            'resequencer_held': 0,
            'resequencer_timeouts': 0,
        },
        'snapshot_sha256': '1031b9196d3c79ed36b81309c14f7d56221692f178ed132bd7510f3469c32bf2',
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_heap_scenario_matches_recorded_golden(name):
    report, observed = observe(name)
    golden = GOLDEN[name]
    assert observed["scalars"] == golden["scalars"]
    assert observed["extra"] == golden["extra"]
    assert observed["snapshot_sha256"] == golden["snapshot_sha256"]
    # A single-heap run is one partition advanced once: no epoch loop,
    # no barrier, nothing to report about partitions.
    assert report.workers == 1
    assert report.epochs == 0
    assert report.partition_busy_seconds == []
    assert report.barrier_wait_seconds == []


def test_scenarios_exercise_what_they_pin():
    """The goldens are only worth pinning if each scenario reaches the
    feature it is named for."""
    assert GOLDEN["plain"]["scalars"]["delivered"] > 0
    reseq = GOLDEN["resequenced_replay"]["scalars"]
    assert reseq["resequencer_held"] > 0
    assert reseq["reordered_fraction"] == 0.0
    faults = GOLDEN["faults_with_manager"]["scalars"]
    assert faults["fault_events"] == 4
    assert [c[0] for c in faults["convergence"]] == ["node_down", "node_up"]
    churn = GOLDEN["fib_routed_churn"]
    assert churn["scalars"]["fib_miss"] > 0
    assert churn["extra"]["updates_applied"] > 0
    assert churn["extra"]["consistent"]


def _observer_samples(registry):
    """Samples the run's observer took, the t=0 one included: it records
    every link's occupancy once per sample."""
    return registry.timeline("link_occupancy").totals(link="0-1")["count"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_observation_adds_only_its_tick_events(name):
    """Observing a run adds one event per observer sample after the t=0
    one and changes nothing else the report says -- it cannot keep a run
    (or a resequencer's expiry chain) alive.  ``resequenced_replay`` is
    the open-ended case: observed, it drains like the unobserved run and
    only its clock ends later, on the last tick."""
    registry = _registry()
    _, observed = observe(name, registry)
    _, unobserved = observe(name, MetricsRegistry(enabled=False))
    ticks = _observer_samples(registry) - 1
    assert ticks >= 1
    assert (observed["scalars"].pop("events_run")
            == unobserved["scalars"].pop("events_run") + ticks)
    if name == "resequenced_replay":
        assert (observed["scalars"].pop("duration")
                >= unobserved["scalars"].pop("duration"))
    assert observed["scalars"] == unobserved["scalars"]
    assert observed["extra"] == unobserved["extra"]


def test_observed_open_ended_resequencing_drains():
    """An observer tick in the queue and the resequencers' expiry chain
    used to re-arm each other forever, so this was refused; with the tick
    out of the queue an open-ended observed run just drains.  (The other
    open-ended entry point, ``replay_pair``, is the ``resequenced_replay``
    case of ``test_observation_adds_only_its_tick_events``.)"""
    registry = _registry()
    report = _reorder_prone_router().simulate(iter(()), metrics=registry)
    # One expiry at timeout / 2 = 0.5 ms, and the five 0.1 ms ticks up to it.
    assert report.events_run == 1 + 5
    assert _observer_samples(registry) == 1 + 5


# ``replay_pair`` with a registry: open-ended *and* observed, so the run
# steps tick to tick until it drains.  Recorded at 8462f65, the last
# commit where ``simulate`` had a tick loop of its own beside the epoch
# loop; do not regenerate to make a refactor pass.
OBSERVED_REPLAY_GOLDEN = {
    'extra': {},
    'scalars': {
        'bytes': 7400000,
        'convergence': [],
        'delivered': 10000,
        'direct': 9428,
        'dropped': 0,
        'duration': 0.008000000000000007,
        'events_run': 51812,
        'fault_events': 0,
        'fault_flushed': 0,
        'fib_miss': 0,
        'flowlet_spills': 0,
        'flowlet_switches': 0,
        'indirect': 572,
        'latency_count': 10000,
        'latency_mean': 68.36404257770803,
        'latency_p50': 65.4904111671746,
        'latency_p99': 113.60578442131536,
        'node_stats': [
            (('egress', 0), ('ingress', 10000), ('intermediate', 0), ('node', 0)),
            (('egress', 10000), ('ingress', 0), ('intermediate', 0), ('node', 1)),
            (('egress', 0), ('ingress', 0), ('intermediate', 275), ('node', 2)),
            (('egress', 0), ('ingress', 0), ('intermediate', 297), ('node', 3)),
        ],
        'offered': 10000,
        'reordered_fraction': 0.0,
        'resequencer_held': 233,
        'resequencer_timeouts': 0,
    },
    'snapshot_sha256': 'fdb652f31062636e9485782bc77a46ca80fe15f54722cd8757dd0e86c854b240',
}


def test_observed_open_ended_replay_matches_recorded_golden():
    report, observed = observe("resequenced_replay", _registry())
    assert observed == OBSERVED_REPLAY_GOLDEN
    assert report.workers == 1
    assert report.epochs == 0
    assert report.partition_busy_seconds == []


class TestConservationSelfCheck:
    """``merge_fragments`` is the one place a report is assembled, so it
    refuses to assemble one that breaks packet conservation."""

    def _merge(self, fragment, offered):
        return merge_fragments([fragment], offered_packets=offered,
                               duration_sec=1.0, workers=1, epochs=0)

    def test_consistent_fragment_merges(self):
        fragment = PartitionFragment(partition_id=0, delivered_packets=6,
                                     dropped_packets=4, fib_miss_packets=3)
        report = self._merge(fragment, offered=10)
        assert report.delivered_packets == 6
        assert report.fib_miss_packets == 3

    def test_more_out_than_in_is_refused(self):
        fragment = PartitionFragment(partition_id=0, delivered_packets=8,
                                     dropped_packets=3)
        with pytest.raises(SimulationError, match="conservation"):
            self._merge(fragment, offered=10)

    def test_fib_misses_beyond_drops_are_refused(self):
        fragment = PartitionFragment(partition_id=0, delivered_packets=1,
                                     dropped_packets=2, fib_miss_packets=3)
        with pytest.raises(SimulationError, match="conservation"):
            self._merge(fragment, offered=10)
