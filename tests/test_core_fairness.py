"""Fairness through a contended output (the second switching guarantee,
Sec. 3.1): each input gets its fair share of an oversubscribed output."""

import pytest

from repro.core import RouteBricksRouter
from repro.core.switching import check_fairness, jain_index
from repro.workloads import FixedSizeWorkload


def _hotspot_events(num_senders=3, packets_each=3000, packet_bytes=740,
                    rate_bps_each=6e9):
    """Senders 1..3 each blast node 0's output at 6 Gbps (18 Gbps toward a
    10 Gbps line), with Poisson arrivals so no sender is phase-aligned
    with the drop-tail queue."""
    import random
    events = []
    mean_gap = packet_bytes * 8 / rate_bps_each
    for sender in range(1, num_senders + 1):
        rng = random.Random(100 + sender)
        workload = FixedSizeWorkload(packet_bytes=packet_bytes, num_flows=16,
                                     seed=sender)
        now = 0.0
        for packet in workload.packets(packets_each):
            now += rng.expovariate(1.0 / mean_gap)
            packet.annotations["sender"] = sender
            events.append((now, sender, 0, packet))
    events.sort(key=lambda e: (e[0], e[3].packet_id))
    return events


class TestFairness:
    def test_contended_output_shares_are_fair(self):
        router = RouteBricksRouter(seed=9)
        sim_events = _hotspot_events()
        shares = {1: 0, 2: 0, 3: 0}
        sim, nodes = router.build_simulation(rate_limited_egress=True)
        nodes[0].egress_callback = (
            lambda p, now: shares.__setitem__(
                p.annotations["sender"], shares[p.annotations["sender"]] + 1))
        for t, ingress, egress, packet in sim_events:
            sim.schedule_timer_at(t, lambda n=nodes[ingress], p=packet:
                                  n.ingress(p, 0))
        sim.run()
        delivered = sum(shares.values())
        offered = len(sim_events)
        # The 10G line cannot carry 18G: drops occurred...
        assert delivered < offered
        # ...but the survivors split fairly across inputs.
        assert check_fairness(shares, tolerance=0.2)
        assert jain_index(shares) > 0.98

    def test_egress_link_enforces_line_rate(self):
        router = RouteBricksRouter(seed=9)
        events = _hotspot_events(packets_each=2000)
        report = router.simulate(events, rate_limited_egress=True)
        duration = max(t for t, _, _, _ in _hotspot_events(packets_each=2000))
        delivered_bps = report.delivered_packets * 740 * 8 / duration
        # Output line pinned at ~10 Gbps.
        assert delivered_bps == pytest.approx(10e9, rel=0.1)
        assert report.dropped_packets > 0

    def test_no_drops_when_admissible(self):
        router = RouteBricksRouter(seed=9)
        events = _hotspot_events(rate_bps_each=2.5e9, packets_each=1000)
        report = router.simulate(events, rate_limited_egress=True)
        assert report.dropped_packets == 0
        assert report.delivered_packets == report.offered_packets
