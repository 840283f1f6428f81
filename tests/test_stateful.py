"""Stateful NF suite: flow state, NF process/replay, dispatch strategies.

The load-bearing property is *end-state equivalence*: for every NF and
every core count, the locks / rss / scr strategies -- and every SCR
replica -- must finish with exactly the flow table the single-core
reference execution produces.  SCR's replay must also be exact: applying
a delta yields the entry the full computation produced.
"""

import pytest

from repro.costs import (lock_vector, scr_replay_vector,
                         state_access_vector)
from repro.errors import ConfigurationError
from repro.net.addresses import IPv4Address
from repro.net.flows import FiveTuple
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.stateful import (
    DROP,
    FORWARD,
    STRATEGIES,
    FirewallNF,
    FlowTable,
    NatNF,
    PolicerNF,
    apply_history,
    make_nf,
    merge_snapshots,
    run_strategy,
)
from repro.workloads import SkewedFlowWorkload

SEED = 20090917


def _records(count=3000, skew=1.1, churn=200, flows=64, seed=SEED):
    workload = SkewedFlowWorkload(num_flows=flows, skew=skew,
                                  churn_packets=churn, seed=seed)
    return list(workload.records(count))


def _run_all(nf_name, records, cores):
    """Every strategy over the same history, each with a fresh NF."""
    return {strategy: run_strategy(make_nf(nf_name), records, cores, strategy)
            for strategy in STRATEGIES}


def _key(n=1):
    return FiveTuple(src=IPv4Address("10.0.0.%d" % n),
                     dst=IPv4Address("10.1.0.1"), proto=17,
                     src_port=1000 + n, dst_port=80)


class TestFlowTable:
    def test_put_get_len_peak(self):
        table = FlowTable()
        assert table.get(_key()) is None
        table.put(_key(1), ("a",))
        table.put(_key(2), ("b",))
        table.remove(_key(1))
        assert len(table) == 1
        assert table.peak_entries == 2
        assert table.get(_key(2)) == ("b",)

    def test_snapshot_is_canonical(self):
        one, two = FlowTable(), FlowTable()
        one.put(_key(1), (1,))
        one.put(_key(2), (2,))
        two.put(_key(2), (2,))
        two.put(_key(1), (1,))
        assert one.snapshot() == two.snapshot()

    def test_merge_disjoint_snapshots(self):
        one, two = FlowTable(), FlowTable()
        one.put(_key(1), (1,))
        two.put(_key(2), (2,))
        merged = merge_snapshots(one.snapshot(), two.snapshot())
        assert len(merged) == 2

    def test_merge_conflicting_shards_raises(self):
        one, two = FlowTable(), FlowTable()
        one.put(_key(1), (1,))
        two.put(_key(1), (2,))
        with pytest.raises(ValueError):
            merge_snapshots(one.snapshot(), two.snapshot())


class TestNFs:
    def test_nat_port_is_deterministic_and_in_pool(self):
        records = _records(200)
        first = apply_history(NatNF(pool_size=5000), records).snapshot()
        second = apply_history(NatNF(pool_size=5000), records).snapshot()
        assert first == second
        for ext_port, packets, length in first.values():
            assert 1024 <= ext_port < 1024 + 5000
            assert packets >= 1 and length >= 64

    def test_firewall_state_machine(self):
        fw = FirewallNF(establish_after=2, max_packets=4)
        records = [r for r in _records(400, flows=1, churn=None)][:6]
        entry = None
        verdicts = []
        for rec in records:
            entry, verdict, _ = fw.process(entry, rec)
            verdicts.append(verdict)
        # packets 1..6: new, established x2, closed (drop) from the 4th on
        assert verdicts == [FORWARD, FORWARD, FORWARD, DROP, DROP, DROP]
        assert entry == (FirewallNF.CLOSED, 6)

    def test_policer_conforms_then_drops_then_refills(self):
        policer = PolicerNF(rate_bps=8000.0, burst_bytes=1000.0)
        rec = _records(1, flows=1, churn=None)[0]

        def at(time, length):
            return rec.__class__(seq=0, time=time, key=rec.key,
                                 length=length, flow_slot=0,
                                 flow_generation=0)

        entry, verdict, _ = policer.process(None, at(0.0, 800))
        assert verdict == FORWARD
        entry, verdict, _ = policer.process(entry, at(0.0, 800))
        assert verdict == DROP          # bucket exhausted
        # 1000 B/s refill: after 1 s there is room again.
        entry, verdict, _ = policer.process(entry, at(1.0, 800))
        assert verdict == FORWARD

    def test_lb_choice_is_sticky_and_in_range(self):
        records = _records(500)
        table = apply_history(make_nf("lb", num_backends=4), records)
        for backend, packets, _ in dict(table.items()).values():
            assert 0 <= backend < 4

    @pytest.mark.parametrize("nf_name", ["nat", "firewall", "policer", "lb"])
    def test_replay_matches_process(self, nf_name):
        """SCR's exactness contract: replaying a delta's args yields the
        same entry the full computation produced."""
        nf = make_nf(nf_name)
        replica = make_nf(nf_name)
        processed = {}
        replayed = {}
        for rec in _records(1500):
            entry, _, args = nf.process(processed.get(rec.key), rec)
            processed[rec.key] = entry
            replayed[rec.key] = replica.replay(replayed.get(rec.key), args)
            assert replayed[rec.key] == entry

    def test_make_nf_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_nf("dpi")

    def test_nf_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            NatNF(pool_size=0)
        with pytest.raises(ConfigurationError):
            FirewallNF(establish_after=5, max_packets=5)
        with pytest.raises(ConfigurationError):
            PolicerNF(rate_bps=0)
        with pytest.raises(ConfigurationError):
            make_nf("lb", num_backends=0)


class TestCostVectors:
    def test_state_access_vector_known_nfs(self):
        for name in ("nat", "firewall", "policer", "lb"):
            vector = state_access_vector(name)
            assert vector.cpu_cycles > 0 and vector.mem_bytes > 0

    def test_state_access_vector_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            state_access_vector("dpi")

    def test_contended_lock_costs_more(self):
        free = lock_vector(contended=False)
        contended = lock_vector(contended=True)
        assert contended.cpu_cycles > free.cpu_cycles > 0

    def test_replay_is_much_cheaper_than_full_compute(self):
        replay = scr_replay_vector()
        full = state_access_vector("nat")
        assert replay.cpu_cycles * 10 < full.cpu_cycles


class TestDispatchEquivalence:
    @pytest.mark.parametrize("nf_name", ["nat", "firewall", "policer", "lb"])
    def test_all_strategies_reach_reference_end_state(self, nf_name):
        records = _records(2500)
        reference = apply_history(make_nf(nf_name), records).snapshot()
        for cores in (1, 2, 4):
            reports = _run_all(nf_name, records, cores)
            for strategy, report in reports.items():
                assert report.end_state == reference, \
                    "%s diverged at %d cores" % (strategy, cores)
            assert reports["scr"].replicas_identical

    def test_strategies_agree_on_drops(self):
        records = _records(2500)
        reports = _run_all("policer", records, 4)
        dropped = {r.dropped for r in reports.values()}
        assert len(dropped) == 1 and dropped.pop() > 0

    def test_single_core_strategies_coincide(self):
        """With one core there is nothing to contend, pin, or replicate:
        every strategy degenerates to the reference execution."""
        records = _records(1500)
        reports = _run_all("nat", records, 1)
        assert reports["rss"].lock_contended == 0
        assert reports["locks"].lock_contended == 0
        assert reports["locks"].coherence_transfers == 0
        rates = sorted(r.throughput_mpps for r in reports.values())
        # locks still pays the (uncontended) acquire and scr the encode,
        # so rates differ slightly but stay within 10%.
        assert rates[2] / rates[0] < 1.10


class TestDispatchCosts:
    def test_skew_collapses_locks_but_not_scr(self):
        records = _records(6000, skew=1.1, flows=512)
        reports = _run_all("nat", records, 4)
        assert reports["locks"].lock_contended > 0
        assert reports["locks"].coherence_transfers > 0
        assert reports["scr"].throughput_mpps \
            > 1.5 * reports["locks"].throughput_mpps

    def test_rss_pays_no_synchronization(self):
        records = _records(2000)
        report = run_strategy(make_nf("nat"), records, 4, "rss")
        assert report.lock_contended == 0
        assert report.coherence_transfers == 0
        assert report.scr_deltas == 0
        assert report.resources.qpi_bytes == 0.0

    def test_scr_broadcasts_one_delta_per_packet(self):
        records = _records(2000)
        report = run_strategy(make_nf("nat"), records, 4, "scr")
        assert report.scr_deltas == len(records)
        assert report.scr_delta_bytes > 0

    def test_locks_charge_qpi_for_coherence(self):
        records = _records(2000)
        report = run_strategy(make_nf("nat"), records, 4, "locks")
        assert report.coherence_transfers > 0
        assert report.resources.qpi_bytes > 0.0

    def test_report_scalars_are_consistent(self):
        records = _records(1000)
        report = run_strategy(make_nf("nat"), records, 2, "scr")
        assert report.packets == 1000
        assert report.bytes_total == sum(r.length for r in records)
        assert len(report.per_core_cycles) == 2
        assert report.throughput_mpps > 0
        assert report.throughput_gbps > 0

    def test_empty_history_yields_zero_report(self):
        report = run_strategy(make_nf("nat"), [], 4, "locks")
        assert report.packets == 0
        assert report.throughput_mpps == 0.0
        assert report.end_state == {}

    def test_run_strategy_validation(self):
        records = _records(10)
        with pytest.raises(ConfigurationError):
            run_strategy(make_nf("nat"), records, 4, "magic")
        with pytest.raises(ConfigurationError):
            run_strategy(make_nf("nat"), records, 0, "locks")
        with pytest.raises(ConfigurationError):
            run_strategy(make_nf("nat"), records, 4, "locks", core_hz=0)

    def test_strategies_cover_expected_names(self):
        assert STRATEGIES == ("locks", "rss", "scr")


class TestObservability:
    def test_counters_and_timeline_recorded(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            records = _records(2000)
            _run_all("policer", records, 4)
        assert registry.get("stateful_packets").total() == 3 * 2000
        assert registry.get("stateful_drops").total() > 0
        assert registry.get("lock_contended_acquires").total() > 0
        assert registry.get("state_coherence_transfers").total() > 0
        assert registry.get("scr_delta_messages").total() == 2000
        assert registry.get("scr_delta_bytes").total() > 0
        timeline = registry.get("flow_table_entries")
        assert timeline is not None
        # One occupancy series per strategy (labels carry the strategy).
        assert len(timeline._series) >= 3
