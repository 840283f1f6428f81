"""The unified result-object layer (repro.results)."""

import json

import pytest

from repro import calibration as cal
from repro.core import RouteBricksRouter
from repro.core.control import ClusterManager
from repro.perfmodel import max_loss_free_rate
from repro.results import RunResult
from repro.workloads import FixedSizeWorkload, WorkloadSpec


def _rate():
    return max_loss_free_rate(WorkloadSpec.fixed(64, app="forwarding"))


def _sim_report():
    workload = FixedSizeWorkload(packet_bytes=740, num_flows=8, seed=1)
    events = [(i * 1e-6, 0, 1, p)
              for i, p in enumerate(workload.packets(50))]
    return RouteBricksRouter(seed=1).simulate(events)


class TestRunResultProtocol:
    def test_every_result_type_is_a_run_result(self):
        assert isinstance(_rate(), RunResult)
        assert isinstance(_sim_report(), RunResult)
        throughput = RouteBricksRouter().max_throughput(
            WorkloadSpec.fixed(64))
        assert isinstance(throughput, RunResult)
        manager = ClusterManager()
        manager.add_node(0)
        manager.add_node(1)
        assert isinstance(manager.reprovision(), RunResult)

    def test_old_attribute_names_keep_working(self):
        rate = _rate()
        assert rate.rate_gbps > 0
        assert rate.bottleneck in ("cpu", "mem", "io", "nic")
        report = _sim_report()
        assert report.delivered_packets == 50
        assert report.delivery_ratio == 1.0

    def test_to_dict_is_json_serializable(self):
        for result in (_rate(), _sim_report()):
            data = result.to_dict()
            json.dumps(data)           # must not raise
            assert data["kind"] == type(result).__name__

    def test_histograms_collapse_to_quantiles(self):
        data = _sim_report().to_dict()
        latency = data["latency_usec"]
        assert set(latency) == {"count", "mean", "p50", "p95", "p99"}
        assert latency["count"] == 50

    def test_nested_dataclasses_and_named_objects_convert(self):
        data = _rate().to_dict()
        # The ResourceVector dataclass inside the result becomes a plain dict.
        assert isinstance(data["loads"], dict)
        assert data["loads"]["cpu_cycles"] > 0
        # Dataclass values (AppCost) convert to their field dicts; plain
        # named objects reduce to their name.
        from repro.results import _convert
        assert _convert(cal.IP_ROUTING)["name"] == cal.IP_ROUTING.name

        class Named:
            name = "direct-vlb"
        assert _convert(Named()) == "direct-vlb"

    def test_summary_is_one_line_and_names_key_fields(self):
        for result in (_rate(), _sim_report()):
            line = result.summary()
            assert "\n" not in line
            assert line.startswith(type(result).__name__)
        assert "rate_gbps" in _rate().summary()
        assert str(_rate()) == _rate().summary()

    def test_cluster_throughput_summary(self):
        result = RouteBricksRouter().max_throughput(WorkloadSpec.fixed(64))
        assert "aggregate_gbps" in result.summary()
        assert "binding" in result.summary()

    def test_nested_results_recurse(self):
        router = RouteBricksRouter(seed=1)
        manager = ClusterManager()
        for port in range(4):
            manager.add_node(external_port=port)
        workload = FixedSizeWorkload(packet_bytes=740, num_flows=8, seed=1)
        events = [(i * 1e-6, 0, 1, p)
                  for i, p in enumerate(workload.packets(50))]
        from repro.faults import FaultSchedule
        report = router.simulate(
            events, faults=FaultSchedule().crash_node(at=20e-6, node=3),
            manager=manager, detection_latency_sec=10e-6)
        data = report.to_dict()
        json.dumps(data)
        assert data["convergence"][0]["kind"] == "ConvergenceRecord"
        assert data["convergence"][0]["event"] == "node_down"
