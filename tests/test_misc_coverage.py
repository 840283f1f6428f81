"""Coverage for smaller public-surface paths not exercised elsewhere."""

import pytest

from repro import calibration as cal
from repro.click import RouterGraph
from repro.click.elements.standard import CounterElement, Discard
from repro.click.simrun import TimedForwardingRun, TimedPipelineRun
from repro.errors import ConfigurationError, SchedulingError
from repro.hw import Server, nehalem_server
from repro.hw.presets import NEHALEM_NEXT_GEN


class TestGraphAddAll:
    def test_add_all(self):
        graph = RouterGraph()
        counter = CounterElement(name="c")
        sink = Discard(name="d")
        graph.add_all([counter, sink])
        counter.connect_to(sink)
        graph.validate()
        assert len(graph) == 2


class TestTimedRunWithRouting:
    def test_routing_app_saturates_lower(self):
        fwd_run = TimedPipelineRun(nehalem_server(), "forwarding")
        rtr_run = TimedPipelineRun(nehalem_server(), "routing")
        fwd = fwd_run.run(offered_bps=8e9, duration_sec=1e-3)
        rtr = rtr_run.run(offered_bps=8e9, duration_sec=1e-3)
        # 8 Gbps exceeds routing's 6.35 Gbps saturation but not
        # forwarding's 9.77 (the presets' compiled loads).
        assert fwd.sustainable(max_backlog_packets=512)
        assert not rtr.sustainable(max_backlog_packets=512)


class TestNextGenServerAssembly:
    def test_next_gen_attaches_many_ports(self):
        server = Server(NEHALEM_NEXT_GEN, num_ports=16, queues_per_port=4)
        assert len(server.ports) == 16
        assert len(server.cores) == 32
        assert len(server.nics) == 8


class TestSchedulerErrors:
    def test_zero_rounds_rejected(self):
        from repro.click import Scheduler
        scheduler = Scheduler()
        scheduler.spawn(nehalem_server().cores[0])
        with pytest.raises(SchedulingError):
            scheduler.run_rounds(0)


class TestCalibrationAppRegistry:
    def test_all_three_apps_registered(self):
        assert set(cal.APPLICATIONS) == {"forwarding", "routing", "ipsec"}
        for app in cal.APPLICATIONS.values():
            assert app.cpu_cycles(64) > 0
            assert app.mem_bytes(64) > 0


class TestConfigErrorsSurface:
    def test_simrun_rejects_missing_ports(self):
        server = Server(NEHALEM_NEXT_GEN)  # no ports attached
        with pytest.raises(ConfigurationError):
            TimedForwardingRun(server)
