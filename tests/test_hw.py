"""Tests for the hardware models."""

import pytest

from repro.errors import ConfigurationError
from repro.hw import (
    NEHALEM,
    NEHALEM_NEXT_GEN,
    XEON_SHARED_BUS,
    Bus,
    Core,
    Nic,
    NicPort,
    Server,
    ServerSpec,
    nehalem_server,
)
from repro.net import Packet


class TestComponents:
    def test_core_charge_and_utilization(self):
        core = Core(core_id=0, socket_id=0, clock_hz=2.8e9)
        core.charge(1.4e9)
        assert core.utilization(1.0) == pytest.approx(0.5)
        core.reset()
        assert core.cycles_used == 0

    def test_core_rejects_negative(self):
        core = Core(core_id=0, socket_id=0, clock_hz=2.8e9)
        with pytest.raises(ValueError):
            core.charge(-1)
        with pytest.raises(ValueError):
            core.utilization(0)

    def test_bus_utilization(self):
        bus = Bus(name="m", capacity_bps=80e9)
        bus.charge(5e9)  # 5 GB = 40 Gb
        assert bus.utilization(1.0) == pytest.approx(0.5)

    def test_bad_configs(self):
        with pytest.raises(ConfigurationError):
            Core(core_id=0, socket_id=0, clock_hz=0)
        with pytest.raises(ConfigurationError):
            Bus(name="x", capacity_bps=0)


class TestServerSpec:
    def test_nehalem_shape(self):
        assert NEHALEM.total_cores == 8
        assert NEHALEM.cycles_per_second == pytest.approx(22.4e9)
        assert NEHALEM.max_ports == 4
        assert NEHALEM.max_input_bps == pytest.approx(24.6e9)

    def test_next_gen_scales(self):
        assert NEHALEM_NEXT_GEN.total_cores == 32
        assert NEHALEM_NEXT_GEN.cycles_per_second == pytest.approx(
            4 * NEHALEM.cycles_per_second)
        assert NEHALEM_NEXT_GEN.memory_bps == pytest.approx(
            2 * NEHALEM.memory_bps)

    def test_xeon_is_shared_bus(self):
        assert XEON_SHARED_BUS.shared_bus
        assert XEON_SHARED_BUS.cpi_factor > 1.0
        assert XEON_SHARED_BUS.cycles_per_second == pytest.approx(19.2e9)

    def test_shared_bus_requires_fsb(self):
        with pytest.raises(ConfigurationError):
            ServerSpec(name="bad", sockets=1, cores_per_socket=1,
                       clock_hz=1e9, memory_bps=1, memory_empirical_bps=1,
                       io_bps=1, io_empirical_bps=1, qpi_bps=1,
                       qpi_empirical_bps=1, pcie_bps=1,
                       pcie_empirical_bps=1, nic_slots=1,
                       shared_bus=True, fsb_bps=0)


class TestServer:
    def test_nehalem_server_assembly(self):
        server = nehalem_server()
        assert len(server.cores) == 8
        assert len(server.sockets) == 2
        assert len(server.nics) == 2
        assert len(server.ports) == 4
        assert server.ports[0].num_queues == 8

    def test_xeon_server_has_fsb(self):
        server = Server(XEON_SHARED_BUS, num_ports=4, queues_per_port=1)
        assert server.fsb is not None

    def test_too_many_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            Server(NEHALEM, num_ports=5, queues_per_port=1)

    def test_port_lookup(self):
        server = nehalem_server()
        assert server.port(2).port_id == 2
        with pytest.raises(ConfigurationError):
            server.port(9)


class TestNic:
    def _port(self, queues=4):
        return NicPort(port_id=0, rate_bps=10e9, num_queues=queues)

    def test_rss_same_flow_same_queue(self):
        port = self._port()
        a = Packet.udp("10.0.0.1", "10.0.0.2", src_port=9, dst_port=80)
        b = Packet.udp("10.0.0.1", "10.0.0.2", src_port=9, dst_port=80)
        assert port.classify(a) == port.classify(b)

    def test_receive_and_drain(self):
        port = self._port()
        packet = Packet.udp("1.1.1.1", "2.2.2.2")
        assert port.receive(packet)
        queued = sum(len(q) for q in port.rx_queues)
        assert queued == 1

    def test_ring_overflow_drops(self):
        port = NicPort(port_id=0, rate_bps=10e9, num_queues=1, ring_slots=2)
        for _ in range(3):
            port.receive(Packet.udp("1.1.1.1", "2.2.2.2"))
        assert sum(q.dropped for q in port.rx_queues) == 1

    def test_transmit_bad_queue(self):
        port = self._port()
        with pytest.raises(ConfigurationError):
            port.transmit(Packet.udp("1.1.1.1", "2.2.2.2"), queue_id=9)

    def test_nic_port_count_limits(self):
        with pytest.raises(ConfigurationError):
            Nic(nic_id=0, ports=[])
        with pytest.raises(ConfigurationError):
            Nic(nic_id=0, ports=[self._port(), self._port(), self._port()])

    def test_queue_sharing_detection(self):
        port = self._port()
        queue = port.rx_queues[0]
        queue.note_access(0)
        assert not queue.is_shared()
        queue.note_access(1)
        assert queue.is_shared()
