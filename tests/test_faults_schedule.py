"""Tests for the FaultSchedule DSL (repro.faults.schedule)."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    LINK_DOWN,
    LINK_UP,
    NIC_STALL,
    NODE_DOWN,
    NODE_UP,
)


class TestFaultEvent:
    def test_node_event(self):
        event = FaultEvent(time=1e-3, kind=NODE_DOWN, target=2)
        assert event.target == 2

    def test_link_event(self):
        event = FaultEvent(time=0.0, kind=LINK_DOWN, target=(0, 1))
        assert event.target == (0, 1)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=-1.0, kind=NODE_DOWN, target=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind="meteor_strike", target=0)

    def test_node_kind_needs_int_target(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=NODE_UP, target=(0, 1))

    def test_link_kind_needs_pair_target(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=LINK_UP, target=3)

    def test_link_cannot_loop(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=LINK_DOWN, target=(2, 2))

    def test_nic_stall_needs_duration(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=NIC_STALL, target=1)
        event = FaultEvent(time=0.0, kind=NIC_STALL, target=1,
                           duration_sec=1e-4)
        assert event.duration_sec == 1e-4

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            FaultEvent(time=bad, kind=NODE_DOWN, target=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_stall_duration_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            FaultEvent(time=0.0, kind=NIC_STALL, target=1, duration_sec=bad)

    def test_duration_only_for_stall(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=NODE_DOWN, target=1, duration_sec=1.0)


class TestBuilder:
    def test_builder_chains(self):
        schedule = (FaultSchedule()
                    .crash_node(at=1e-3, node=2)
                    .recover_node(at=3e-3, node=2)
                    .fail_link(at=2e-3, src=0, dst=1))
        assert len(schedule) == 3

    def test_events_sorted_by_time(self):
        schedule = (FaultSchedule()
                    .recover_node(at=3e-3, node=2)
                    .crash_node(at=1e-3, node=2))
        times = [event.time for event in schedule.events()]
        assert times == sorted(times)

    def test_flap_link_expands_to_cycles(self):
        schedule = FaultSchedule().flap_link(0, 1, start=0.0,
                                             period_sec=1e-3, count=3)
        kinds = [event.kind for event in schedule.events()]
        assert kinds == [LINK_DOWN, LINK_UP] * 3

    def test_flap_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().flap_link(0, 1, start=0.0, period_sec=0,
                                      count=1)
        with pytest.raises(ConfigurationError):
            FaultSchedule().flap_link(0, 1, start=0.0, period_sec=1e-3,
                                      count=0)

    def test_validate_against_cluster_size(self):
        schedule = FaultSchedule().crash_node(at=0.0, node=7)
        schedule.validate(8)
        with pytest.raises(ConfigurationError):
            schedule.validate(4)

    def test_max_node_id(self):
        schedule = (FaultSchedule()
                    .crash_node(at=0.0, node=1)
                    .fail_link(at=0.0, src=2, dst=5))
        assert schedule.max_node_id() == 5
        assert FaultSchedule().max_node_id() == -1


class TestSerialization:
    def test_json_round_trip(self):
        schedule = (FaultSchedule()
                    .crash_node(at=1e-3, node=2)
                    .fail_link(at=2e-3, src=0, dst=1)
                    .stall_nic(at=3e-3, node=0, duration_sec=5e-4))
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored.events() == schedule.events()

    def test_from_dict_accepts_bare_list(self):
        schedule = FaultSchedule.from_dict(
            [{"time": 1e-3, "kind": "node_down", "node": 1}])
        assert len(schedule) == 1
        assert schedule.events()[0].target == 1

    def test_from_dict_link_event(self):
        schedule = FaultSchedule.from_dict(
            {"events": [{"time": 0.5, "kind": "link_down",
                         "src": 1, "dst": 2}]})
        assert schedule.events()[0].target == (1, 2)

    @pytest.mark.parametrize("text", [
        '[{"time": NaN, "kind": "node_down", "node": 0}]',
        '[{"time": 1e400, "kind": "node_down", "node": 0}]',
        '[{"time": 0, "kind": "nic_stall", "node": 0, "duration_sec": NaN}]',
        '[{"time": 0, "kind": "nic_stall", "node": 0, "duration_sec": 1e400}]',
    ])
    def test_from_json_rejects_non_finite_numbers(self, text):
        """JSON's ``NaN`` and an overflowing ``1e400`` parse to floats
        that no schedule can run; they are refused when loaded, not when
        the simulator reaches them."""
        with pytest.raises(ConfigurationError, match="finite"):
            FaultSchedule.from_json(text)

    def test_from_dict_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_dict([{"kind": "node_down", "node": 1}])
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_dict([{"time": 0.0, "kind": "link_down",
                                      "src": 1}])
