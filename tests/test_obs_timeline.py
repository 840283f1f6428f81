"""Parallel-runtime telemetry and the Chrome-trace timeline exporter.

Pins the PR 9 acceptance contract:

* the runner's epoch/barrier instrumentation charges ``parallel_*``
  metrics whose per-partition sums reconcile with the report;
* :func:`repro.obs.timeline.chrome_trace` emits a valid Chrome trace
  event document whose wall-track compute spans sum, per partition, to
  that partition's ``busy_seconds`` within 1%;
* cross-partition-stitched ``PathTrace`` hop sequences are identical to
  the single-heap run at workers=1/2/4 on both backends;
* ``TRACE_*.json`` exports are deterministic across two seeded runs
  (everything on the simulation clock byte-identical; the wall-clock
  track varies only in its measured ``ts``/``dur`` values).
"""

import json

import pytest

from repro.core.router import RouteBricksRouter
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import TRACE_SCHEMA, validate_trace
from repro.obs.timeline import (
    PID_PACKETS,
    PID_PROFILE,
    PID_SIM,
    PID_WALL,
    chrome_trace,
    write_trace_json,
)
from repro.parallel import simulate_parallel
from repro.workloads import WorkloadSpec
from repro.workloads.matrices import uniform_matrix

NODES = 4
SEED = 11
UNTIL = 6e-4


def _router(nodes=NODES):
    return RouteBricksRouter(num_nodes=nodes, seed=SEED)


def _workload(router, load=0.3):
    return WorkloadSpec.fixed(64).with_matrix(
        uniform_matrix(router.num_nodes, router.port_rate_bps * load))


def _run(workers, backend="inline", sample_every=4, profile=True):
    router = _router()
    registry = MetricsRegistry(enabled=True,
                               trace_sample_every=sample_every,
                               profile=profile)
    report = simulate_parallel(router, _workload(router), until=UNTIL,
                               workers=workers, backend=backend,
                               metrics=registry)
    return report, registry


class TestRunnerTelemetry:
    def test_report_carries_epoch_barrier_fields(self):
        report, _ = _run(2)
        assert len(report.barrier_wait_seconds) == 2
        assert all(w >= 0.0 for w in report.barrier_wait_seconds)
        assert 0.0 < report.lookahead_efficiency <= 1.0
        assert report.load_imbalance >= 1.0

    def test_parallel_metrics_reconcile_with_report(self):
        report, registry = _run(2)
        snap = registry.snapshot()
        busy_tl = snap["timelines"]["parallel_epoch_busy_seconds"]
        wait_tl = snap["timelines"]["parallel_epoch_barrier_seconds"]
        for pid in range(2):
            label = "{partition=%d,workers=2}" % pid
            busy_sum = busy_tl[label]["totals"]["sum"]
            wait_sum = wait_tl[label]["totals"]["sum"]
            assert busy_sum == pytest.approx(
                report.partition_busy_seconds[pid], rel=1e-9)
            assert wait_sum == pytest.approx(
                report.barrier_wait_seconds[pid], rel=1e-9)
            gauges = snap["gauges"]
            assert gauges["parallel_busy_seconds"][label] == \
                pytest.approx(busy_sum, rel=1e-9)
            assert gauges["parallel_barrier_wait_seconds"][label] == \
                pytest.approx(wait_sum, rel=1e-9)
        assert snap["gauges"]["parallel_lookahead_efficiency"][
            "{workers=2}"] == pytest.approx(report.lookahead_efficiency)
        assert snap["gauges"]["parallel_imbalance"]["{workers=2}"] == \
            pytest.approx(report.load_imbalance)

    def test_transit_volumes_recorded(self):
        _, registry = _run(2)
        snap = registry.snapshot()
        records = snap["timelines"]["parallel_transit_records"]
        volumes = snap["timelines"]["parallel_transit_bytes"]
        assert records and volumes
        total_records = sum(s["totals"]["sum"] for s in records.values())
        total_bytes = sum(s["totals"]["sum"] for s in volumes.values())
        assert total_records > 0
        # 64 B frames: byte volume is frame-count * frame size.
        assert total_bytes == pytest.approx(total_records * 64)

    def test_single_heap_run_charges_no_parallel_metrics(self):
        _, registry = _run(1)
        assert not any(name.startswith("parallel_")
                       for name in registry.names())


class TestChromeTraceExport:
    def test_export_is_schema_valid(self):
        _, registry = _run(2)
        doc = chrome_trace("rb4", registry.snapshot())
        assert validate_trace(doc) == []
        assert doc["metadata"]["schema"] == TRACE_SCHEMA
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {PID_SIM, PID_WALL, PID_PROFILE, PID_PACKETS}

    def test_wall_compute_spans_sum_to_busy_seconds(self):
        # The acceptance criterion: per partition, the wall track's
        # epoch/barrier spans reconstruct busy_seconds within 1%.
        report, registry = _run(2)
        doc = chrome_trace("rb4", registry.snapshot())
        compute = {}
        for event in doc["traceEvents"]:
            if event["pid"] == PID_WALL and event.get("ph") == "X" \
                    and event.get("name") == "compute":
                tid = event["tid"]
                compute[tid] = compute.get(tid, 0.0) + event["dur"] / 1e6
        for pid, busy in enumerate(report.partition_busy_seconds):
            tid = 2 * 256 + pid
            assert compute[tid] == pytest.approx(busy, rel=0.01)
        barrier = {}
        for event in doc["traceEvents"]:
            if event["pid"] == PID_WALL and event.get("name") == "barrier":
                tid = event["tid"]
                barrier[tid] = barrier.get(tid, 0.0) + event["dur"] / 1e6
        for pid, wait in enumerate(report.barrier_wait_seconds):
            assert barrier.get(2 * 256 + pid, 0.0) == \
                pytest.approx(wait, rel=0.01, abs=1e-9)

    def test_export_is_pure_function_of_snapshot(self):
        _, registry = _run(2)
        snap = json.loads(json.dumps(registry.snapshot()))
        first = json.dumps(chrome_trace("rb4", snap), sort_keys=True)
        second = json.dumps(chrome_trace("rb4", snap), sort_keys=True)
        assert first == second

    def test_trace_json_deterministic_across_two_runs(self, tmp_path):
        # Two fresh seeded runs: everything on the simulation clock is
        # byte-identical (packet ids are rebased by the exporter); the
        # wall-clock track keeps its span structure but re-measures
        # ts/dur.
        paths = []
        for run in ("a", "b"):
            _, registry = _run(2)
            doc = chrome_trace("rb4", registry.snapshot())
            paths.append(write_trace_json(doc, tmp_path / run))
        docs = [json.load(open(p)) for p in paths]

        def split(doc):
            sim = [e for e in doc["traceEvents"] if e["pid"] != PID_WALL]
            wall = [e for e in doc["traceEvents"] if e["pid"] == PID_WALL]
            return sim, wall

        sim_a, wall_a = split(docs[0])
        sim_b, wall_b = split(docs[1])
        assert json.dumps(sim_a, sort_keys=True) == \
            json.dumps(sim_b, sort_keys=True)
        assert docs[0]["metadata"] == docs[1]["metadata"]
        shape = [(e["ph"], e["tid"], e["name"], e["args"].get("epochs"))
                 for e in wall_a if e["ph"] == "X"]
        assert shape == [(e["ph"], e["tid"], e["name"],
                          e["args"].get("epochs"))
                         for e in wall_b if e["ph"] == "X"]

    def test_empty_snapshot_exports_empty_but_valid(self):
        doc = chrome_trace("empty", MetricsRegistry(enabled=True).snapshot())
        assert doc["traceEvents"] == []
        assert validate_trace(doc) == []

    def test_validate_trace_rejects_malformed(self):
        assert validate_trace([]) == ["document is not a JSON object"]
        bad = {"displayTimeUnit": "ms",
               "metadata": {"schema": TRACE_SCHEMA},
               "traceEvents": [
                   {"ph": "Z", "pid": 1, "name": "x"},
                   {"ph": "X", "pid": 1, "tid": 0, "name": "x",
                    "ts": -1.0, "dur": 1.0},
                   {"ph": "X", "pid": 1, "tid": "zero", "name": "x",
                    "ts": 0.0, "dur": -2.0},
                   {"ph": "M", "pid": 1, "name": "process_name",
                    "args": {}},
               ]}
        problems = validate_trace(bad)
        assert any("ph" in p for p in problems)
        assert any(".ts" in p for p in problems)
        assert any(".tid" in p for p in problems)
        assert any(".dur" in p for p in problems)
        assert any("args.name" in p for p in problems)
        assert validate_trace({"traceEvents": []}) == [
            "missing 'metadata' object",
            "displayTimeUnit must be 'ms' or 'ns'",
        ]


class TestTraceStitching:
    """Satellite: stitched cross-partition PathTraces == single-heap."""

    def _hops_by_packet(self, registry):
        hops = {}
        ids = sorted(t.packet_id for t in registry.tracer.traces)
        base = ids[0] if ids else 0
        for trace in registry.tracer.traces:
            hops[trace.packet_id - base] = [
                (h.site, h.time, h.note) for h in trace.hops]
        return hops

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_stitched_hops_identical_to_single_heap(self, backend):
        router = _router()
        reference = MetricsRegistry(enabled=True, trace_sample_every=4)
        router.simulate(_workload(router), until=UNTIL, metrics=reference)
        expected = self._hops_by_packet(reference)
        assert expected, "reference run sampled no traces"
        # ingress -> tx -> remote output -> egress: every journey spans
        # two nodes, so a partitioned run must stitch across CrossLinks.
        assert any(len(hops) >= 4 for hops in expected.values())
        for workers in (1, 2, 4):
            _, registry = _run(workers, backend=backend, profile=False)
            assert self._hops_by_packet(registry) == expected, \
                "workers=%d (%s) stitched traces diverged" % (workers,
                                                              backend)

    def test_traces_cross_partition_boundaries(self):
        # The stitched journeys must actually span partitions: with 2
        # partitions of RB4 ({0,1} | {2,3}), some sampled packet visits
        # nodes on both sides.
        _, registry = _run(2, sample_every=2, profile=False)
        crossed = 0
        for trace in registry.tracer.traces:
            nodes = {int(h.site.split(".")[0][4:])
                     for h in trace.hops if h.site.startswith("node")}
            if nodes & {0, 1} and nodes & {2, 3}:
                crossed += 1
        assert crossed > 0


class TestPacketTrack:
    def test_packet_spans_use_stage_names(self):
        _, registry = _run(2, sample_every=2)
        doc = chrome_trace("rb4", registry.snapshot())
        stages = {e["name"] for e in doc["traceEvents"]
                  if e["pid"] == PID_PACKETS and e["ph"] == "X"}
        assert "vlb_hop_transit" in stages or "egress_transit" in stages
