"""Tests for the bottleneck explain layer (model vs DES cross-check)."""

import json

import pytest

from repro import calibration as cal
from repro.analysis.bottleneck import deconstruct
from repro.cli import main
from repro.obs import ExplainReport, explain_pipeline, format_explain
from repro.obs.explain import explain_from_registry
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_bench

#: Short DES windows keep the matrix fast; agreement is insensitive to
#: the window because the charged loads are per-packet constants.
_DURATION = 0.4e-3


@pytest.fixture(scope="module")
def matrix():
    """The acceptance matrix: every preset at 64 B and 1024 B."""
    out = {}
    for preset in ("forwarding", "routing", "ipsec"):
        for size in (64, 1024):
            out[(preset, size)] = explain_pipeline(
                preset, packet_bytes=size, duration_sec=_DURATION)
    return out


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("preset", ["forwarding", "routing", "ipsec"])
    @pytest.mark.parametrize("size", [64, 1024])
    def test_observed_bottleneck_matches_model(self, matrix, preset, size):
        report = matrix[(preset, size)]
        assert report.agreement, (
            "%s @ %dB: DES observed %s but the model predicts %s"
            % (preset, size, report.observed_bottleneck,
               report.predicted_bottleneck))

    @pytest.mark.parametrize("preset", ["forwarding", "routing", "ipsec"])
    @pytest.mark.parametrize("size", [64, 1024])
    def test_matches_analysis_deconstruct(self, matrix, preset, size):
        report = matrix[(preset, size)]
        analytic = deconstruct(cal.APPLICATIONS[preset], size)
        assert report.predicted_bottleneck == analytic.bottleneck
        assert report.observed_bottleneck == analytic.bottleneck

    def test_latency_decomposition_conserves(self, matrix):
        for report in matrix.values():
            assert report.latency is not None
            assert report.latency["max_residual_fraction"] <= 0.01

    def test_headroom_of_binding_resource_is_unity(self, matrix):
        report = matrix[("forwarding", 64)]
        binding = report.predicted_bottleneck
        assert report.predicted_headroom[binding] == pytest.approx(1.0)
        for name, headroom in report.predicted_headroom.items():
            assert headroom >= 1.0 - 1e-9, name

    def test_observed_loads_match_predicted(self, matrix):
        # The DES charges the same calibrated vectors the compiler sums,
        # so per-packet loads agree closely (empty-poll correction and
        # partial batches account for the slack).
        report = matrix[("routing", 64)]
        for name, predicted in report.predicted_loads.items():
            observed = report.observed_loads[name]
            assert observed == pytest.approx(predicted, rel=0.05), name

    def test_top_elements_name_the_pipeline(self, matrix):
        report = matrix[("routing", 64)]
        names = [row["element"] for row in report.top_elements]
        assert "rt" in names  # LookupIPRoute dominates routing

    def test_report_serializes(self, matrix):
        report = matrix[("forwarding", 64)]
        data = report.to_dict()
        json.dumps(data)  # must be JSON-clean
        assert data["predicted_bottleneck"] == report.predicted_bottleneck
        assert "agreement" in report.summary() or "Explain" in str(report)

    def test_transcript_mentions_both_sides(self, matrix):
        text = format_explain(matrix[("ipsec", 64)])
        assert "predicted (analytic)" in text
        assert "observed (DES" in text
        assert "agrees with the analytic model" in text
        assert "latency decomposition" in text


class TestExplainInputs:
    def test_rejects_silly_load_fraction(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            explain_pipeline("forwarding", load_fraction=1.5)

    def test_accepts_raw_click_text(self):
        report = explain_pipeline(
            "src :: PollDevice(0); dst :: ToDevice(0); src -> dst;",
            duration_sec=_DURATION)
        assert isinstance(report, ExplainReport)
        assert report.pipeline == "<click text>"


class TestExplainFromRegistry:
    def test_section_shape(self):
        from repro.click.simrun import TimedPipelineRun
        from repro.hw import nehalem_server
        registry = MetricsRegistry(enabled=True, profile=True,
                                   trace_sample_every=16)
        run = TimedPipelineRun(nehalem_server(), "forwarding",
                               metrics=registry)
        run.run(4e9, duration_sec=_DURATION)
        section = explain_from_registry(registry)
        assert section["span_paths"] > 0
        assert section["top_frames"]
        assert section["latency"]["packets"] > 0
        json.dumps(section)

    def test_bench_doc_with_explain_validates(self):
        # A minimal doc with the new optional section passes the schema.
        doc = {
            "schema": "repro.bench/3", "name": "x",
            "status": "passed", "tests": [],
            "scalars": {}, "metrics": {},
            "explain": {"latency": None, "top_frames": [],
                        "span_paths": 0},
        }
        assert validate_bench(doc) == []
        doc["explain"] = "nope"
        assert validate_bench(doc)


class TestCli:
    def test_explain_smoke(self, capsys):
        code = main(["obs", "explain", "forwarding", "--size", "64",
                     "--duration-ms", "0.4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bottleneck=cpu" in out
        assert "agrees with the analytic model" in out

    def test_explain_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["obs", "explain"])
        assert exit_info.value.code == 2
        assert "target" in capsys.readouterr().err

    def test_explain_reads_bench_json(self, tmp_path, capsys):
        doc = {
            "schema": "repro.bench/3", "name": "demo",
            "status": "passed", "tests": [],
            "scalars": {}, "metrics": {},
            "explain": {
                "latency": {
                    "packets": 4, "mean_end_to_end_usec": 1.0,
                    "stages_usec": {"element_service": 1.0},
                    "stage_fractions": {"element_service": 1.0},
                    "max_residual_fraction": 0.0,
                },
                "top_frames": [
                    {"element": "src", "self": 10.0, "fraction": 1.0}],
                "span_paths": 1,
            },
        }
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps(doc))
        assert main(["obs", "explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "src" in out and "element_service" in out

    def test_explain_rejects_doc_without_section(self, tmp_path, capsys):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"name": "old"}))
        assert main(["obs", "explain", str(path)]) == 2
