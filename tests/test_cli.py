"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_experiments_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "RB4-R" in out

    def test_experiments_run_one(self, capsys):
        assert main(["experiments", "T1"]) == 0
        out = capsys.readouterr().out
        assert "9.77" in out

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "Z9"]) == 2

    def test_plan(self, capsys):
        assert main(["plan", "--ports", "64"]) == 0
        out = capsys.readouterr().out
        assert "KAryNFly" in out
        assert "switched" in out

    def test_server(self, capsys):
        assert main(["server", "--app", "ipsec", "--size", "64"]) == 0
        out = capsys.readouterr().out
        assert "1.40 Gbps" in out
        assert "cpu" in out

    def test_server_next_gen(self, capsys):
        assert main(["server", "--app", "routing", "--spec", "next-gen",
                     "--no-nic-limit"]) == 0
        out = capsys.readouterr().out
        assert "memory" in out

    def test_rb4(self, capsys):
        assert main(["rb4"]) == 0
        out = capsys.readouterr().out
        assert "12.00" in out
        assert "47.6" in out

    def test_plan_ports_flag(self, capsys):
        assert main(["plan", "--ports", "4"]) == 0
        out = capsys.readouterr().out
        assert "N=4 ports" in out

    def test_plan_without_ports_errors(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["plan"])
        assert exit_info.value.code == 2
        assert "--ports" in capsys.readouterr().err

    def test_faults_curve(self, capsys):
        assert main(["faults", "curve", "--nodes", "8"]) == 0
        out = capsys.readouterr().out
        assert "Degradation, 8 nodes" in out
        assert "uniform" in out

    def test_faults_curve_is_default_action(self, capsys):
        assert main(["faults"]) == 0
        assert "Degradation" in capsys.readouterr().out

    def test_faults_run_default_schedule(self, capsys):
        assert main(["faults", "run", "--nodes", "4", "--duration-ms", "1",
                     "--load", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "2 fault events" in out
        assert "node_down" in out and "node_up" in out
        assert "all FIBs current" in out

    def test_faults_run_schedule_file(self, capsys, tmp_path):
        from repro.faults import FaultSchedule
        path = tmp_path / "faults.json"
        path.write_text(FaultSchedule()
                        .crash_node(at=0.2e-3, node=1).to_json())
        assert main(["faults", "run", "--nodes", "4", "--duration-ms", "1",
                     "--load", "0.2", "--schedule", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 fault events" in out
        assert "1 failed" in out

    def test_faults_run_refuses_a_non_finite_schedule(self, capsys,
                                                       tmp_path):
        path = tmp_path / "faults.json"
        path.write_text('[{"time": 1e-4, "kind": "nic_stall", "node": 0,'
                        ' "duration_sec": 1e400}]')
        assert main(["faults", "run", "--nodes", "4", "--duration-ms", "1",
                     "--load", "0.2", "--schedule", str(path)]) == 2
        assert "cannot load fault schedule" in capsys.readouterr().err

    def test_trace_generate_and_info(self, capsys, tmp_path):
        path = str(tmp_path / "t.pcap")
        assert main(["trace", "generate", path, "--packets", "500"]) == 0
        assert main(["trace", "info", path]) == 0
        out = capsys.readouterr().out
        assert "500 packets" in out

    def test_experiments_summary(self, capsys):
        assert main(["experiments", "summary"]) == 0
        out = capsys.readouterr().out
        assert "RB4 throughput" in out
        assert "ratio" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "worst disagreement" in out

    def test_power(self, capsys):
        assert main(["power", "--servers", "4"]) == 0
        out = capsys.readouterr().out
        assert "2.60 kW" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRefusedInput:
    """A bad value is refused with exit 2 and one ``error:`` line, never
    a traceback."""

    @pytest.mark.parametrize("argv", [
        ["server", "--size", "0"],
        ["rb4", "--nodes", "1"],
        ["plan", "--ports", "0"],
        ["power", "--servers", "0"],
        ["faults", "curve", "--nodes", "1"],
        ["faults", "run", "--duration-ms", "0"],
        ["faults", "run", "--size", "inf"],
        ["faults", "run", "--size", "nan"],
        ["stateful", "run", "nat", "--cores", "0"],
        ["stateful", "run", "nat", "--skew", "nan"],
        ["trace", "info", "no-such-trace.pcap"],
        ["control", "run", "--duration-ms", "-1"],
    ], ids=" ".join)
    def test_bad_value_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["obs", "diff", "a.json", "b.json", "--quick"],
        ["control", "churn", "rb4", "--update-rate", "1e6"],
        ["faults", "curve", "--schedule", "x.json"],
        ["trace", "info", "p.pcap", "--packets", "5"],
    ], ids=" ".join)
    def test_flag_of_another_action_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert flag in capsys.readouterr().err

    def test_every_flag_is_read_by_its_handler(self):
        """Walk the parser: each (command, action) accepts only the
        arguments its handler reads."""
        import argparse
        import inspect

        def walk(parser, path):
            handler = parser.get_default("func")
            subs = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
            if handler is not None:
                source = inspect.getsource(handler)
                for action in parser._actions:
                    if action.dest in ("help", "command", "action") or \
                            action in subs:
                        continue
                    assert "args.%s" % action.dest in source, \
                        (path, action.dest)
            for sub in subs:
                for name, child in sub.choices.items():
                    yield from walk(child, path + (name,))
            yield path

        assert len(list(walk(build_parser(), ()))) > 13


class TestParallelCommand:
    def test_parallel_run_inline(self, capsys):
        assert main(["parallel", "run", "rb4", "--workers", "2",
                     "--backend", "inline", "--duration-ms", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "4 nodes across 2 worker(s)" in out
        assert "critical-path" in out
        assert "delivered" in out

    def test_parallel_single_worker_delegates(self, capsys):
        assert main(["parallel", "run", "rb4", "--workers", "1",
                     "--backend", "inline", "--duration-ms", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "single-heap run" in out

    def test_parallel_matches_across_worker_counts(self, capsys):
        assert main(["parallel", "run", "rb4", "--workers", "1",
                     "--backend", "inline", "--duration-ms", "0.4"]) == 0
        single = capsys.readouterr().out.splitlines()[1]
        assert main(["parallel", "run", "rb4", "--workers", "4",
                     "--backend", "inline", "--duration-ms", "0.4"]) == 0
        sharded = capsys.readouterr().out.splitlines()[1]
        assert single == sharded  # offered/delivered/dropped line

    def test_parallel_bad_topology(self, capsys):
        assert main(["parallel", "run", "mesh9"]) == 2
        assert "rb4/rb8/rb32" in capsys.readouterr().err

    def test_parallel_too_many_workers(self, capsys):
        assert main(["parallel", "run", "rb4", "--workers", "9",
                     "--backend", "inline"]) == 2
        assert "partition count" in capsys.readouterr().err
