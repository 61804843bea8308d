"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main

#: Byte-exact ``repro <kind>`` listings (``REPRO_MACHINE_PATH`` unset).
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.algorithm == "hss"
        assert args.procs == 16

    def test_sort_short_flags_and_workload_alias(self):
        args = build_parser().parse_args(
            ["sort", "-p", "4", "-n", "100", "--workload", "staircase"]
        )
        assert args.procs == 4
        assert args.keys == 100
        assert args.distribution == "staircase"

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--procs", "1024", "--eps", "0.1"]
        )
        assert args.procs == 1024 and args.eps == 0.1


class TestSortCommand:
    def test_hss_uniform(self, capsys):
        code = main(
            ["sort", "--procs", "4", "--keys", "500", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "imbalance" in out
        assert "rounds" in out
        assert "TOTAL" in out  # phase table

    def test_baseline_algorithm(self, capsys):
        code = main(
            [
                "sort",
                "--algorithm",
                "sample-regular",
                "--procs",
                "4",
                "--keys",
                "400",
                "--eps",
                "0.2",
            ]
        )
        assert code == 0
        assert "sample-regular" in capsys.readouterr().out

    def test_duplicates_with_tagging(self, capsys):
        code = main(
            [
                "sort",
                "--procs",
                "4",
                "--keys",
                "400",
                "--distribution",
                "staircase",
                "--tag-duplicates",
            ]
        )
        assert code == 0

    def test_unknown_algorithm_exits_2(self, capsys):
        assert main(["sort", "--algorithm", "quicksort"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_unknown_distribution_exits_2(self, capsys):
        assert main(["sort", "--distribution", "cauchy"]) == 2
        assert "unknown workload 'cauchy'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["-p", "0"], "procs must be >= 1, got 0"),
            (["-p", "-3"], "procs must be >= 1, got -3"),
            (["-n", "0"], "keys_per_rank must be >= 1, got 0"),
        ],
    )
    def test_nonpositive_sizes_exit_2(self, argv, message, capsys):
        assert main(["sort", *argv]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_acceptance_invocation_prints_sortrun_summary(self, capsys):
        code = main(
            [
                "sort",
                "--algorithm",
                "hss",
                "--workload",
                "uniform",
                "-p",
                "8",
                "-n",
                "1000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "imbalance" in out and "modeled makespan" in out
        assert "TOTAL" in out

    def test_payload_roundtrip_flag(self, capsys):
        code = main(
            ["sort", "--algorithm", "sample-regular", "-p", "4", "-n", "300",
             "--payloads", "index"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "payloads" in out and "1,200 values" in out

    def test_bad_config_key_exits_2_not_traceback(self, capsys):
        code = main(
            ["sort", "--algorithm", "radix", "-p", "4", "-n", "100",
             "--tag-duplicates"]
        )
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_strict_verification_failure_exits_1_not_traceback(self, capsys):
        # Constant keys on 16 ranks: hss's strict check cannot reach its
        # tolerance without tagging and raises inside the run.
        code = main(
            ["sort", "--algorithm", "hss", "--workload", "constant",
             "-p", "16", "-n", "97"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("verification failed: splitter determination")
        assert len(err.splitlines()) == 1

    def test_post_run_verification_failure_exits_1(self, monkeypatch, capsys):
        import repro.metrics
        from repro.errors import VerificationError

        def failing(inputs, outputs, eps=None, *, sorted_inputs=None):
            raise VerificationError("output keys are not a permutation")

        monkeypatch.setattr(repro.metrics, "verify_sorted_output", failing)
        code = main(["sort", "-p", "4", "-n", "100"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "verification failed: output keys are not a permutation\n"
        )
        assert "imbalance" not in captured.out

    def test_payloads_with_incapable_algorithm_exits_2(self, capsys):
        code = main(
            ["sort", "--algorithm", "bitonic", "-p", "4", "-n", "100",
             "--payloads", "index"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not support payloads" in err
        # The pre-check names the payload-capable alternatives.
        assert "hss" in err and "sample-regular" in err

    @pytest.mark.parametrize(
        "spec", ["bytes", "S0", "S8", "3f8", "M8[s]", "c16"]
    )
    def test_zero_width_payload_column_exits_2(self, capsys, spec):
        """Zero-width columns, and columns no workload can fill, fail at
        schema parse, before any data is generated."""
        code = main(
            ["sort", "--algorithm", "sample-regular", "-p", "4", "-n", "100",
             "--payloads", f"tag:{spec}"]
        )
        assert code == 2
        err = capsys.readouterr().err
        if spec in ("bytes", "S0"):
            assert f"column dtype '{spec}' has zero width" in err
        else:
            assert f"column 'tag' dtype '{spec}' cannot be generated" in err

    def test_catalog_workload_beyond_distributions(self, capsys):
        code = main(
            ["sort", "--algorithm", "hss", "--workload", "hotspot",
             "-p", "4", "-n", "200", "--tag-duplicates"]
        )
        assert code == 0
        assert "hotspot" in capsys.readouterr().out


class TestSortScenarioParity:
    """``repro sort`` prints the metrics of the Scenario it runs."""

    CASES = [
        ([], {}),
        (["--algorithm", "hss-node", "--machine", "mira-like-bgq"],
         {"algorithm": "hss-node", "machine": "mira-like-bgq"}),
        (["--workload", "changa-dwarf", "--payloads", "workload"],
         {"workload": "changa-dwarf", "payloads": "workload"}),
        (["--algorithm", "histogram", "--payloads", "index"],
         {"algorithm": "histogram"}),
        (["--workload", "staircase", "--tag-duplicates"],
         {"workload": "staircase"}),
        (["--workload", "drifting-mixture", "--chaos", "stragglers"],
         {"workload": "drifting-mixture", "chaos": "stragglers"}),
    ]

    @pytest.mark.parametrize(
        "argv, fields",
        CASES,
        ids=["default", "hss-node", "workload-payloads", "index-payloads",
             "tag-duplicates", "chaos"],
    )
    def test_printed_metrics_match_scenario(self, argv, fields, capsys):
        from repro.experiments import Scenario

        assert main(["sort", "-p", "8", "-n", "2000", *argv]) == 0
        out = capsys.readouterr().out
        cell = Scenario(
            **{"algorithm": "hss", "workload": "uniform", "procs": 8,
               "keys_per_rank": 2000, "layout": "node", **fields}
        )
        if "index" in argv:
            dataset = cell.build_dataset().with_index_payloads()
            metrics = cell.execute(dataset=dataset)[1]["metrics"]
        elif "--tag-duplicates" in argv:
            knobs = {"tag_duplicates": True}
            metrics = cell.execute(knobs=knobs)[1]["metrics"]
        else:
            metrics = cell.run()["metrics"]
        expected = [
            f"imbalance         : {metrics['imbalance']:.4f} ",
            f"modeled makespan  : {metrics['makespan_s']:.3e} s",
            f"network           : {metrics['net_messages']:,} messages, "
            f"{metrics['net_bytes']:,} bytes",
        ]
        if "rounds" in metrics:
            expected.append(f"rounds            : {metrics['rounds']}\n")
            expected.append(
                f"total sample      : {metrics['total_sample']} keys "
            )
        if "chaos_slowdown" in metrics:
            expected.append(f"slowdown {metrics['chaos_slowdown']:.2f}x")
        for line in expected:
            assert line in out


class TestAlgorithmsCommand:
    def test_lists_registry_with_capabilities(self, capsys):
        from repro.algorithms import REGISTRY

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out
        assert "config:" in out and "§6.1.2" in out


class TestTableCommand:
    def test_table_5_1(self, capsys):
        assert main(["table", "5.1"]) == 0
        out = capsys.readouterr().out
        assert "Table 5.1" in out and "HSS" in out

    def test_intro(self, capsys):
        assert main(["table", "intro", "--procs", "64000"]) == 0
        out = capsys.readouterr().out
        assert "655 GB" in out


class TestSimulateCommand:
    def test_constant_schedule(self, capsys):
        code = main(
            [
                "simulate",
                "--procs",
                "512",
                "--keys-per-proc",
                "1000",
                "--eps",
                "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "finalized: True" in out
        assert "paper round bound" in out

    def test_geometric_schedule(self, capsys):
        code = main(
            [
                "simulate",
                "--procs",
                "256",
                "--keys-per-proc",
                "1000",
                "--rounds",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "geometric, k=2" in out


class TestBenchCommand:
    @pytest.fixture(scope="class")
    def bench_json(self, tmp_path_factory):
        """One real quick-tier run of a cheap suite, shared by the class."""
        path = tmp_path_factory.mktemp("bench") / "bench.json"
        assert (
            main(
                [
                    "bench",
                    "--tier",
                    "quick",
                    "--suite",
                    "ablation_approx",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        return path

    def test_list_exits_0(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "shootout" in out and "table_5_1" in out

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "--suite", "quicksort"]) == 2
        assert "unknown benchmark suite" in capsys.readouterr().err

    def test_candidate_without_baseline_exits_2(self, capsys, tmp_path):
        assert main(["bench", "--candidate", str(tmp_path / "x.json")]) == 2
        assert "requires --baseline" in capsys.readouterr().err

    def test_candidate_rejects_run_only_flags(self, bench_json, capsys):
        code = main(
            [
                "bench",
                "--baseline",
                str(bench_json),
                "--candidate",
                str(bench_json),
                "--json",
                "out.json",
            ]
        )
        assert code == 2
        assert "no effect with --candidate" in capsys.readouterr().err
        assert main(
            [
                "bench",
                "--baseline",
                str(bench_json),
                "--candidate",
                str(bench_json),
                "--tier",
                "full",
            ]
        ) == 2

    def test_run_writes_schema_valid_json(self, bench_json):
        from repro.bench.schema import BenchDocument, validate_document
        import json

        data = json.loads(bench_json.read_text())
        assert validate_document(data) == []
        doc = BenchDocument.load(bench_json)
        assert doc.suite_names() == ["ablation_approx"]

    def test_clean_rerun_against_baseline_exits_0(self, bench_json, capsys):
        code = main(
            [
                "bench",
                "--tier",
                "quick",
                "--suite",
                "ablation_approx",
                "--baseline",
                str(bench_json),
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_self_compare_exits_0(self, bench_json, capsys):
        code = main(
            [
                "bench",
                "--baseline",
                str(bench_json),
                "--candidate",
                str(bench_json),
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_makespan_regression_exits_1(self, bench_json, tmp_path, capsys):
        import json

        data = json.loads(bench_json.read_text())
        for suite in data["suites"]:
            for case in suite["cases"]:
                if "makespan_s" in case["metrics"]:
                    case["metrics"]["makespan_s"] *= 2
        inflated = tmp_path / "inflated.json"
        inflated.write_text(json.dumps(data))
        code = main(
            [
                "bench",
                "--baseline",
                str(bench_json),
                "--candidate",
                str(inflated),
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_tolerance_flag_relaxes_gate(self, bench_json, tmp_path):
        import json

        data = json.loads(bench_json.read_text())
        for suite in data["suites"]:
            for case in suite["cases"]:
                if "makespan_s" in case["metrics"]:
                    case["metrics"]["makespan_s"] *= 2
        inflated = tmp_path / "inflated.json"
        inflated.write_text(json.dumps(data))
        code = main(
            [
                "bench",
                "--baseline",
                str(bench_json),
                "--candidate",
                str(inflated),
                "--tol-makespan",
                "1.5",
            ]
        )
        assert code == 0

    def test_tier_mismatch_with_baseline_rejected_before_running(
        self, bench_json, capsys
    ):
        # The committed-style baseline is quick-tier; a full-tier run must
        # be rejected in milliseconds, not after the measurement.
        code = main(
            ["bench", "--tier", "full", "--baseline", str(bench_json)]
        )
        assert code == 2
        assert "incomparable" in capsys.readouterr().err

    def test_subset_absent_from_baseline_exits_2(self, bench_json, capsys):
        # Gating a suite the baseline never measured must not pass vacuously.
        code = main(
            [
                "bench",
                "--tier",
                "quick",
                "--suite",
                "table_5_1",
                "--baseline",
                str(bench_json),  # contains only ablation_approx
            ]
        )
        assert code == 2
        assert "none of the selected suites" in capsys.readouterr().err

    def test_corrupt_baseline_exits_2(self, bench_json, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            ["bench", "--baseline", str(bad), "--candidate", str(bench_json)]
        )
        assert code == 2
        assert "cannot load baseline" in capsys.readouterr().err


class TestBenchParallelAndTiers:
    def test_invalid_jobs_exits_2(self, capsys):
        assert main(["bench", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_rejected_with_candidate(self, tmp_path, capsys):
        import json

        stub = tmp_path / "doc.json"
        stub.write_text(
            json.dumps({"schema_version": 1, "tier": "quick", "suites": []})
        )
        code = main(
            [
                "bench",
                "--baseline",
                str(stub),
                "--candidate",
                str(stub),
                "--jobs",
                "2",
            ]
        )
        assert code == 2
        assert "no effect with --candidate" in capsys.readouterr().err

    def test_parallel_run_modeled_identical_to_serial(self, tmp_path):
        import json

        from repro.bench.schema import strip_volatile

        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        args = ["bench", "--tier", "quick", "--suite", "ablation_approx",
                "--suite", "table_5_1"]
        assert main(args + ["--jobs", "1", "--json", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--json", str(parallel)]) == 0
        a, b = (
            strip_volatile(json.loads(path.read_text()))
            for path in (serial, parallel)
        )
        assert a == b
        # Worker provenance is recorded next to (not inside) the payload.
        data = json.loads(parallel.read_text())
        assert all(run["worker"]["jobs"] == 2 for run in data["suites"])
        assert all(run["worker"]["pid"] > 0 for run in data["suites"])

    def test_stress_tier_selects_only_stress_suites(self, tmp_path, capsys):
        from repro.bench.registry import suite_names

        out = tmp_path / "stress.json"
        code = main(
            [
                "bench",
                "--tier",
                "stress",
                "--suite",
                "fig_3_1",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        import json

        data = json.loads(out.read_text())
        assert data["tier"] == "stress"
        assert [run["suite"] for run in data["suites"]] == ["fig_3_1"]
        assert len(suite_names("stress")) >= 4

    def test_stress_tier_rejects_non_stress_suite(self, capsys):
        code = main(["bench", "--tier", "stress", "--suite", "table_5_1"])
        assert code == 2
        assert "do not define tier 'stress'" in capsys.readouterr().err


class TestMachineFlag:
    def test_sort_reports_resolved_machine(self, capsys):
        code = main(
            ["sort", "-p", "4", "-n", "300", "--machine", "dragonfly-hpc"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dragonfly-hpc machine" in out
        assert "dragonfly topology" in out

    def test_unknown_machine_exits_2(self, capsys):
        assert main(["sort", "--machine", "pdp-11"]) == 2
        assert "unknown machine" in capsys.readouterr().err


class TestMachinesCommand:
    def test_lists_all_presets_with_notes(self, capsys):
        from repro.machines import MACHINES

        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert len(MACHINES) >= 6
        for name in MACHINES:
            assert name in out
        assert "torus" in out and "alpha=" in out

    def test_lists_specs_from_machine_path(self, capsys, monkeypatch, tmp_path):
        from repro.machines import MACHINES, MachineSpec

        monkeypatch.setattr(MACHINES, "_entries", dict(MACHINES._entries))
        path = tmp_path / "box.json"
        path.write_text(MachineSpec(name="box", note="path probe").to_json())
        monkeypatch.setenv("REPRO_MACHINE_PATH", str(path))
        assert main(["machines"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("box ") for line in lines)
        assert any(line.endswith(" path probe") for line in lines)


class TestListingGolden:
    """``repro <kind>`` listings are pinned byte for byte."""

    @pytest.mark.parametrize(
        "command", ["algorithms", "machines", "workloads", "backends", "chaos"]
    )
    def test_stdout_matches_golden(self, command, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_MACHINE_PATH", raising=False)
        assert main([command]) == 0
        golden = GOLDEN_DIR / f"{command}.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


class TestWorkloadsCommand:
    def test_lists_registry_with_record_schemas(self, capsys):
        from repro.workloads import WORKLOAD_SPECS

        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOAD_SPECS:
            assert name in out
        # Record-carrying workloads show their columns, the rest say so.
        assert "records: mass:<f8" in out
        assert "keys only" in out
        assert "§6.3" in out


class TestChaosCommand:
    def test_lists_registered_fault_plans(self, capsys):
        from repro.chaos import FAULT_PLANS

        assert main(["chaos"]) == 0
        out = capsys.readouterr().out
        for name in FAULT_PLANS:
            assert name in out
        assert "(default)" in out  # the fault-free 'none' plan
        assert "straggler_prob=" in out

    def test_sort_with_unknown_plan_exits_2(self, capsys):
        assert main(["sort", "--chaos", "storm"]) == 2
        assert "unknown fault plan" in capsys.readouterr().err

    def test_sort_reports_chaos_metrics_line(self, capsys):
        code = main(
            ["sort", "-p", "4", "-n", "400", "--chaos", "stragglers"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos" in out
        assert "stragglers" in out and "slowdown" in out

    def test_sort_surfaces_injected_fault_with_provenance(self, capsys):
        code = main(
            ["sort", "-p", "4", "-n", "400", "--chaos", "kill-rank"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "injected fault detected" in err
        assert "fault provenance" in err
        assert "not SPMD" in err


class TestSweepCommand:
    def test_two_by_two_grid_with_json(self, capsys, tmp_path):
        path = tmp_path / "experiment.json"
        code = main(
            [
                "sweep",
                "--algorithms", "hss,sample-regular",
                "--workloads", "uniform,staircase",
                "--machines", "laptop",
                "-p", "4",
                "-n", "200",
                "--json", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 cells (4 ok, 0 skipped)" in out

        from repro.experiments import ExperimentDocument, validate_experiment

        doc = ExperimentDocument.load(path)
        assert validate_experiment(doc.to_dict()) == []
        assert len(doc.cells) == 4

    def test_jobs_matches_serial(self, tmp_path, capsys):
        import json

        from repro.experiments import strip_volatile_experiment

        args = [
            "sweep", "--algorithms", "hss", "--workloads", "uniform",
            "-p", "4", "-n", "200",
        ]
        paths = []
        for jobs, tag in (("1", "serial"), ("2", "parallel")):
            path = tmp_path / f"{tag}.json"
            assert main(args + ["--jobs", jobs, "--json", str(path)]) == 0
            paths.append(path)
        capsys.readouterr()
        serial, parallel = (
            json.dumps(
                strip_volatile_experiment(json.loads(p.read_text())),
                sort_keys=True,
            )
            for p in paths
        )
        assert serial == parallel

    def test_report_file(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code = main(
            [
                "sweep", "--algorithms", "hss", "--workloads", "uniform",
                "-p", "4", "-n", "200", "--report", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert report.read_text().strip() == out.strip()

    def test_payloads_axis(self, capsys, tmp_path):
        path = tmp_path / "records.json"
        code = main(
            [
                "sweep", "--algorithms", "hss,bitonic",
                "--workloads", "uniform", "-p", "4", "-n", "200",
                "--payloads", "none", "--payloads", "mass:f8,id:u4",
                "--json", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # bitonic's record cell is infeasible: skipped, not fatal.
        assert "4 cells (3 ok, 1 skipped)" in out

        import json

        doc = json.loads(path.read_text())
        assert doc["grid"]["payloads"] == ["", "mass:f8,id:u4"]
        by_name = {
            c["scenario"]["payloads"]: c
            for c in doc["cells"]
            if c["scenario"]["algorithm"] == "hss"
        }
        assert by_name["mass:f8,id:u4"]["metrics"]["record_bytes"] == 20
        assert (
            by_name["mass:f8,id:u4"]["metrics"]["net_bytes"]
            > by_name[""]["metrics"]["net_bytes"]
        )
        skipped = [c for c in doc["cells"] if c["status"] == "skipped"]
        assert len(skipped) == 1
        assert skipped[0]["scenario"]["algorithm"] == "bitonic"
        assert "does not support payloads" in skipped[0]["reason"]

    def test_bad_algorithm_exits_2(self, capsys):
        code = main(
            ["sweep", "--algorithms", "quicksort", "--workloads", "uniform"]
        )
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_bad_procs_exits_2(self, capsys):
        code = main(
            ["sweep", "--algorithms", "hss", "--workloads", "uniform",
             "-p", "four"]
        )
        assert code == 2
        assert "bad -p/-n" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, capsys):
        code = main(
            ["sweep", "--algorithms", "hss", "--workloads", "uniform",
             "--jobs", "0"]
        )
        assert code == 2
        assert "--jobs" in capsys.readouterr().err


class TestBackendsCommand:
    def test_lists_registered_backends(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "simulated" in out and "process" in out
        assert "(default)" in out


class TestBackendFlag:
    def test_sort_on_process_backend_reports_measured_wall(self, capsys):
        code = main(
            ["sort", "-p", "4", "-n", "400", "--backend", "process",
             "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "measured wall" in out
        assert "'process' (2 workers" in out
        assert "modeled makespan" in out  # both sides of the story

    def test_sort_simulated_prints_measured_line(self, capsys):
        code = main(["sort", "-p", "4", "-n", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "measured wall" in out
        assert "'simulated' (1 workers" in out
        assert "collective wait" in out

    def test_unknown_backend_exits_2(self, capsys):
        assert main(["sort", "--backend", "quantum"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_chaos_run_reports_the_chosen_backend(self, capsys):
        code = main(
            ["sort", "-p", "4", "-n", "400", "--backend", "thread",
             "--workers", "2", "--chaos", "stragglers"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "plan 'stragglers'" in out
        assert "on backend 'thread' (2 workers" in out

    def test_invalid_workers_exits_2(self, capsys):
        code = main(["sort", "--backend", "process", "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_sweep_backend_lands_in_document(self, tmp_path):
        import json

        out = tmp_path / "experiment.json"
        code = main(
            ["sweep", "--algorithms", "hss", "--workloads", "uniform",
             "-p", "4", "-n", "300", "--backend", "process",
             "--json", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["grid"]["backend"] == "process"
        assert all(
            c["scenario"]["backend"] == "process" for c in data["cells"]
        )

    def test_sweep_unknown_backend_exits_2(self, capsys):
        code = main(
            ["sweep", "--algorithms", "hss", "--workloads", "uniform",
             "--backend", "quantum"]
        )
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err


class TestBenchBackendFlag:
    def test_backend_override_recorded_in_params(self, tmp_path):
        import json

        out = tmp_path / "bench.json"
        code = main(
            ["bench", "--tier", "quick", "--suite", "ablation_approx",
             "--backend", "process", "--json", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        (suite,) = data["suites"]
        assert suite["params"]["backend"] == "process"

    def test_unknown_backend_exits_2(self, capsys):
        code = main(
            ["bench", "--tier", "quick", "--suite", "shootout",
             "--backend", "quantum"]
        )
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_variant_backend_exits_2_before_any_suite_runs(self, capsys):
        code = main(
            ["bench", "--tier", "quick", "--suite", "chaos_resilience",
             "--backend", "chaos:process"]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == (
            "unknown backend 'chaos:process'; "
            "choose from ['process', 'simulated', 'thread']\n"
        )

    def test_backend_without_supporting_suite_exits_2(self, capsys):
        code = main(
            ["bench", "--tier", "quick", "--suite", "fig_3_1",
             "--backend", "process"]
        )
        assert code == 2
        assert "runtime param" in capsys.readouterr().err

    def test_backend_rejected_with_candidate(self, tmp_path, capsys):
        # A real (tiny) document, so rejection is about the flag, not the
        # file.
        doc = tmp_path / "doc.json"
        assert main(
            ["bench", "--tier", "quick", "--suite", "table_5_1",
             "--json", str(doc)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["bench", "--baseline", str(doc),
             "--candidate", str(doc), "--backend", "process"]
        )
        assert code == 2
        assert "--backend have no effect" in capsys.readouterr().err


class TestBenchSuiteGlobs:
    def test_glob_runs_matching_suites(self, tmp_path):
        import json

        out = tmp_path / "bench.json"
        code = main(
            ["bench", "--tier", "quick", "--suite", "table_*",
             "--json", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert [run["suite"] for run in data["suites"]] == [
            "table_5_1",
            "table_6_1",
        ]

    def test_glob_matching_nothing_exits_2(self, capsys):
        code = main(["bench", "--tier", "quick", "--suite", "nope_*"])
        assert code == 2
        assert "matches no registered suite" in capsys.readouterr().err


class TestExecutionOptionAgreement:
    """The shared --machine/--backend/--workers/--payloads flags.

    Satellite pin: the execution options are defined once
    (cli._EXECUTION_OPTIONS) and attached through one parent parser, so
    every subcommand exposing a flag must show the *same* spelling,
    metavar, value type and help text.  If this test fails, someone
    re-declared a shared flag locally instead of extending the table.
    """

    COMMANDS = ("sort", "sweep", "bench", "serve", "calibrate")
    FLAGS = (
        "--machine", "--backend", "--workers", "--payloads", "--chaos",
        "--trace",
    )

    @staticmethod
    def _subparsers():
        import argparse

        parser = build_parser()
        action = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return action.choices

    def _actions_for(self, flag):
        found = {}
        for command, sub in self._subparsers().items():
            if command not in self.COMMANDS:
                continue
            for action in sub._actions:
                if flag in action.option_strings:
                    found[command] = action
        return found

    @pytest.mark.parametrize("flag", FLAGS)
    def test_help_text_agrees(self, flag):
        found = self._actions_for(flag)
        assert found, f"{flag} defined by no subcommand"
        for attr in ("help", "metavar", "type"):
            values = {getattr(a, attr) for a in found.values()}
            assert len(values) == 1, (
                f"{flag} {attr} drifted across {sorted(found)}: {values}"
            )

    def test_expected_subcommand_coverage(self):
        coverage = {
            flag: set(self._actions_for(flag)) for flag in self.FLAGS
        }
        assert coverage["--backend"] == {
            "sort", "sweep", "bench", "serve", "calibrate"
        }
        assert coverage["--machine"] == {"sort", "serve"}
        assert coverage["--payloads"] == {"sort", "sweep"}
        assert coverage["--workers"] == {"sort", "calibrate"}
        assert coverage["--chaos"] == {"sort", "sweep"}
        assert coverage["--trace"] == {"sort", "sweep", "serve"}

    def test_defaults_are_per_command(self):
        # Defaults intentionally differ (sort runs on 'laptop'; serve
        # injects nothing so each job's own scenario wins).
        machine = self._actions_for("--machine")
        assert machine["sort"].default == "laptop"
        assert machine["serve"].default is None
        backend = self._actions_for("--backend")
        assert backend["sort"].default == "simulated"
        assert backend["bench"].default is None


class TestServeCommand:
    def _serve(self, lines, argv=(), monkeypatch=None):
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin", io.StringIO("".join(line + "\n" for line in lines))
        )
        code = main(["serve", *argv])
        return code

    def test_stream_repeat_job_hits_cache(self, capsys, monkeypatch):
        import json

        job = json.dumps({
            "id": "a", "scenario": {
                "algorithm": "hss", "workload": "uniform",
                "procs": 4, "keys_per_rank": 1500,
            },
        })
        code = self._serve([job, job], monkeypatch=monkeypatch)
        out, err = capsys.readouterr().out, capsys.readouterr().err
        assert code == 0
        replies = [json.loads(line) for line in out.splitlines()]
        assert [r["status"] for r in replies] == ["ok", "ok"]
        assert replies[0]["cache"]["hit"] is False
        # Adjacent same-fingerprint jobs batch: the repeat warm-chains.
        assert replies[1]["cache"]["hit"] is True
        assert replies[1]["cache"]["source"] == "batch"
        assert (
            replies[1]["metrics"]["rounds"] < replies[0]["metrics"]["rounds"]
        )

    def test_malformed_job_replies_error_and_exit_0(self, capsys, monkeypatch):
        import json

        code = self._serve(["not json at all"], monkeypatch=monkeypatch)
        assert code == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["status"] == "error"
        assert reply["error"]["type"] == "JobError"

    def test_service_defaults_injected(self, capsys, monkeypatch):
        import json

        job = json.dumps({
            "id": "m", "scenario": {
                "algorithm": "hss", "workload": "uniform",
                "procs": 4, "keys_per_rank": 800,
            },
        })
        code = self._serve(
            [job], argv=["--machine", "cloud-ethernet"],
            monkeypatch=monkeypatch,
        )
        assert code == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["scenario"]["machine"] == "cloud-ethernet"

    def test_unknown_machine_exits_2(self, capsys, monkeypatch):
        code = self._serve(
            [], argv=["--machine", "nope"], monkeypatch=monkeypatch
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_unknown_backend_exits_2(self, capsys, monkeypatch):
        code = self._serve(
            [], argv=["--backend", "quantum"], monkeypatch=monkeypatch
        )
        assert code == 2
        assert "unknown backend 'quantum'" in capsys.readouterr().err

    def test_bad_cache_capacity_exits_2(self, capsys, monkeypatch):
        code = self._serve(
            [], argv=["--cache-capacity", "0"], monkeypatch=monkeypatch
        )
        assert code == 2
        assert "capacity" in capsys.readouterr().err


class TestCalibrateCommand:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        from repro.machines import MACHINES

        before = dict(MACHINES._entries)
        yield
        MACHINES._entries = before

    def test_dry_run_prints_doe_table(self, capsys):
        code = main(["calibrate", "--dry-run", "--profile", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c00/hss/uniform/p4/n1000/key" in out
        assert "(key-only)" in out

    def test_unknown_profile_exits_2(self, capsys):
        code = main(["calibrate", "--profile", "nope"])
        assert code == 2
        assert "unknown DoE profile" in capsys.readouterr().err

    def test_bad_trim_exits_2(self, capsys):
        code = main(
            ["calibrate", "--profile", "tiny", "--repeats", "1",
             "--trim", "1"]
        )
        assert code == 2
        assert "trim" in capsys.readouterr().err

    def test_non_measuring_backend_exits_2(self, capsys, unmeasured_backend):
        code = main(
            ["calibrate", "--profile", "tiny", "--backend",
             unmeasured_backend, "--repeats", "1", "--warmup", "0"]
        )
        assert code == 2
        assert "measuring backend" in capsys.readouterr().err

    def test_full_run_registers_and_writes_spec(self, capsys, tmp_path):
        import json

        from repro.machines import MachineSpec, resolve_machine

        out = tmp_path / "local.json"
        code = main(
            ["calibrate", "--profile", "tiny", "--repeats", "1",
             "--warmup", "0", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "fitted constants:" in stdout
        assert "total |measured - modeled|" in stdout
        assert "registered machine 'local-calibrated'" in stdout
        # The spec resolves in-process and round-trips through the file.
        spec = resolve_machine("local-calibrated")
        data = json.loads(out.read_text())
        assert MachineSpec.from_dict(data).name == "local-calibrated"
        assert data["provenance"]["profile"] == "tiny"
        assert data["provenance"]["backend"] == "thread"
        # `repro sweep --machines local-calibrated` accepts the result.
        code = main(
            ["sweep", "--algorithms", "hss", "--workloads", "uniform",
             "--machines", "local-calibrated", "-p", "4", "-n", "200"]
        )
        assert code == 0
        assert spec.gamma_compare >= 0.0
