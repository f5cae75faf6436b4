"""Tests for the command-line interface."""

import pytest

from repro.cli import main

FAST = ["--n", "400", "--disks", "3", "--page-size", "1024"]


class TestInfo:
    def test_prints_tree_shape(self, capsys):
        assert main(["info", *FAST]) == 0
        out = capsys.readouterr().out
        assert "height" in out
        assert "proximity" in out
        assert "disk" in out

    def test_policy_selection(self, capsys):
        assert main(["info", *FAST, "--policy", "round_robin"]) == 0
        assert "round_robin" in capsys.readouterr().out


class TestKnn:
    def test_default_query_sampled(self, capsys):
        assert main(["knn", *FAST, "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "pages in" in out
        assert out.count("\n") >= 8  # header + 5 answer rows

    def test_explicit_query(self, capsys):
        assert main(
            ["knn", *FAST, "--k", "3", "--query", "0.5,0.5",
             "--algorithm", "BBSS"]
        ) == 0
        out = capsys.readouterr().out
        assert "BBSS" in out

    def test_bad_query_dimension(self):
        with pytest.raises(SystemExit, match="coordinates"):
            main(["knn", *FAST, "--query", "0.5,0.5,0.5"])

    def test_unparseable_query(self):
        with pytest.raises(SystemExit, match="cannot parse"):
            main(["knn", *FAST, "--query", "a,b"])

    def test_surrogate_requires_2d(self):
        with pytest.raises(SystemExit, match="2-d"):
            main(
                ["knn", *FAST, "--dataset", "long_beach", "--dims", "3"]
            )


class TestSimulate:
    def test_poisson_workload(self, capsys):
        assert main(
            ["simulate", *FAST, "--queries", "5", "--k", "3",
             "--algorithms", "CRSS,WOPTSS", "--arrival-rate", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "CRSS" in out and "WOPTSS" in out
        assert "Poisson" in out

    def test_serial_mode(self, capsys):
        assert main(
            ["simulate", *FAST, "--queries", "3", "--k", "2",
             "--algorithms", "BBSS", "--arrival-rate", "0"]
        ) == 0
        assert "single-user" in capsys.readouterr().out

    def test_unknown_algorithm(self):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["simulate", *FAST, "--algorithms", "DIJKSTRA"])


class TestBadInputExitsCleanly:
    """A value a policy constructor or the workload rejects ends the
    command with its message and a non-zero status, never a traceback —
    on every run command alike."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--k", "0"),
            ("simulate", "--queries", "0"),
            ("simulate", "--arrival-rate", "-1"),
            ("simulate", "--buffer-pages", "100000"),
            ("serve", "--bus-time", "-1"),
            ("serve", "--k", "0"),
            ("serve", "--buffer-pages", "100000"),
            ("chaos", "--k", "0"),
            ("chaos", "--queries", "0"),
            ("chaos", "--buffer-pages", "-1"),
            ("knn", "--k", "0"),
            ("explain", "--k", "0"),
        ],
    )
    def test_message_and_nonzero_status(self, command, flag, value):
        with pytest.raises(SystemExit) as raised:
            main([command, *FAST, flag, value])
        message = raised.value.code
        assert isinstance(message, str) and message


class TestValidation:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_bad_n(self):
        with pytest.raises(SystemExit, match="--n"):
            main(["info", "--n", "0"])

    def test_rejects_bad_disks(self):
        with pytest.raises(SystemExit, match="--disks"):
            main(["info", "--disks", "0"])


class TestOneReadSide:
    @pytest.mark.parametrize(
        "command", ["knn", "explain", "simulate", "serve", "chaos", "bench"]
    )
    def test_kernels_and_layout_flags_are_gone(self, command, capsys):
        for flag in ("--kernels=scalar", "--layout=flat"):
            with pytest.raises(SystemExit) as caught:
                main([command, flag])
            assert caught.value.code == 2
            assert (
                f"unrecognized arguments: {flag}" in capsys.readouterr().err
            )


class TestBench:
    def test_smoke_writes_valid_json(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.perf import bench

        # Shrink the suite further than --smoke so the CLI test is fast;
        # the real smoke configs are covered by tests/perf.
        monkeypatch.setitem(
            bench._SUITE_CONFIGS, True,
            [dict(dataset="gaussian", n=300, dims=2, queries=2)],
        )
        path = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"bench written: {path}" in out
        assert "microbench" in out
        doc = json.loads(path.read_text())
        assert doc["schema"] == bench.BENCH_SCHEMA
        assert doc["smoke"] is True
        assert doc["configs"][0]["algorithms"]

    def test_missing_out_directory_rejected_up_front(self):
        with pytest.raises(SystemExit, match="directory does not exist"):
            main(["bench", "--smoke", "--out", "/no/such/dir/bench.json"])


class TestSimulateObservability:
    def test_percentile_and_breakdown_tables(self, capsys):
        assert main(
            ["simulate", *FAST, "--queries", "6", "--k", "3",
             "--algorithms", "CRSS", "--arrival-rate", "6"]
        ) == 0
        out = capsys.readouterr().out
        for column in ("p50", "p95", "p99"):
            assert column in out
        assert "time breakdown" in out
        for column in ("q-wait", "bus-xfer", "barrier"):
            assert column in out

    def test_trace_written_and_valid(self, capsys, tmp_path):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(
            ["simulate", *FAST, "--queries", "4", "--k", "2",
             "--algorithms", "CRSS", "--arrival-rate", "5",
             "--trace", str(path)]
        ) == 0
        assert f"trace written: {path} (chrome)" in capsys.readouterr().out
        assert validate_chrome_trace(path.read_text()) > 0

    def test_trace_jsonl_format(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(
            ["simulate", *FAST, "--queries", "3", "--k", "2",
             "--algorithms", "BBSS", "--arrival-rate", "0",
             "--trace", str(path), "--trace-format", "jsonl"]
        ) == 0
        lines = path.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["kind"] for line in lines)

    def test_multi_algorithm_traces_get_suffixes(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(
            ["simulate", *FAST, "--queries", "3", "--k", "2",
             "--algorithms", "BBSS,CRSS", "--arrival-rate", "4",
             "--trace", str(path)]
        ) == 0
        assert (tmp_path / "trace.bbss.json").exists()
        assert (tmp_path / "trace.crss.json").exists()
        assert not path.exists()

    def test_missing_trace_directory_rejected_up_front(self):
        with pytest.raises(SystemExit, match="directory does not exist"):
            main(
                ["simulate", *FAST, "--queries", "2",
                 "--algorithms", "CRSS", "--trace", "/no/such/dir/t.json"]
            )


class TestTimelineAndReportCli:
    def test_timeline_renders_sparklines(self, capsys):
        assert main(
            ["simulate", *FAST, "--queries", "4", "--k", "3",
             "--algorithms", "CRSS", "--arrival-rate", "8", "--timeline"]
        ) == 0
        out = capsys.readouterr().out
        assert "timeline: CRSS" in out
        assert "queue_depth" in out
        assert "queries.in_flight" in out

    def test_report_written_and_loadable(self, capsys, tmp_path):
        from repro.obs import load_report

        path = tmp_path / "run.json"
        assert main(
            ["simulate", *FAST, "--queries", "4", "--k", "3",
             "--algorithms", "CRSS", "--arrival-rate", "8",
             "--report", str(path)]
        ) == 0
        assert f"report written: {path}" in capsys.readouterr().out
        doc = load_report(str(path))
        assert doc["kind"] == "simulate"
        assert doc["label"] == "CRSS"
        assert doc["config"]["algorithm"] == "CRSS"
        assert "timelines" in doc and "metrics" in doc

    def test_multi_algorithm_reports_get_suffixes(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(
            ["simulate", *FAST, "--queries", "3", "--k", "2",
             "--algorithms", "BBSS,CRSS", "--arrival-rate", "5",
             "--report", str(path)]
        ) == 0
        assert (tmp_path / "run.bbss.json").exists()
        assert (tmp_path / "run.crss.json").exists()
        assert not path.exists()

    def test_same_seed_reports_are_byte_identical(self, capsys, tmp_path):
        args = ["simulate", *FAST, "--queries", "4", "--k", "3",
                "--algorithms", "CRSS", "--arrival-rate", "8"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--report", str(first)]) == 0
        assert main([*args, "--report", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_timeline_counters_land_in_the_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        assert main(
            ["simulate", *FAST, "--queries", "3", "--k", "2",
             "--algorithms", "CRSS", "--arrival-rate", "5", "--timeline",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        document = json.loads(trace.read_text())
        assert validate_chrome_trace(document) > 0
        assert any(e["ph"] == "C" for e in document["traceEvents"])

    def test_chaos_report(self, capsys, tmp_path):
        from repro.obs import load_report

        path = tmp_path / "chaos.json"
        assert main(
            ["chaos", "--dataset", "uniform", "--n", "200", "--disks", "4",
             "--queries", "3", "--k", "4", "--algorithm", "crss",
             "--transient", "0.05", "--report", str(path)]
        ) == 0
        capsys.readouterr()
        doc = load_report(str(path))
        assert doc["kind"] == "chaos"
        assert doc["config"]["transient"] == 0.05

    def test_missing_report_directory_rejected_up_front(self):
        with pytest.raises(SystemExit, match="directory does not exist"):
            main(
                ["simulate", *FAST, "--queries", "2",
                 "--algorithms", "CRSS", "--report", "/no/such/dir/r.json"]
            )


class TestExplainCli:
    def test_prints_decision_trace(self, capsys):
        assert main(["explain", *FAST, "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "pruning efficiency" in out
        assert "traversal" in out
        assert "disk0" in out  # the heatmap rows

    def test_each_algorithm_runs(self, capsys):
        for algorithm in ("BBSS", "FPSS", "CRSS", "WOPTSS"):
            assert main(
                ["explain", *FAST, "--k", "3", "--algorithm", algorithm]
            ) == 0
            assert algorithm in capsys.readouterr().out

    def test_same_seed_artifacts_are_byte_identical(self, capsys, tmp_path):
        args = ["explain", *FAST, "--k", "5", "--algorithm", "CRSS"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_trace_export_validates(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "explain.trace.json"
        assert main(
            ["explain", *FAST, "--k", "3", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert validate_chrome_trace(json.loads(trace.read_text())) > 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["explain", *FAST, "--algorithm", "NOPE"])

    def test_missing_out_directory_rejected_up_front(self):
        with pytest.raises(SystemExit, match="directory does not exist"):
            main(["explain", *FAST, "--out", "/no/such/dir/e.json"])


class TestExplainFlag:
    def test_simulate_explain_prints_and_embeds(self, capsys, tmp_path):
        from repro.obs import load_report

        path = tmp_path / "run.json"
        assert main(
            ["simulate", *FAST, "--queries", "4", "--k", "3",
             "--algorithms", "CRSS", "--arrival-rate", "8",
             "--explain", "--report", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "prune reasons" in out
        doc = load_report(str(path))
        assert doc["explain"]["queries"] == 4
        assert doc["explain"]["pruning"]["pruned"] > 0

    def test_explain_run_matches_plain_run_otherwise(self, capsys,
                                                     tmp_path):
        import json

        args = ["simulate", *FAST, "--queries", "4", "--k", "3",
                "--algorithms", "CRSS", "--arrival-rate", "8"]
        plain, explained = tmp_path / "p.json", tmp_path / "e.json"
        assert main([*args, "--report", str(plain)]) == 0
        assert main([*args, "--explain", "--report", str(explained)]) == 0
        capsys.readouterr()
        a = json.loads(plain.read_text())
        b = json.loads(explained.read_text())
        b.pop("explain")
        assert a == b  # config digest included: same artifact otherwise

    def test_chaos_explain_records_unreachable(self, capsys, tmp_path):
        from repro.obs import load_report

        path = tmp_path / "chaos.json"
        assert main(
            ["chaos", "--dataset", "uniform", "--n", "200", "--disks", "4",
             "--queries", "3", "--k", "4", "--algorithm", "crss",
             "--crash", "0@0.0", "--crash", "1@0.0", "--crash", "2@0.0",
             "--crash", "3@0.0", "--explain", "--report", str(path)]
        ) == 0
        capsys.readouterr()
        doc = load_report(str(path))
        reasons = doc["explain"]["pruning"]["reasons"]
        assert reasons.get("unreachable", 0) > 0

    def test_explain_events_land_in_the_trace(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        assert main(
            ["simulate", *FAST, "--queries", "3", "--k", "2",
             "--algorithms", "CRSS", "--arrival-rate", "5",
             "--explain", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        document = json.loads(trace.read_text())
        explain_events = [
            e for e in document["traceEvents"]
            if e.get("cat") == "explain"
        ]
        assert explain_events
        assert any(e["name"] == "prune" for e in explain_events)

    @pytest.mark.parametrize("explain", [False, True])
    def test_serve_trace_has_explain_events_iff_asked(
        self, explain, capsys, tmp_path
    ):
        import json

        trace = tmp_path / "trace.json"
        assert main(
            ["serve", *FAST, "--k", "3", "--rate", "30", "--horizon", "0.3",
             "--trace", str(trace), *(["--explain"] if explain else [])]
        ) == 0
        capsys.readouterr()
        categories = {
            e.get("cat") for e in json.loads(trace.read_text())["traceEvents"]
        }
        assert ("explain" in categories) == explain


class TestReportShowCli:
    def test_pretty_prints_report(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(
            ["simulate", *FAST, "--queries", "4", "--k", "3",
             "--algorithms", "CRSS", "--arrival-rate", "8",
             "--explain", "--report", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["report", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "counts" in out
        assert "breakdown" in out
        assert "prune reasons" in out  # the embedded explain section

    def test_bad_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["report", "show", "/no/such/report.json"])


class TestDiffCli:
    def _write_report(self, tmp_path, name, **kwargs):
        args = ["simulate", *FAST, "--queries", "4", "--k", "3",
                "--algorithms", "CRSS", "--arrival-rate", "8"]
        for key, value in kwargs.items():
            args.extend([f"--{key.replace('_', '-')}", str(value)])
        path = tmp_path / name
        assert main([*args, "--report", str(path)]) == 0
        return path

    def test_self_diff_is_clean(self, capsys, tmp_path):
        path = self._write_report(tmp_path, "run.json")
        capsys.readouterr()
        assert main(["diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "identical digests" in out

    def test_regression_exits_nonzero(self, capsys, tmp_path):
        # A slower bus strictly lengthens transfers: latency regresses.
        fast = self._write_report(tmp_path, "fast.json")
        slow = self._write_report(tmp_path, "slow.json", bus_time=0.01)
        capsys.readouterr()
        assert main(["diff", str(fast), str(slow)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "not like-for-like" in out  # config digests differ

    def test_show_prints_both_reports(self, capsys, tmp_path):
        path = self._write_report(tmp_path, "run.json")
        capsys.readouterr()
        assert main(["diff", str(path), str(path), "--show"]) == 0
        assert capsys.readouterr().out.count("run report:") == 2

    def test_bad_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["diff", "/no/such/a.json", "/no/such/b.json"])

    def test_wrong_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "not-a-report/0"}')
        with pytest.raises(SystemExit, match="schema"):
            main(["diff", str(bad), str(bad)])


class TestSchedulerCli:
    def test_simulate_accepts_scheduler_and_coalesce(self, capsys):
        assert main(
            ["simulate", *FAST, "--queries", "4", "--k", "3",
             "--algorithms", "CRSS", "--arrival-rate", "10",
             "--scheduler", "sstf", "--coalesce"]
        ) == 0
        out = capsys.readouterr().out
        assert "sstf+coalesce" in out

    def test_simulate_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate", *FAST, "--queries", "2",
                 "--algorithms", "CRSS", "--scheduler", "elevator"]
            )

    def test_chaos_accepts_scheduler(self, capsys):
        assert main(
            ["chaos", "--dataset", "uniform", "--n", "200", "--disks", "4",
             "--queries", "3", "--k", "4", "--algorithm", "crss",
             "--transient", "0.05", "--scheduler", "scan"]
        ) in (0, None)
        assert "chaos:" in capsys.readouterr().out

    def test_bench_schedulers_writes_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "sched.json"
        report = tmp_path / "sched.report.json"
        assert main(
            ["bench-schedulers", "--smoke", "--out", str(out),
             "--report", str(report)]
        ) == 0
        printed = capsys.readouterr().out
        assert "vs fcfs" in printed
        assert f"bench written: {out}" in printed
        document = json.loads(out.read_text())
        assert document["schema"] == "repro-sched-bench/1"
        names = [v["name"] for v in document["variants"]]
        assert names == ["fcfs", "sstf", "scan", "clook", "sstf+coalesce"]
        # The RunReport envelope carries the document's deterministic
        # scalars as flat metrics for `repro diff`.
        envelope = json.loads(report.read_text())
        assert envelope["schema"] == "repro-run-report/1"
        assert envelope["kind"] == "bench-schedulers"
        assert any(
            key.endswith("response_mean_s") for key in envelope["metrics"]
        )

    def test_bench_schedulers_missing_out_directory(self):
        with pytest.raises(SystemExit, match="directory does not exist"):
            main(["bench-schedulers", "--smoke",
                  "--out", "/no/such/dir/sched.json"])


class TestServeCli:
    SERVE_FAST = [
        "serve", "--n", "400", "--disks", "3", "--k", "4",
        "--scenario", "bursty", "--rate", "40", "--horizon", "0.5",
        "--coalesce",
    ]

    def test_serves_a_bursty_scenario(self, capsys):
        assert main(self.SERVE_FAST) == 0
        out = capsys.readouterr().out
        assert "scenario 'bursty'" in out
        assert "outcomes" in out
        assert "goodput" in out

    def test_full_policy_knobs(self, capsys):
        assert main(
            [*self.SERVE_FAST, "--max-in-flight", "4", "--max-queued", "20",
             "--deadline", "0.2", "--shed", "--cross-batch",
             "--batch-window", "0.0005", "--max-group-pages", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy admission+batching+shedding" in out
        assert "batching" in out

    def test_closed_loop_scenario(self, capsys):
        assert main(
            ["serve", "--n", "400", "--disks", "3", "--k", "4",
             "--scenario", "closed", "--clients", "3",
             "--queries-per-client", "4"]
        ) == 0
        assert "closed-loop, 3 clients" in capsys.readouterr().out

    def test_max_queued_requires_max_in_flight(self):
        with pytest.raises(SystemExit, match="max-in-flight"):
            main([*self.SERVE_FAST, "--max-queued", "5"])

    def test_report_embeds_serving_section(self, capsys, tmp_path):
        import json

        path = tmp_path / "serve.json"
        assert main(
            [*self.SERVE_FAST, "--max-in-flight", "4",
             "--report", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["kind"] == "serve"
        serving = report["serving"]
        assert serving["policy"]["max_in_flight"] == 4
        assert set(serving["counts"]) >= {
            "complete", "degraded", "shed", "rejected", "admitted",
        }
        assert serving["latency"]["p99"] > 0

    def test_same_seed_reports_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(
                [*self.SERVE_FAST, "--cross-batch", "--report", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBenchServingCli:
    def test_smoke_writes_document_and_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "serving.json"
        report = tmp_path / "serving.report.json"
        assert main(
            ["bench-serving", "--smoke", "--out", str(out),
             "--report", str(report)]
        ) == 0
        printed = capsys.readouterr().out
        assert "full stack vs no-admission" in printed
        document = json.loads(out.read_text())
        assert document["schema"] == "repro-serving-bench/1"
        assert document["dominance_at_top_load"]["p99_ratio"] < 1.0
        envelope = json.loads(report.read_text())
        assert envelope["kind"] == "bench-serving"
        assert any(
            key.endswith("latency_p99_s") for key in envelope["metrics"]
        )

    def test_missing_out_directory_rejected(self):
        with pytest.raises(SystemExit, match="directory does not exist"):
            main(["bench-serving", "--smoke",
                  "--out", "/no/such/dir/serving.json"])


class TestTailToleranceCli:
    """PR8: --health/--hedge/--rebuild on serve and chaos."""

    SERVE_RAID1 = [
        "serve", "--n", "400", "--disks", "3", "--k", "4",
        "--scenario", "bursty", "--rate", "40", "--horizon", "0.5",
        "--coalesce", "--raid", "raid1",
    ]

    def test_serve_health_hedge_rebuild(self, capsys):
        assert main(
            [*self.SERVE_RAID1, "--crash", "4@0.0:0.2",
             "--health", "--hedge", "--rebuild"]
        ) == 0
        out = capsys.readouterr().out
        assert "health" in out
        assert "hedging" in out
        assert "rebuild" in out

    def test_serve_report_embeds_tail_sections(self, capsys, tmp_path):
        import json

        path = tmp_path / "serve.json"
        assert main(
            [*self.SERVE_RAID1, "--crash", "4@0.0:0.2",
             "--health", "--hedge", "--rebuild", "--report", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["health"]["drives"] == 6
        assert set(report["hedge"]) == {
            "issued", "won", "cancelled", "wasted_reads"
        }
        assert report["rebuild"]["completed"] == 1
        # The flags are part of the config digest: a tail-tolerant run
        # is not comparable like-for-like with a plain one.
        assert "health" in report["config"]

    def test_plain_serve_report_has_no_tail_sections(self, capsys, tmp_path):
        import json

        path = tmp_path / "serve.json"
        assert main(
            ["serve", "--n", "400", "--disks", "3", "--k", "4",
             "--scenario", "bursty", "--rate", "40", "--horizon", "0.5",
             "--report", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        for key in ("health", "hedge", "rebuild"):
            assert key not in report
            assert key not in report["config"]

    def test_serve_raid0_rejects_hedge(self):
        with pytest.raises(SystemExit, match="mirrored"):
            main(
                ["serve", "--n", "400", "--disks", "3", "--k", "4",
                 "--scenario", "bursty", "--rate", "40",
                 "--horizon", "0.5", "--hedge"]
            )

    def test_chaos_health_flags(self, capsys):
        assert main(
            ["chaos", "--dataset", "uniform", "--n", "200", "--disks", "4",
             "--queries", "6", "--raid", "raid1", "--crash", "0@0.0:0.3",
             "--health", "--hedge", "--rebuild"]
        ) == 0
        out = capsys.readouterr().out
        assert "health" in out
        assert "rebuild" in out

    def test_chaos_same_seed_health_reports_identical(
        self, capsys, tmp_path
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(
                ["chaos", "--dataset", "uniform", "--n", "200",
                 "--disks", "4", "--queries", "6", "--raid", "raid1",
                 "--crash", "0@0.0:0.3", "--health", "--hedge",
                 "--rebuild", "--report", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSloObservabilityCli:
    """PR10: serve --slo/--lifecycle-log/--metrics-out/--trace,
    repro top, repro bench index."""

    SERVE_FAST = [
        "serve", "--n", "400", "--disks", "3", "--k", "4",
        "--scenario", "bursty", "--rate", "40", "--horizon", "0.5",
        "--coalesce", "--max-in-flight", "4", "--deadline", "0.2",
        "--shed", "--cross-batch",
    ]

    def test_slo_section_printed_and_embedded(self, capsys, tmp_path):
        import json

        path = tmp_path / "serve.json"
        assert main(
            [*self.SERVE_FAST, "--slo", "--report", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "slo" in out
        assert "budget remaining" in out
        report = json.loads(path.read_text())
        slo = report["slo"]
        assert "default" in slo["classes"]
        assert slo["classes"]["default"]["latency"]["target"] == 0.2
        # The slo.* step tracks were merged into the report timelines.
        assert any(
            name.startswith("slo.") for name in report["timelines"]
        )

    def test_slo_flag_does_not_shift_config_digest(self, capsys, tmp_path):
        import json

        plain, tracked = tmp_path / "plain.json", tmp_path / "slo.json"
        assert main([*self.SERVE_FAST, "--report", str(plain)]) == 0
        assert main(
            [*self.SERVE_FAST, "--slo", "--report", str(tracked)]
        ) == 0
        capsys.readouterr()
        a, b = json.loads(plain.read_text()), json.loads(tracked.read_text())
        assert a["config_digest"] == b["config_digest"]
        assert a["answer_digest"] == b["answer_digest"]
        assert a["serving"] == b["serving"]

    def test_lifecycle_metrics_trace_artifacts(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace
        from repro.obs.lifecycle import load_lifecycle_jsonl

        lifecycle = tmp_path / "lifecycle.jsonl"
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        assert main(
            [*self.SERVE_FAST, "--slo",
             "--lifecycle-log", str(lifecycle),
             "--metrics-out", str(metrics),
             "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "lifecycle log written" in out
        assert "metrics written" in out
        assert "trace written" in out
        records = load_lifecycle_jsonl(str(lifecycle))
        assert records and all(r["outcome"] for r in records)
        text = metrics.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_serving_counts_complete" in text
        assert "repro_slo_worst_burn_rate" in text
        with open(trace) as handle:
            assert validate_chrome_trace(json.load(handle)) > 0

    def test_artifacts_byte_identical_across_runs(self, capsys, tmp_path):
        names = ("lifecycle.jsonl", "metrics.prom", "report.json")
        for run in ("a", "b"):
            base = tmp_path / run
            base.mkdir()
            assert main(
                [*self.SERVE_FAST, "--slo",
                 "--lifecycle-log", str(base / names[0]),
                 "--metrics-out", str(base / names[1]),
                 "--report", str(base / names[2])]
            ) == 0
        capsys.readouterr()
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_missing_artifact_directories_rejected_up_front(self):
        for flag in ("--lifecycle-log", "--metrics-out", "--trace"):
            with pytest.raises(SystemExit, match="directory"):
                main([*self.SERVE_FAST, flag, "/nonexistent/dir/x"])

    def test_bad_slo_quantile_rejected(self):
        with pytest.raises(SystemExit, match="quantile"):
            main([*self.SERVE_FAST, "--slo", "--slo-quantile", "2.0"])


class TestTopCli:
    def _report(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        assert main(
            [*TestSloObservabilityCli.SERVE_FAST, "--slo",
             "--lifecycle-log", str(tmp_path / "lifecycle.jsonl"),
             "--report", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    def test_replays_frames(self, capsys, tmp_path):
        path = self._report(tmp_path, capsys)
        assert main(["top", str(path), "--frames", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top — serve") == 3
        assert "slo burn:" in out
        assert "(100%)" in out

    def test_lifecycle_tail_panel(self, capsys, tmp_path):
        path = self._report(tmp_path, capsys)
        assert main(
            ["top", str(path), "--frames", "1", "--tail", "2",
             "--lifecycle", str(tmp_path / "lifecycle.jsonl")]
        ) == 0
        assert "slowest 2 queries:" in capsys.readouterr().out

    def test_deterministic_output(self, capsys, tmp_path):
        path = self._report(tmp_path, capsys)
        assert main(["top", str(path), "--frames", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["top", str(path), "--frames", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["top", "/nonexistent/report.json"])

    def test_bad_frames_rejected(self, capsys, tmp_path):
        path = self._report(tmp_path, capsys)
        with pytest.raises(SystemExit, match="frames"):
            main(["top", str(path), "--frames", "0"])


class TestBenchIndexCli:
    def _write_bench(self, tmp_path, name, doc):
        import json

        (tmp_path / name).write_text(json.dumps(doc))

    def test_lists_artifacts_with_headlines(self, capsys, tmp_path):
        self._write_bench(
            tmp_path, "BENCH_PR7.json",
            {"schema": "repro-serving-bench/1", "label": "PR7",
             "seed": 3, "smoke": True,
             "dominance_at_top_load": {
                 "p99_ratio": 0.5, "offered_load": 200}},
        )
        self._write_bench(
            tmp_path, "BENCH_PR2.json",
            {"schema": "repro-bench/1", "label": "PR2", "seed": 0,
             "microbench": {"scan": {"speedup": 12.0}}},
        )
        assert main(["bench", "index", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_PR2.json" in out and "BENCH_PR7.json" in out
        assert "p99_ratio 0.500 @ load 200" in out
        assert "kernel speedup up to 12.0x" in out
        assert "yes" in out  # the smoke column

    def test_empty_directory_exits_nonzero(self, capsys, tmp_path):
        assert main(["bench", "index", "--dir", str(tmp_path)]) == 1
        assert "no BENCH_*.json" in capsys.readouterr().out

    def test_unreadable_artifact_is_reported_not_fatal(
        self, capsys, tmp_path
    ):
        (tmp_path / "BENCH_BAD.json").write_text("{not json")
        self._write_bench(
            tmp_path, "BENCH_OK.json",
            {"schema": "repro-bench/1", "label": "X", "seed": 1},
        )
        assert main(["bench", "index", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "unreadable" in out
        assert "BENCH_OK.json" in out
