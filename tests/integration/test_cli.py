"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.n == 256
        assert args.algorithm == "1R1W"

    def test_machine_args(self):
        args = build_parser().parse_args(["demo", "--width", "8", "--latency", "5"])
        assert args.width == 8 and args.latency == 5


class TestCommands:
    def test_demo_verifies(self, capsys):
        rc = main(["demo", "-n", "32", "--width", "8", "--latency", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified against numpy oracle: OK" in out

    def test_demo_kr1w(self, capsys):
        rc = main(
            ["demo", "-n", "32", "--width", "8", "--latency", "4",
             "--algorithm", "kR1W", "--p", "0.4"]
        )
        assert rc == 0

    def test_table1(self, capsys):
        rc = main(["table1", "-n", "32", "--width", "8", "--latency", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("2R2W", "4R4W", "4R1W", "2R1W", "1R1W"):
            assert name in out

    def test_tune_analytic(self, capsys):
        rc = main(["tune", "-n", "64", "--width", "8", "--latency", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best p" in out

    def test_tune_measured(self, capsys):
        rc = main(["tune", "-n", "64", "--width", "8", "--latency", "50", "--measured"])
        assert rc == 0

    @pytest.mark.slow
    def test_crossover(self, capsys):
        rc = main(["crossover"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overtakes" in out


class TestStats:
    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.n == 64
        assert args.width == 8
        assert args.format == "both"

    def test_stats_json_reports_real_metrics_and_clean_audit(self, capsys):
        import json

        rc = main(["stats", "-n", "32", "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 0
        doc = json.loads(captured.out)
        counters = {r["name"] for r in doc["metrics"]["counters"]}
        # Kernel, cache, batch, and streaming layers all reported in.
        assert {
            "kernel_launches_total",
            "plan_cache_hits_total",
            "plan_compiles_total",
            "sat_computes_total",
            "batch_matrices_total",
            "stream_bands_total",
            "band_prefetches_total",
        } <= counters
        hists = {r["name"] for r in doc["metrics"]["histograms"]}
        assert "kernel_duration_seconds" in hists
        assert doc["spans"]["recorded"] > 0
        audit = doc["cost_audit"]
        assert audit["checks"] == 6
        assert audit["audited"] == 6
        assert audit["divergences"] == 0
        assert "0 divergent" in captured.err

    def test_stats_prometheus_text(self, capsys):
        rc = main(["stats", "-n", "32", "--format", "prom"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# TYPE repro_kernel_launches_total counter" in out
        assert 'repro_kernel_launches_total{mode="counted"}' in out
        assert 'repro_cost_audit_checks_total{algorithm="1R1W"} 1' in out
        assert 'quantile="0.99"' in out

    def test_stats_leaves_observability_off_afterwards(self):
        from repro.obs import runtime as obs_runtime

        assert main(["stats", "-n", "32", "--format", "json"]) == 0
        assert not obs_runtime.is_enabled()


class TestServingCLI:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.n == 512
        assert args.datasets == 2
        assert args.tile == 64
        assert args.queue == 256

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.n == 256
        assert args.update_frac == 0.25
        assert not args.quick

    def test_serve_small_run_verifies(self, capsys):
        rc = main([
            "serve", "-n", "48", "--tile", "16", "--datasets", "2",
            "--updates", "8", "--queries", "16",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all query responses vs numpy oracle: OK" in out
        assert "incremental point update" in out
        assert "2 resident" in out

    def test_serve_eviction_under_tight_capacity(self, capsys):
        # Three ~70 KB datasets against a 1 MB... use capacity in MB floor:
        # the flag is MB-granular, so force eviction with more datasets.
        rc = main([
            "serve", "-n", "128", "--tile", "32", "--datasets", "4",
            "--updates", "2", "--queries", "4", "--capacity-mb", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "eviction(s)" in out

    def test_loadgen_small_run_passes_gates(self, capsys):
        rc = main([
            "loadgen", "-n", "48", "--tile", "16", "--rounds", "2",
            "--burst", "12", "--queue", "16", "--max-batch", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification: lost=0 mismatches=0 misordered=0 -> OK" in out

    def test_stats_serving_section(self, capsys):
        import json

        rc = main(["stats", "-n", "32", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        counters = {r["name"] for r in doc["metrics"]["counters"]}
        assert {
            "serving_requests_total",
            "serving_queries_total",
            "serving_updates_total",
            "serving_shed_total",
            "serving_batches_total",
        } <= counters
        gauges = {r["name"] for r in doc["metrics"]["gauges"]}
        assert "serving_queue_depth" in gauges
        hists = {r["name"] for r in doc["metrics"]["histograms"]}
        assert "serving_request_seconds" in hists

    def test_stats_no_serving_flag(self, capsys):
        import json

        rc = main(["stats", "-n", "32", "--format", "json", "--no-serving"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        counters = {r["name"] for r in doc["metrics"]["counters"]}
        assert "serving_requests_total" not in counters
