"""Unit tests for the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.opt import DEFAULT_PASSES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fit_defaults(self):
        args = build_parser().parse_args(["fit", "tanh"])
        assert args.function == "tanh"
        assert args.breakpoints == 16


class TestCommands:
    def test_fit_prints_metrics(self, capsys):
        assert main(["fit", "relu", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "MSE" in out and "breakpoint placement" in out

    def test_fit_json_emits_canonical_artifact(self, capsys):
        assert main(["fit", "relu", "-n", "4", "--json"]) == 0
        out = capsys.readouterr().out
        from repro.api import FitArtifact

        artifact = FitArtifact.from_dict(json.loads(out))
        assert artifact.function == "relu"
        assert artifact.pwl.n_breakpoints >= 2
        assert artifact.engine in ("native", "cache")

    def test_fit_engine_flag(self, capsys, tmp_path):
        assert main(["fit", "tanh", "-n", "4", "--engine", "inline",
                     "--cache-dir", str(tmp_path), "--json"]) == 0
        from repro.api import FitArtifact

        artifact = FitArtifact.from_dict(
            json.loads(capsys.readouterr().out))
        assert artifact.engine == "inline"
        # Second run of the same request is a cache read.
        assert main(["fit", "tanh", "-n", "4", "--engine", "inline",
                     "--cache-dir", str(tmp_path), "--json"]) == 0
        again = FitArtifact.from_dict(json.loads(capsys.readouterr().out))
        assert again.from_cache and again.engine == "cache"
        assert again.pwl.to_json() == artifact.pwl.to_json()

    def test_table_emits_valid_json(self, capsys):
        assert main(["table", "relu", "-n", "4", "-f", "fp16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "fp16"
        assert len(payload["slopes"]) == payload["depth"]
        assert len(payload["breakpoints"]) == payload["depth"] - 1

    def test_table_fixed_format(self, capsys):
        assert main(["table", "relu", "-n", "4", "-f", "16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"].startswith("q")

    def test_bound_table(self, capsys):
        assert main(["bound", "tanh"]) == 0
        out = capsys.readouterr().out
        assert "free-knot bound" in out

    def test_fit_all_table_and_cache(self, capsys, tmp_path):
        args = ["fit-all", "--functions", "relu,hardtanh", "-n", "3,4",
                "--serial", "--quick", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "batch fit: 4 jobs" in out
        assert main(args) == 0  # second run is served from the cache
        assert "(4 cache hits)" in capsys.readouterr().out

    def test_fit_all_json(self, capsys, tmp_path):
        assert main(["fit-all", "--functions", "relu", "-n", "3", "--serial",
                     "--quick", "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.api import FitArtifact

        artifact = FitArtifact.from_dict(payload["results"][0])
        assert artifact.function == "relu"
        assert artifact.config.n_breakpoints == 3
        assert artifact.pwl.breakpoints.size >= 2

    def test_fig_unknown_name(self, capsys):
        assert main(["fig", "fig99"]) == 2

    def test_fig_tab1(self, capsys):
        assert main(["fig", "tab1"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestCompileCommand:
    def test_unknown_model(self, capsys):
        assert main(["compile", "nosuchnet"]) == 2

    def test_static_profile_text(self, capsys):
        assert main(["compile", "vit", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "static profile" in out and "MACs" in out

    def test_json_summary(self, capsys):
        assert main(["compile", "resnet", "--act", "relu",
                     "--scale", "0.25", "--batch", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["batch_size"] == 2
        assert payload["macs"] > 0 and payload["nodes"] > 0
        assert "relu" in payload["act_elements"]

    def test_pwl_rewrite_bakes_kernels(self, capsys, tmp_path):
        assert main(["compile", "generic_cnn", "--act", "relu6",
                     "--scale", "0.25", "--pwl", "4", "--engine", "inline",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "PWL kernels at 4 breakpoints" in capsys.readouterr().out


class TestServeInferCommand:
    @pytest.mark.parametrize("window", ["-5", "inf", "nan"])
    def test_bad_window_is_refused_before_compiling(self, window,
                                                    monkeypatch):
        from repro.errors import ServiceError

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before checking --batch-ms")

        monkeypatch.setattr("repro.api.Session.compile", no_compile)
        with pytest.raises(ServiceError, match="batch_ms"):
            main(["serve-infer", "--addr", "127.0.0.1:0",
                  "--batch-ms", window])


class TestServeCommand:
    @pytest.fixture(autouse=True)
    def _no_address_in_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_ADDR", raising=False)

    def test_serve_once_on_empty_queue(self, capsys, tmp_path):
        assert main(["serve", "--once", "--dir", str(tmp_path / "q"),
                     "--cache-dir", str(tmp_path / "fits"),
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "exiting after 0 jobs" in out

    def test_serve_once_processes_submitted_jobs(self, capsys, tmp_path):
        from repro.core.batchfit import make_job
        from repro.core.fit import FitConfig
        from repro.service import submit
        tiny = FitConfig(n_breakpoints=4, max_steps=30, refine_steps=15,
                         max_refine_rounds=1, polish_maxiter=40,
                         grid_points=256)
        submit(make_job("tanh", 4, config=tiny), root=tmp_path / "q")
        assert main(["serve", "--once", "--dir", str(tmp_path / "q"),
                     "--cache-dir", str(tmp_path / "fits"),
                     "--workers", "1"]) == 0
        assert "exiting after 1 jobs" in capsys.readouterr().out

    def test_addr_adds_a_listener_and_prints_it(self, capsys, tmp_path):
        assert main(["serve", "--addr", "127.0.0.1:0", "--idle-exit", "0.2",
                     "--dir", str(tmp_path / "q"),
                     "--cache-dir", str(tmp_path / "fits"),
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        addr = out.split("http://", 1)[1].split()[0]
        assert addr.startswith("127.0.0.1:") and not addr.endswith(":0")
        assert "exiting after 0 jobs" in out

    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_once_with_a_listener_is_refused(self, where, capsys, tmp_path,
                                             monkeypatch):
        argv = ["serve", "--once", "--dir", str(tmp_path / "q")]
        if where == "flag":
            argv += ["--addr", "127.0.0.1:0"]
        else:
            monkeypatch.setenv("REPRO_SERVE_ADDR", "127.0.0.1:0")
        assert main(argv) == 2
        assert "--once" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()  # refused before serving

    def test_one_fit_daemon_command(self):
        import argparse

        [commands] = [a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        assert sorted(c for c in commands.choices
                      if c.startswith("serve")) == ["serve", "serve-infer"]


class TestCacheCommand:
    def _seed(self, tmp_path, n=2):
        import numpy as np

        from repro.core.batchfit import CachedFit, FitCache
        from repro.core.pwl import PiecewiseLinear
        cache = FitCache(tmp_path)
        pwl = PiecewiseLinear.create(np.array([-1.0, 1.0]),
                                     np.array([0.0, 1.0]), 0.0, 0.0)
        for i in range(n):
            cache.put(f"k{i}", CachedFit(
                function="tanh", pwl=pwl, grid_mse=1e-4, rounds=1,
                total_steps=10, init_used="uniform"))
        return cache

    def test_stats_json(self, capsys, tmp_path):
        self._seed(tmp_path, 3)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 3
        assert payload["bytes"] > 0

    def test_stats_human(self, capsys, tmp_path):
        self._seed(tmp_path, 1)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "1 entries" in capsys.readouterr().out

    def test_clear(self, capsys, tmp_path):
        cache = self._seed(tmp_path, 2)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        assert len(cache) == 2  # its private memory layer, but...
        assert not list(tmp_path.glob("*.json"))  # ...the disk is empty

    def test_prune_needs_a_bound(self, capsys, tmp_path):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2

    def test_prune_by_entries(self, capsys, tmp_path):
        self._seed(tmp_path, 4)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-entries", "1"]) == 0
        assert "pruned 3 entries" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.json"))) == 1


class TestCheck:
    def test_clean_model_exits_zero(self, capsys):
        assert main(["check", "vit"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        assert main(["check", "vit", "resnet", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert [m["model"] for m in payload["models"]] == ["vit", "resnet"]
        for report in payload["models"]:
            assert report["counts"]["error"] == 0
            assert report["diagnostics"] == []

    def test_list_codes(self, capsys):
        assert main(["check", "--list-codes"]) == 0
        out = capsys.readouterr().out
        assert "RPR102" in out and "RPR140" in out

    def test_unknown_model_is_usage_error(self, capsys):
        assert main(["check", "nosuchmodel"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_no_models_is_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert "--all-zoo" in capsys.readouterr().err


class TestProfileCommand:
    def test_no_models_is_usage_error(self, capsys):
        assert main(["profile"]) == 2
        assert "--all-zoo" in capsys.readouterr().err

    def test_unknown_model_is_usage_error(self, capsys):
        assert main(["profile", "nosuchnet"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_text_report(self, capsys):
        assert main(["profile", "generic_cnn", "--scale", "0.25",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "ms/run" in out and "nodes" in out

    def test_compare_static_json_aligns_nodes(self, capsys):
        assert main(["profile", "vit", "--scale", "0.25", "--repeats", "1",
                     "--compare-static", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"].startswith("vit")
        assert len(doc["comparison"]["nodes"]) == doc["nodes"]
        assert doc["comparison"]["total_observed_s"] > 0
        assert "ratio_histogram_log2" in doc["comparison"]

    def test_optimizes_unless_told_no_opt(self, capsys):
        argv = ["profile", "vit", "--scale", "0.25", "--repeats", "1",
                "--compare-static", "--json"]
        docs = []
        for extra in ([], ["--no-opt"]):
            assert main(argv + extra) == 0
            docs.append(json.loads(capsys.readouterr().out))
        opt, plain = docs
        assert ([r["pass"] for r in opt["pass_reports"]]
                == list(DEFAULT_PASSES))
        assert "pass_reports" not in plain
        assert opt["nodes"] < plain["nodes"]
        for doc in docs:
            assert len(doc["comparison"]["nodes"]) == doc["nodes"]

    def test_pwl_with_capture_writes_histograms(self, capsys, tmp_path):
        hist_path = tmp_path / "hist.json"
        assert main(["profile", "generic_cnn", "--scale", "0.25",
                     "--repeats", "1", "--pwl", "4", "--engine", "inline",
                     "--cache-dir", str(tmp_path / "fits"),
                     "--capture", str(hist_path)]) == 0
        assert "histograms written" in capsys.readouterr().out
        from repro.obs import HistogramCapture, capture_enabled

        assert not capture_enabled()  # switched back off afterwards
        doc = HistogramCapture.load(hist_path)
        assert doc  # the baked PWL kernels fed the capture
        for hist in doc.values():
            assert hist["total"] > 0


class TestTraceCommand:
    def _write_trace(self, tmp_path):
        from repro.obs import disable_tracing, enable_tracing

        sink = tmp_path / "trace.jsonl"
        tracer = enable_tracing(sink)
        with tracer.span("fit.session", n_requests=2):
            with tracer.span("fit.lane_round", lanes=1):
                pass
        disable_tracing()
        return sink

    def test_no_file_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert main(["trace", "summary"]) == 2
        assert "REPRO_TRACE" in capsys.readouterr().err

    def test_summary_aggregates_spans(self, capsys, tmp_path):
        sink = self._write_trace(tmp_path)
        assert main(["trace", "summary", "--file", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "fit.session" in out and "fit.lane_round" in out

    def test_summary_json(self, capsys, tmp_path):
        sink = self._write_trace(tmp_path)
        assert main(["trace", "summary", "--file", str(sink),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spans"] == 2
        assert doc["by_name"]["fit.session"]["count"] == 1

    def test_show_prints_spans(self, capsys, tmp_path):
        sink = self._write_trace(tmp_path)
        assert main(["trace", "show", "--file", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "fit.lane_round" in out and "n_requests=2" in out

    def test_env_var_names_the_file(self, capsys, tmp_path, monkeypatch):
        sink = self._write_trace(tmp_path)
        monkeypatch.setenv("REPRO_TRACE", str(sink))
        assert main(["trace", "summary"]) == 0
        assert "fit.session" in capsys.readouterr().out


class TestMetricsCommand:
    def _export(self, tmp_path):
        # A one-shot drain exports metrics.json next to the heartbeat.
        from repro.service.daemon import FitService, ServiceConfig
        from repro.core.batchfit import FitCache

        root = tmp_path / "q"
        with FitService(ServiceConfig(root=root, max_workers=1),
                        cache=FitCache(tmp_path / "fits")) as svc:
            svc.drain()
        return root

    def test_missing_snapshot_errors(self, capsys, tmp_path):
        assert main(["metrics", "--dir", str(tmp_path / "empty")]) == 1
        assert "no daemon snapshot" in capsys.readouterr().err

    def test_text_output(self, capsys, tmp_path):
        root = self._export(tmp_path)
        assert main(["metrics", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "daemon metrics" in out
        assert "service.queue.depth" in out

    def test_json_output(self, capsys, tmp_path):
        root = self._export(tmp_path)
        assert main(["metrics", "--dir", str(root), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "service.queue.depth" in doc["snapshot"]["metrics"]
        assert doc["snapshot"]["pid"]
        # The one-shot service closed cleanly, retiring its heartbeat.
        assert doc["alive"] is False

    def test_prometheus_format(self, capsys, tmp_path):
        root = self._export(tmp_path)
        assert main(["metrics", "--dir", str(root),
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_queue_depth gauge" in out
        assert 'repro_service_queue_depth{state="pending"} 0' in out
