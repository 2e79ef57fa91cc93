"""Tests for the experiment harness: caching, registry, CLI.

Figure experiments themselves are exercised in
``tests/integration/test_paper_shapes.py`` at a small scale; here we
test the infrastructure.
"""

import pytest

from repro.core import ClassifierConfig
from repro.errors import ConfigurationError
from repro.harness import cli
from repro.harness.cache import (
    cached_classified,
    cached_trace,
    clear_cache,
    set_cache_telemetry,
)
from repro.harness.cli import main
from repro.harness.experiment import (
    ExperimentResult,
    experiment_names,
    run_experiment,
)

SCALE = 0.05


class TestTraceCache:
    def test_same_object_returned(self):
        clear_cache()
        a = cached_trace("gzip/g", SCALE)
        b = cached_trace("gzip/g", SCALE)
        assert a is b

    def test_different_scale_different_trace(self):
        a = cached_trace("gzip/g", SCALE)
        b = cached_trace("gzip/g", 0.06)
        assert a is not b

    def test_classified_cache_keyed_by_config(self):
        config_a = ClassifierConfig(min_count_threshold=0)
        config_b = ClassifierConfig(min_count_threshold=8)
        run_a = cached_classified("gzip/g", config_a, SCALE)
        run_b = cached_classified("gzip/g", config_b, SCALE)
        run_a2 = cached_classified("gzip/g", config_a, SCALE)
        assert run_a is run_a2
        assert run_a is not run_b

    def test_clear_cache(self):
        a = cached_trace("gzip/g", SCALE)
        clear_cache()
        b = cached_trace("gzip/g", SCALE)
        assert a is not b

    def test_config_is_hashable_and_equal_by_value(self):
        # The classified cache is keyed on the config itself, so two
        # equal configs must hash alike (frozen dataclass semantics).
        config_a = ClassifierConfig(min_count_threshold=4)
        config_b = ClassifierConfig(min_count_threshold=4)
        assert config_a == config_b
        assert hash(config_a) == hash(config_b)
        assert len({config_a, config_b}) == 1

    def test_equal_configs_share_cache_entry(self):
        clear_cache()
        run_a = cached_classified(
            "gzip/g", ClassifierConfig(min_count_threshold=4), SCALE
        )
        run_b = cached_classified(
            "gzip/g", ClassifierConfig(min_count_threshold=4), SCALE
        )
        assert run_a is run_b

    def test_cache_telemetry_counts_hits_and_misses(self):
        from repro.telemetry import Telemetry

        clear_cache()
        telemetry = Telemetry()
        set_cache_telemetry(telemetry)
        try:
            cached_trace("gzip/g", SCALE)
            cached_trace("gzip/g", SCALE)
            config = ClassifierConfig.paper_default()
            cached_classified("gzip/g", config, SCALE)
            cached_classified("gzip/g", config, SCALE)
        finally:
            set_cache_telemetry(None)
        metrics = telemetry.metrics
        assert metrics.get(
            "repro_harness_trace_cache_misses_total"
        ).value == 1
        assert metrics.get(
            "repro_harness_trace_cache_hits_total"
        ).value == 1
        assert metrics.get(
            "repro_harness_classified_cache_misses_total"
        ).value == 1
        assert metrics.get(
            "repro_harness_classified_cache_hits_total"
        ).value == 1


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        names = experiment_names()
        for expected in ("table1", "fig2", "fig3", "fig4", "fig5",
                         "fig6", "fig7", "fig8", "fig9"):
            assert expected in names

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_result_renders(self):
        result = ExperimentResult(name="x", title="Title", tables=["body"])
        assert "Title" in result.rendered
        assert "body" in result.rendered


class TestCLI:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_single_experiment(self, capsys):
        assert main(["--scale", str(SCALE), "table1"]) == 0
        out = capsys.readouterr().out
        assert "Baseline Simulation Model" in out
        assert "completed in" in out

    @pytest.mark.parametrize("argv", [
        ["--jobs", "0", "fig2"],
        ["--jobs", "-1", "fig2"],
        ["--scale", "0", "fig2"],
        ["--scale", "-1", "fig2"],
        ["--scale", "nan", "fig2"],
        ["--scale", "inf", "fig2"],
        ["--classify", "mcf", "--scale", "nan"],
        ["--classify", "mcf", "--scale", "0"],
    ])
    def test_bad_scale_or_jobs_is_a_usage_error(
        self, argv, capsys, monkeypatch
    ):
        """A ``--scale`` that is not a finite positive number, or a
        ``--jobs`` below 1, is argparse's usage error (exit 2), raised
        before the result store opens or any experiment runs."""
        opened = []
        monkeypatch.setattr(cli, "_build_store", opened.append)
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro-phases")
        assert err.count("error: argument --") == 1
        assert opened == []

    @pytest.mark.parametrize("flag", ["--json", "--metrics", "--events"])
    @pytest.mark.parametrize("argv", [
        ["--scale", str(SCALE), "--no-store", "hwbudget"],
        ["--classify", "mcf", "--scale", str(SCALE), "--no-store"],
    ])
    def test_an_unwritable_output_path_is_a_usage_error(
        self, argv, flag, tmp_path, capsys, monkeypatch
    ):
        """An output path that cannot be opened is argparse's usage
        error (exit 2) naming the flag and the path, raised before any
        experiment or classification runs, not a traceback after."""
        opened = []
        monkeypatch.setattr(cli, "_build_store", opened.append)
        path = str(tmp_path / "missing" / "out")
        with pytest.raises(SystemExit) as stop:
            main(argv + [flag, path])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert errors == [
            f"repro-phases: error: argument {flag}: cannot write "
            f"{path!r}: No such file or directory"
        ]
        assert opened == []

    def test_the_output_path_check_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["--list", "--json", str(path)]) == 0
        assert not path.exists()

    @pytest.mark.parametrize("flag", ["--metrics", "--events"])
    @pytest.mark.parametrize("topology", [[], ["--workers", "1"]])
    def test_serve_refuses_an_unwritable_output_path_before_binding(
        self, flag, topology, tmp_path, capsys, monkeypatch
    ):
        """``serve`` refuses a bad ``--metrics``/``--events`` path as a
        usage error before it builds a server, binds a port or starts a
        worker."""
        import repro.cluster
        import repro.service

        built = []
        monkeypatch.setattr(
            repro.service, "PhaseService",
            lambda **kwargs: built.append(kwargs),
        )
        monkeypatch.setattr(
            repro.cluster, "ClusterDispatcher",
            lambda **kwargs: built.append(kwargs),
        )
        path = str(tmp_path / "missing" / "serve.prom")
        with pytest.raises(SystemExit) as stop:
            main(["serve", "--port", "0", *topology, flag, path])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            f"repro-phases serve: error: argument {flag}: cannot write "
            f"{path!r}: No such file or directory"
        )
        assert "listening" not in captured.out
        assert built == []


class TestExtensions:
    def test_hwbudget_runs_without_traces(self):
        result = run_experiment("hwbudget")
        # The full architecture must stay within a couple of KB.
        assert max(result.data["bytes"]) < 2048
        # This paper's 16-counter classifier is cheaper than the
        # prior work's 32-counter baseline.
        labels = result.data["labels"]
        bits = dict(zip(labels, result.data["bits"]))
        assert bits["this paper (16 ctr, min-8)"] < bits[
            "prior-work baseline (32 ctr)"
        ]

    def test_json_output(self, tmp_path, capsys):
        import json

        out = tmp_path / "data.json"
        assert main(["--scale", str(SCALE), "--json", str(out),
                     "hwbudget"]) == 0
        payload = json.loads(out.read_text())
        assert "hwbudget" in payload
        assert "data" in payload["hwbudget"]

    def test_robustness_experiment(self):
        result = run_experiment("robustness", scale=SCALE)
        assert all(result.data["claim_holds"])
        assert len(result.data["names"]) == 3

    def test_benchmarks_listing(self, capsys):
        assert main(["--benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "gcc/s" in out
        assert "pointer-chasing" in out

    def test_classify_report(self, capsys):
        assert main(["--classify", "gzip/p", "--scale", str(SCALE)]) == 0
        out = capsys.readouterr().out
        assert "whole-program CoV" in out
        assert "legend:" in out
        assert "next-phase prediction" in out

    def test_classify_unknown_benchmark(self, capsys):
        assert main(["--classify", "nonesuch"]) == 2
