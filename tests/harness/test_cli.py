"""Tests for the ``python -m repro.harness`` experiment CLI."""

import pytest

from repro.harness.__main__ import EXPERIMENTS, _scaled_kwargs, main


class TestScaledKwargs:
    def test_identity_scale(self):
        assert _scaled_kwargs(EXPERIMENTS["fig2"], 1.0) == {}

    def test_scales_integer_size_params(self):
        kwargs = _scaled_kwargs(EXPERIMENTS["fig2"], 0.5)
        assert kwargs["num_items"] == 500_000
        assert kwargs["workload_size"] == 200_000

    def test_floor_prevents_degenerate_sizes(self):
        kwargs = _scaled_kwargs(EXPERIMENTS["fig2"], 0.00001)
        assert all(value >= 64 for value in kwargs.values())

    def test_non_size_params_untouched(self):
        kwargs = _scaled_kwargs(EXPERIMENTS["fig14"], 0.5)
        assert "alphas" not in kwargs
        assert "seed" not in kwargs


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig12" in output
        assert "tab4" in output

    def test_appendix_experiments_are_registered_and_listed(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("appendix-fig2", "appendix-fig5"):
            assert name in EXPERIMENTS and f"{name} " in output

    def test_help_names_every_registered_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        output = " ".join(capsys.readouterr().out.split())
        for name in EXPERIMENTS:
            assert name in output.replace("- ", "-")  # argparse may wrap at a hyphen

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["figZZ"])

    def test_runs_cheap_experiment(self, capsys):
        assert main(["fig3"]) == 0
        output = capsys.readouterr().out
        assert "Samsung 870 SSD" in output
        assert "compression ratio" in output

    def test_runs_table_experiment(self, capsys):
        assert main(["tab4"]) == 0
        output = capsys.readouterr().out
        assert "AHI-BTree" in output

    def test_scale_flag(self, capsys):
        assert main(["fig6", "--scale", "0.2"]) == 0
        assert "unique_samples" in capsys.readouterr().out

    def test_every_name_resolves(self):
        for name in ("fig2", "fig5", "fig12", "fig20", "tab1", "tab2"):
            assert name in EXPERIMENTS


class TestTelemetryFlags:
    def test_trace_and_metrics_files_are_valid(self, tmp_path, capsys):
        from repro.obs import parse_prometheus
        from repro.obs.runtime import active
        from repro.obs.schema import validate_trace_file

        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "run.prom"
        assert main(
            ["fig13", "--scale", "0.05", "--trace", str(trace),
             "--metrics", str(metrics), "--trace-ops", "64"]
        ) == 0
        assert active() is None  # uninstalled after the run
        names = validate_trace_file(trace)
        assert "experiment:fig13" in names
        assert "harness.interval" in names
        assert "lookup" in names
        samples = parse_prometheus(metrics.read_text())
        assert any(key.startswith("repro_ops_") for key in samples)
        output = capsys.readouterr().out
        assert "telemetry report" in output
        assert f"trace: {trace}" in output

    def test_metrics_only_run(self, tmp_path, capsys):
        from repro.obs import parse_prometheus

        metrics = tmp_path / "only.prom"
        assert main(["fig13", "--scale", "0.05", "--metrics", str(metrics)]) == 0
        samples = parse_prometheus(metrics.read_text())
        assert "repro_harness_operations_total" in samples
        assert "telemetry report" in capsys.readouterr().out
