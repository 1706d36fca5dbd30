"""CLI surface: parsing and the cheap commands end to end."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_inspect_args(self):
        args = build_parser().parse_args(["inspect", "MERSIT(8,2)", "0x41"])
        assert args.format == "MERSIT(8,2)" and args.token == "0x41"

    def test_ptq_defaults(self):
        args = build_parser().parse_args(["ptq", "VGG16"])
        assert args.eval_n == 300 and "MERSIT(8,2)" in args.formats


class TestCheapCommands:
    def test_formats_lists_all(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        assert "MERSIT(8,2)" in out and "Posit(8,1)" in out and "INT8" in out

    def test_inspect_overview(self, capsys):
        assert main(["inspect", "MERSIT(8,2)"]) == 0
        out = capsys.readouterr().out
        assert "2^-9" in out

    def test_inspect_decode_code(self, capsys):
        assert main(["inspect", "MERSIT(8,2)", "0b01000000"]) == 0
        out = capsys.readouterr().out
        assert "0b01000000" in out

    def test_inspect_encode_value(self, capsys):
        assert main(["inspect", "FP(8,4)", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "0.5" in out

    def test_hardware_small_stream(self, capsys):
        assert main(["hardware", "--formats", "MERSIT(8,2)", "--stream", "32"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out  # exactness check passed

    def test_ptq_unknown_model(self, capsys):
        assert main(["ptq", "AlexNet"]) == 2

    def test_experiments_unknown_name(self, capsys):
        assert main(["experiments", "fig99"]) == 2

    def test_experiments_table1(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "MATCHES PAPER" in out

    def test_experiments_jobs_propagated(self, monkeypatch):
        import repro.experiments.runner as runner
        seen = {}

        def fake_runner(argv):
            seen["argv"] = argv
            return 0

        monkeypatch.setattr(runner, "main", fake_runner)
        assert main(["experiments", "table1", "--jobs", "4"]) == 0
        assert seen["argv"] == ["table1", "--jobs", "4"]

    def test_experiments_always_passes_explicit_argv(self, monkeypatch):
        # regression: empty names used to fall back to this process's argv
        import repro.experiments.runner as runner
        seen = {}

        def fake_runner(argv):
            seen["argv"] = argv
            return 0

        monkeypatch.setattr(runner, "main", fake_runner)
        assert main(["experiments"]) == 0
        assert seen["argv"] == []


class TestServeCommand:
    def test_serve_micro_model_end_to_end(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_CACHE", str(tmp_path / "cache"))
        assert main(["serve", "micro-mlp", "--requests", "12",
                     "--concurrency", "4", "--calib", "8", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "closed-loop micro-mlp" in out and "12/12 ok" in out
        assert "serve metrics" in out and "batch histo" in out

    def test_serve_mixed_spec_through_one_shard(self, capsys, tmp_path,
                                                monkeypatch):
        """A preheated mixed spec publishes one LUT segment per format."""
        monkeypatch.setenv("REPRO_SERVE_CACHE", str(tmp_path / "cache"))
        assert main(["serve", "micro-mlp", "--shards", "1",
                     "--format", "mixed(MERSIT(8,2);layer2=FP(8,2))",
                     "--requests", "8", "--concurrency", "2",
                     "--calib", "8"]) == 0
        assert "8/8 ok" in capsys.readouterr().out

    def test_serve_unknown_model(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_CACHE", str(tmp_path / "cache"))
        assert main(["serve", "no-such-model"]) == 2
        assert "unknown model" in capsys.readouterr().out
