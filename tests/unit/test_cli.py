"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "table-t1",
                     "all"):
            assert name in out

    def test_no_command_defaults_to_list(self, capsys):
        assert main([]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_bench_is_not_a_command(self, capsys):
        """Speed is measured by ``perfbench/``; the CLI neither offers
        nor accepts a ``bench`` subcommand."""
        assert main(["list"]) == 0
        assert "bench" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "engine"])
        assert excinfo.value.code == 2

    def test_invalid_fastpath_mode_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2", "--fastpath", "maybe"])
        assert excinfo.value.code == 2
        assert "--fastpath" in capsys.readouterr().err

    def test_figure_accepts_scale_and_seed(self, capsys):
        # A tiny figure run through the real code path.
        assert main(["fig4", "--scale", "0.15", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "Shinjuku-Offload" in out
        assert "regenerated in" in out
