"""The command-line interface."""

import pytest

from repro.cli import main as cli_main


FIG9 = """
param n
real a(n+1), b(n+1), c(n+1), d(n+1)
doall i = 2, n-1
    a[i] = b[i]
end do
doall i = 2, n-1
    c[i] = a[i+1] + a[i-1]
end do
"""


class TestCli:
    def test_transform(self, tmp_path, capsys):
        src = tmp_path / "prog.loop"
        src.write_text(FIG9)
        assert cli_main(["transform", str(src)]) == 0
        out = capsys.readouterr().out
        assert "do ii = istart, iend" in out
        assert "<BARRIER>" in out

    def test_transform_direct_style(self, tmp_path, capsys):
        src = tmp_path / "prog.loop"
        src.write_text(FIG9)
        assert cli_main(["transform", str(src), "--style", "direct"]) == 0
        assert "if (" in capsys.readouterr().out

    def test_analyze(self, tmp_path, capsys):
        src = tmp_path / "prog.loop"
        src.write_text(FIG9)
        assert cli_main(["analyze", str(src), "--n", "100000"]) == 0
        out = capsys.readouterr().out
        assert "shift=(1,)" in out
        assert "legal up to" in out
        assert "profitability" in out

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ll18" in out and "fig22" in out

    def test_experiment_table2(self, capsys):
        assert cli_main(["experiment", "table2"]) == 0
        assert "matches paper" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert cli_main(["experiment", "fig99"]) == 2

    def test_no_bench_subcommand(self, capsys):
        """``benchmarks/e2e`` is the only measurement system: there is no
        ``repro bench`` and no ``repro.bench`` package behind it."""
        import importlib.util

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert importlib.util.find_spec("repro.bench") is None

    @pytest.mark.parametrize("flag, message", [
        (["--backend", "mp"], "invalid choice: 'mp'"),
        (["--sync", "barrier"], "unrecognized arguments: --sync"),
    ])
    def test_exec_removed_options_are_usage_errors(self, flag, message,
                                                   capsys):
        """The fork-per-run ``mp`` backend and the ``sync`` option are
        gone: naming either is an argparse usage error."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["exec", "jacobi", "--n", "21", *flag])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("strip", ["0", "-2"])
    def test_exec_rejects_non_positive_strip(self, strip, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["exec", "jacobi", "--n", "17", "--strip", strip])
        assert excinfo.value.code == 2
        assert "argument --strip: must be at least 1" in \
            capsys.readouterr().err

    def test_exec_theorem1_violation_fails_closed(self, capsys):
        """jacobi at n=3 has block size 1 < Nt=3: one line naming the
        error and exit 2, not a traceback."""
        rc = cli_main(["exec", "jacobi", "--n", "3", "--backend", "jit"])
        assert rc == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("repro exec: FusionLegalityError: ")
        assert "Theorem 1 violated" in err
        assert "\n" not in err and "Traceback" not in err
        assert captured.out == ""

    def test_simulate(self, capsys):
        assert cli_main(
            ["simulate", "jacobi", "--procs", "1,4", "--scale", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "jacobi on" in out
