"""Loop transformations (distribution, interchange, strip-mine) and CLI."""

import pytest

from conftest import alloc_2d, arrays_equal, copy_arrays

from repro.cli import main as cli_main
from repro.ir import (
    Affine,
    Loop,
    LoopNest,
    TransformError,
    assign,
    distribute_nest,
    interchange,
    interchange_legal,
    load,
    reversal_legal,
    strip_mine,
)
from repro.runtime import run_nest, run_sequence_serial

i = Affine.var("i")
j = Affine.var("j")
n = Affine.var("n")


def two_stmt_nest():
    return LoopNest(
        (Loop.make("j", 1, n - 1), Loop.make("i", 1, n - 1)),
        (
            assign("a", (j, i), load("x", j, i) + load("y", j, i)),
            assign("b", (j, i), load("a", j, i) * 2.0),
        ),
        name="L",
    )


class TestDistribution:
    def test_splits_statements(self):
        seq = distribute_nest(two_stmt_nest())
        assert len(seq) == 2
        assert [len(nest.body) for nest in seq] == [1, 1]
        assert seq[0].body[0].target.array == "a"
        assert seq[1].body[0].target.array == "b"

    def test_semantics_preserved(self):
        nest = two_stmt_nest()
        params = {"n": 12}
        base = alloc_2d(["a", "b", "x", "y"], (12, 12), seed=0)
        direct = copy_arrays(base)
        run_nest(nest, params, direct)
        split = copy_arrays(base)
        run_sequence_serial(distribute_nest(nest), params, split)
        assert arrays_equal(direct, split)

    def test_distributed_then_refused(self):
        """Distribution produces a sequence shift-and-peel can re-fuse."""
        from repro.core import fuse_sequence

        seq = distribute_nest(two_stmt_nest())
        result = fuse_sequence(seq, ("n",), depth=1)
        assert result.plan.is_plain_fusion()  # a->b at distance 0

    def test_singleton_noop(self):
        nest = LoopNest(
            (Loop.make("i", 0, n),), (assign("a", i, load("b", i)),)
        )
        seq = distribute_nest(nest)
        assert len(seq) == 1

    def test_order_preserved_through_chain(self):
        nest = LoopNest(
            (Loop.make("i", 1, n - 1),),
            (
                assign("a", i, load("x", i)),
                assign("b", i, load("a", i)),
                assign("c", i, load("b", i)),
            ),
        )
        seq = distribute_nest(nest)
        assert [nest.body[0].target.array for nest in seq] == ["a", "b", "c"]


class TestInterchange:
    def test_legal_swap(self):
        nest = two_stmt_nest()
        assert interchange_legal(nest, 0, 1)
        swapped = interchange(nest, 0, 1)
        assert swapped.loop_vars == ("i", "j")

    def test_semantics_preserved(self):
        nest = two_stmt_nest()
        params = {"n": 10}
        base = alloc_2d(["a", "b", "x", "y"], (10, 10), seed=1)
        one = copy_arrays(base)
        run_nest(nest, params, one)
        two = copy_arrays(base)
        run_nest(interchange(nest, 0, 1), params, two)
        assert arrays_equal(one, two)

    def test_illegal_swap_detected(self):
        # a[j][i] = a[j-1][i+1]: distance (1, -1); swapping makes it (-1, 1).
        nest = LoopNest(
            (Loop.make("j", 1, n - 1, parallel=False),
             Loop.make("i", 1, n - 2, parallel=False)),
            (assign("a", (j, i), load("a", j - 1, i + 1)),),
        )
        assert not interchange_legal(nest, 0, 1)
        with pytest.raises(TransformError):
            interchange(nest, 0, 1)

    def test_bad_levels(self):
        with pytest.raises(TransformError):
            interchange(two_stmt_nest(), 0, 5)

    def test_same_level_noop(self):
        nest = two_stmt_nest()
        assert interchange(nest, 1, 1) is nest


class TestStripMineAndReversal:
    def test_strip_mine_structure(self):
        mined = strip_mine(two_stmt_nest(), 0, 8)
        assert mined.depth == 3
        assert mined.loop_vars == ("jj", "j", "i")

    def test_strip_mine_bad_args(self):
        with pytest.raises(TransformError):
            strip_mine(two_stmt_nest(), 0, 0)
        with pytest.raises(TransformError):
            strip_mine(two_stmt_nest(), 9, 4)

    def test_reversal(self):
        nest = two_stmt_nest()
        assert reversal_legal(nest, 0)
        recur = LoopNest(
            (Loop.make("i", 1, n - 1, parallel=False),),
            (assign("a", i, load("a", i - 1)),),
        )
        assert not reversal_legal(recur, 0)


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

    def test_simulate(self, capsys):
        assert cli_main(
            ["simulate", "jacobi", "--procs", "1,4", "--scale", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "jacobi on" in out
