"""Executable generated code (CIR): nodes and the direct method."""

import numpy as np
import pytest

from conftest import alloc_1d, arrays_equal, copy_arrays

from repro.codegen import (
    CodeBarrier,
    CodeFor,
    CodeIf,
    CodeStmt,
    Compare,
    block,
    direct_fused_code,
    loop,
    run_code,
    run_direct,
)
from repro.core import build_execution_plan, derive_shift_peel
from repro.ir import Affine, BoundExpr, assign, load
from repro.runtime import run_parallel, run_sequence_serial

i = Affine.var("i")
PARAMS = {"n": 37}
SIZE = 38


class TestCirNodes:
    def test_loop_executes_range(self):
        code = loop("i", 0, 4, CodeStmt(assign("a", i, load("a", i) + 1)))
        arrays = {"a": np.zeros(5)}
        run_code(code, {}, arrays)
        assert arrays["a"].tolist() == [1.0] * 5

    def test_loop_step(self):
        code = loop("i", 0, 8, CodeStmt(assign("a", i, 1.0)), step=4)
        arrays = {"a": np.zeros(9)}
        run_code(code, {}, arrays)
        assert arrays["a"].sum() == 3

    def test_loop_min_max_bounds(self):
        code = CodeFor(
            "i",
            BoundExpr.maximum(Affine.var("lo"), 2),
            BoundExpr.minimum(Affine.var("hi"), 5),
            block(CodeStmt(assign("a", i, 1.0))),
        )
        arrays = {"a": np.zeros(10)}
        run_code(code, {"lo": 0, "hi": 9}, arrays)
        assert arrays["a"][2:6].sum() == 4 and arrays["a"].sum() == 4

    def test_empty_loop(self):
        code = loop("i", 5, 4, CodeStmt(assign("a", i, 1.0)))
        arrays = {"a": np.zeros(6)}
        run_code(code, {}, arrays)
        assert arrays["a"].sum() == 0

    def test_if_guard(self):
        body = CodeStmt(assign("a", i, 1.0))
        code = loop(
            "i", 0, 9, CodeIf(Compare(i, ">=", Affine.constant(7)), body)
        )
        arrays = {"a": np.zeros(10)}
        run_code(code, {}, arrays)
        assert arrays["a"].sum() == 3

    def test_compare_ops(self):
        env = {"i": 5}
        assert Compare(i, "==", Affine.constant(5)).eval(env)
        assert Compare(i, "<", Affine.constant(6)).eval(env)
        assert not Compare(i, ">", Affine.constant(5)).eval(env)
        with pytest.raises(ValueError):
            Compare(i, "!=", Affine.constant(5))

    def test_loop_restores_outer_binding(self):
        code = loop("i", 0, 2, CodeStmt(assign("a", i, 1.0)))
        env = {"i": 99}
        code.execute(env, {"a": np.zeros(3)})
        assert env["i"] == 99

    def test_render(self):
        code = loop("i", 0, 4, CodeStmt(assign("a", i, 1.0)), parallel=True)
        text = str(code)
        assert text.startswith("doall i = 0, 4")
        assert "end do" in text

    def test_render_if(self):
        node = CodeIf(Compare(i, ">=", Affine.constant(2)), CodeStmt(assign("a", i, 1.0)))
        assert str(node) == "if (i >= 2) a[i] = 1.0"

    def test_barrier_render(self):
        assert "<BARRIER>" in str(CodeBarrier("sync"))

    def test_statements_iteration(self):
        code = loop("i", 0, 1, CodeStmt(assign("a", i, 1.0)), CodeStmt(assign("b", i, 2.0)))
        assert len(list(code.statements())) == 2

    def test_bad_step(self):
        with pytest.raises(ValueError):
            loop("i", 0, 1, CodeStmt(assign("a", i, 1.0)), step=0)


class TestDirectMethod:
    def test_fig9_direct_matches_oracle(self, fig9_sequence):
        base = alloc_1d("abcd", SIZE, seed=7)
        oracle = copy_arrays(base)
        run_sequence_serial(fig9_sequence, PARAMS, oracle)
        plan = derive_shift_peel(fig9_sequence, ("n",))
        got = copy_arrays(base)
        run_direct(plan, PARAMS, got)
        assert arrays_equal(oracle, got)

    def test_fig13_direct(self, fig13_sequence):
        base = alloc_1d("ab", SIZE, seed=8)
        oracle = copy_arrays(base)
        run_sequence_serial(fig13_sequence, PARAMS, oracle)
        plan = derive_shift_peel(fig13_sequence, ("n",))
        got = copy_arrays(base)
        run_direct(plan, PARAMS, got)
        assert arrays_equal(oracle, got)

    def test_direct_guards_present(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        text = str(direct_fused_code(plan, PARAMS))
        assert "if (" in text
        assert "c[i-1]" in text  # shifted subscripts
        assert "d[i-2]" in text

    def test_direct_matches_stripmined(self, fig9_sequence):
        """The direct method agrees with the strip-mined schedule the
        executors walk (``ExecutionPlan.rows``), here through the
        interpreter."""
        plan = derive_shift_peel(fig9_sequence, ("n",))
        base = alloc_1d("abcd", SIZE, seed=9)
        a = copy_arrays(base)
        run_direct(plan, PARAMS, a)
        b = copy_arrays(base)
        run_parallel(build_execution_plan(plan, PARAMS), b, strip=4)
        assert arrays_equal(a, b)

    def test_direct_rejects_multidim(self, jacobi_sequence):
        plan = derive_shift_peel(jacobi_sequence, ("n",))
        with pytest.raises(ValueError):
            direct_fused_code(plan, {"n": 19})

    def test_direct_2d_nests_depth1_fusion(self):
        """Direct method on 2-D nests fused in the outer dim only."""
        from repro.kernels import get_kernel

        info = get_kernel("ll18")
        program = info.program()
        seq = program.sequences[0]
        params = {"n": 21}
        rng = np.random.default_rng(10)
        base = {d.name: rng.random((22, 22)) + 1.0 for d in program.arrays}
        oracle = copy_arrays(base)
        run_sequence_serial(seq, params, oracle)
        plan = derive_shift_peel(seq, program.params, 1)
        got = copy_arrays(base)
        run_direct(plan, params, got)
        assert arrays_equal(oracle, got)
