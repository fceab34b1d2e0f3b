"""Interpreter and the simulated-parallel executor."""

import numpy as np
import pytest

from conftest import alloc_1d, alloc_2d, arrays_equal, copy_arrays

from repro.core import build_execution_plan, derive_shift_peel
from repro.runtime import (
    run_nest,
    run_parallel,
    run_sequence_serial,
    run_unfused_parallel,
)
from repro.runtime.benchmarking import percentile, summarize_samples


PARAMS = {"n": 33}
SIZE = 34


class TestInterpreter:
    def test_serial_matches_manual(self, fig9_sequence):
        arrays = alloc_1d("abcd", SIZE)
        run_sequence_serial(fig9_sequence, PARAMS, arrays)
        b = arrays["b"]
        for idx in range(2, 33):
            assert arrays["a"][idx] == b[idx]
        for idx in range(2, 33):
            assert np.isclose(arrays["c"][idx], arrays["a"][idx + 1] + arrays["a"][idx - 1])

    def test_sequential_inner_loop_order(self):
        # An inner `do` loop with a carried dependence must run in order.
        from repro.ir import Affine, Loop, LoopNest, assign, load

        i = Affine.var("i")
        nest = LoopNest(
            (Loop.make("i", 1, Affine.var("n") - 1, parallel=False),),
            (assign("a", i, load("a", i - 1) + 1),),
        )
        arrays = {"a": np.zeros(10)}
        run_nest(nest, {"n": 10}, arrays)
        assert list(arrays["a"]) == list(range(10))


def _check_fused_equivalence(seq, params, names, shape, procs_list, strip=4):
    plan = derive_shift_peel(seq, ("n",))
    base = (
        alloc_1d(names, shape, seed=11)
        if isinstance(shape, int)
        else alloc_2d(names, shape, seed=11)
    )
    oracle = copy_arrays(base)
    run_sequence_serial(seq, params, oracle)
    for procs in procs_list:
        grid = procs if isinstance(procs, tuple) else None
        ep = build_execution_plan(
            plan,
            params,
            num_procs=procs if grid is None else 1,
            grid_shape=grid,
        )
        for mode in ("sequential", "reversed", "roundrobin", "random"):
            got = copy_arrays(base)
            run_parallel(
                ep, got, interleave=mode, strip=strip, rng=np.random.default_rng(1)
            )
            assert arrays_equal(oracle, got), (procs, mode)


class TestParallelCorrectness:
    def test_fig9_all_interleaves(self, fig9_sequence):
        _check_fused_equivalence(fig9_sequence, PARAMS, "abcd", SIZE, [1, 2, 3, 5])

    def test_fig13(self, fig13_sequence):
        _check_fused_equivalence(fig13_sequence, PARAMS, "ab", SIZE, [1, 2, 4])

    def test_fig4(self, fig4_sequence):
        _check_fused_equivalence(fig4_sequence, PARAMS, "abc", SIZE, [1, 3])

    def test_jacobi_grids(self, jacobi_sequence):
        _check_fused_equivalence(
            jacobi_sequence,
            {"n": 19},
            "ab",
            (21, 21),
            [(1, 1), (2, 2), (3, 2), (4, 4)],
            strip=3,
        )

    def test_unfused_parallel_matches_serial(self, fig9_sequence):
        base = alloc_1d("abcd", SIZE, seed=2)
        oracle = copy_arrays(base)
        run_sequence_serial(fig9_sequence, PARAMS, oracle)
        for procs in (1, 2, 5):
            got = copy_arrays(base)
            run_unfused_parallel(
                fig9_sequence, PARAMS, got, procs, interleave="random",
                rng=np.random.default_rng(7),
            )
            assert arrays_equal(oracle, got)

    def test_stats_counts(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, PARAMS, num_procs=3)
        arrays = alloc_1d("abcd", SIZE)
        stats = run_parallel(ep, arrays)
        total = sum(nest.iteration_count(PARAMS) for nest in plan.seq)
        assert stats["fused_iterations"] + stats["peeled_iterations"] == total

    def test_bad_interleave_mode(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, PARAMS, num_procs=2)
        with pytest.raises(ValueError):
            run_parallel(ep, alloc_1d("abcd", SIZE), interleave="zigzag")


class TestKernelCorrectness:
    @pytest.mark.parametrize("kernel,params,shape,procs", [
        ("ll18", {"n": 25}, (26, 26), 3),
        ("calc", {"n": 29}, (30, 30), 2),
        ("tomcatv", {"n": 21}, (22, 22), 3),
    ])
    def test_fused_equals_oracle(self, kernel, params, shape, procs):
        from repro.kernels import get_kernel

        info = get_kernel(kernel)
        program = info.program()
        seq = program.sequences[0]
        plan = derive_shift_peel(seq, program.params, info.fuse_depth)
        rng = np.random.default_rng(4)
        base = {d.name: rng.random(shape) + 1.0 for d in program.arrays}
        oracle = copy_arrays(base)
        run_sequence_serial(seq, params, oracle)
        ep = build_execution_plan(plan, params, num_procs=procs)
        got = copy_arrays(base)
        run_parallel(ep, got, interleave="random", rng=np.random.default_rng(9))
        assert arrays_equal(oracle, got)

    def test_filter_fused_equals_oracle(self):
        from repro.kernels import get_kernel

        info = get_kernel("filter")
        program = info.program()
        seq = program.sequences[0]
        params = {"m": 41, "n": 25}
        plan = derive_shift_peel(seq, program.params, 1)
        rng = np.random.default_rng(4)
        base = {d.name: rng.random((42, 26)) + 1.0 for d in program.arrays}
        oracle = copy_arrays(base)
        run_sequence_serial(seq, params, oracle)
        ep = build_execution_plan(plan, params, num_procs=2)
        got = copy_arrays(base)
        run_parallel(ep, got, interleave="roundrobin")
        assert arrays_equal(oracle, got)


class TestSampleStatistics:
    """The per-repeat statistics ``measure_kernel`` and ``loadgen`` record."""

    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([5.0], 99) == 5.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summarize_samples_stats(self):
        stats = summarize_samples(
            [0.1, 0.2, 0.3, 0.4, 0.5], deadline_seconds=0.35)
        assert stats["median_seconds"] == 0.3
        assert stats["p50_seconds"] == 0.3
        assert stats["p95_seconds"] == pytest.approx(0.48)
        assert stats["iqr_seconds"] == pytest.approx(0.2)
        assert stats["jitter"] == pytest.approx(0.6667)
        assert stats["deadline_misses"] == 2
        # warm excludes the cold first sample
        assert stats["warm_median_seconds"] == pytest.approx(0.35)

    def test_percentile_ignores_input_order(self):
        data = [3.0, 1.0, 4.0, 2.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 4.0
        assert percentile(data, 50) == 2.5
        assert data == [3.0, 1.0, 4.0, 2.0]  # caller's list untouched

    def test_summarize_samples_rejects_no_samples(self):
        with pytest.raises(ValueError):
            summarize_samples([])

    def test_single_sample_has_no_jitter(self):
        stats = summarize_samples([0.25])
        assert stats["jitter"] is None
        assert stats["median_seconds"] == 0.25
        assert stats["deadline_misses"] == 0
