"""Differential tests: fast backends must be bit-identical to the interpreter.

Sweeps every registered kernel (and every sequence of the applications)
through the ``vector``, ``jit``, ``mpjit`` and ``cjit`` backends —
strip-mined and whole-box — comparing arrays *bitwise*
(``np.array_equal``, not allclose) against the ``interp`` reference, on odd
shapes including empty and single-iteration ranges.  The mpjit runs
force ``max_workers=2`` so the pooled-parallel path executes even on a
one-core host.  Also unit-tests the vectorized box executor
on the awkward access patterns (diagonals, transposed subscripts, strided
subscripts, reductions over a missing target variable, sequential
dimensions).
"""

import dataclasses

import numpy as np
import pytest

from conftest import copy_arrays, kernel_plans

from repro.core import StripError, build_execution_plan, derive_shift_peel
from repro.ir import Affine, Loop, LoopNest, LoopSequence, assign, load
from repro.kernels import all_kernels, get_kernel
from repro.runtime import (
    Backend,
    BackendMismatch,
    available_backends,
    checksum,
    exec_box,
    get_backend,
    register_backend,
    run_parallel,
    vector_dims,
)

KERNEL_NAMES = sorted(info.name for info in all_kernels())


def _setup(kernel, n, procs):
    """Build per-sequence execution plans and seeded arrays for a kernel."""
    program, params, plans = kernel_plans(kernel, n, procs)
    if not plans:
        pytest.skip(f"{kernel}: no sequence legal at n={n}")
    rng = np.random.default_rng(3)
    base = {
        d.name: rng.random(d.concrete_shape(params)) + 1.0
        for d in program.arrays
    }
    return base, plans


def _run_backend(plans, arrays, backend, **kw):
    totals = {"fused_iterations": 0, "peeled_iterations": 0}
    be = get_backend(backend)
    for ep in plans:
        stats = be.run(ep, arrays, **kw)
        for key in totals:
            totals[key] += stats[key]
    return totals


def _assert_identical(reference, candidate, context):
    for name in reference:
        assert np.array_equal(reference[name], candidate[name]), (context, name)


def _check_every_strip(kernel, procs, backend, **kw):
    # filter's ten nests are not legal to fuse below n=21 (Theorem 1)
    base, plans = _setup(kernel, 21 if kernel == "filter" else 13, procs)
    ref = copy_arrays(base)
    ref_counts = _run_backend(plans, ref, "interp")
    for strip in (None, 1, 4):
        got = copy_arrays(base)
        counts = _run_backend(plans, got, backend, strip=strip, **kw)
        _assert_identical(ref, got, (backend, kernel, procs, strip))
        assert counts == ref_counts, (backend, kernel, procs, strip)


class TestAllKernelsAllBackends:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("n", [13, 21])
    @pytest.mark.parametrize("procs", [1, 3])
    def test_fast_backends_match_interp(self, kernel, n, procs):
        base, plans = _setup(kernel, n, procs)
        ref = copy_arrays(base)
        ref_counts = _run_backend(plans, ref, "interp")
        for backend in ("vector", "jit", "mpjit", "cjit"):
            # mpjit: force two pooled workers so the parallel compiled
            # path runs even where os.cpu_count() == 1.  cjit needs no
            # gate: without a C compiler it falls back to jit, which this
            # sweep already holds to the interpreter.
            extra = {"max_workers": 2} if backend == "mpjit" else {}
            for strip in (None, 3):
                got = copy_arrays(base)
                counts = _run_backend(plans, got, backend, strip=strip,
                                      **extra)
                _assert_identical(ref, got, (backend, kernel, n, procs, strip))
                assert counts == ref_counts, (backend, kernel, n, procs, strip)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("procs", [1, 2, 3, 4, 6])
    def test_cjit_matches_interp_every_grid_and_strip(self, kernel, procs):
        """The native tier's schedule is data: the same compiled bodies
        must serve every processor count and every strip (whole boxes,
        4-wide tiles, single-iteration tiles) with the interpreter's
        bits and counts."""
        _check_every_strip(kernel, procs, "cjit")

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("procs", [1, 2, 3, 4, 6])
    def test_mpjit_matches_interp_every_grid_and_strip(self, kernel, procs):
        """The same matrix dealt unevenly across two pooled workers with
        point-to-point sync: processor counts above the worker count
        share a worker, and no strip may change bits or counts."""
        _check_every_strip(kernel, procs, "mpjit", max_workers=2)


@pytest.mark.parametrize("backend", ["interp", "vector", "jit", "cjit", "mpjit"])
@pytest.mark.parametrize("strip", [0, -2])
def test_non_positive_strip_fails_closed_on_every_backend(backend, strip):
    """Every backend walks ``ExecutionPlan.rows``, so every one refuses a
    strip below 1 before touching the arrays (a negative strip used to
    skip the fused phase and still pass ``--verify``)."""
    base, plans = _setup("jacobi", 13, 2)
    got = copy_arrays(base)
    with pytest.raises(StripError):
        get_backend(backend).run(plans[0], got, strip=strip)
    _assert_identical(base, got, (backend, strip))


def _seq_1d():
    i = Affine.var("i")
    n = Affine.var("n")
    return LoopSequence(
        (
            LoopNest((Loop.make("i", 2, n - 1),),
                     (assign("a", i, load("b", i)),), name="L1"),
            LoopNest((Loop.make("i", 2, n - 1),),
                     (assign("c", i, load("a", i + 1) + load("a", i - 1)),),
                     name="L2"),
        ),
        name="chain",
    )


def _degenerate_plan(fused_range, peel_range):
    """A 1-proc plan whose per-nest boxes are forced to the given ranges.

    ``build_execution_plan`` (correctly) refuses degenerate trip counts via
    Theorem 1, so empty/single-iteration work is produced by shrinking a
    legal plan's processor boxes — both backends consume exactly these.
    """
    seq = _seq_1d()
    plan = derive_shift_peel(seq, ("n",))
    ep = build_execution_plan(plan, {"n": 9}, num_procs=1)
    proc = ep.processors[0]
    proc = dataclasses.replace(
        proc,
        fused=tuple((fused_range,) for _ in proc.fused),
        peeled=tuple(
            dataclasses.replace(rect, ranges=(peel_range,))
            for rect in proc.peeled
        ),
    )
    return dataclasses.replace(ep, processors=(proc,))


class TestDegenerateRanges:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_smallest_legal_sizes(self, n):
        """The smallest problem sizes Theorem 1 admits at all."""
        seq = _seq_1d()
        params = {"n": n}
        rng = np.random.default_rng(0)
        base = {name: rng.random(8) + 0.5 for name in "abc"}
        plan = derive_shift_peel(seq, ("n",))
        ep = build_execution_plan(plan, params, num_procs=1)
        ref = copy_arrays(base)
        ref_counts = run_parallel(ep, ref)
        for backend, kw in (("vector", {}), ("vector", {"strip": 2}),
                            ("jit", {}), ("jit", {"strip": 2}),
                            ("cjit", {}), ("cjit", {"strip": 2})):
            got = copy_arrays(base)
            counts = get_backend(backend).run(ep, got, **kw)
            _assert_identical(ref, got, (backend, n))
            assert counts == ref_counts

    @pytest.mark.parametrize(
        "fused_range,peel_range",
        [((5, 4), (3, 2)), ((5, 5), (3, 3)), ((4, 6), (3, 3))],
        ids=["empty", "single", "tiny"],
    )
    def test_empty_and_single_iteration_ranges(self, fused_range, peel_range):
        """Backends must agree on plans holding empty and one-iteration
        boxes (these arise as peel rectangles of interior processors)."""
        ep = _degenerate_plan(fused_range, peel_range)
        rng = np.random.default_rng(6)
        base = {name: rng.random(12) + 0.5 for name in "abc"}
        ref = copy_arrays(base)
        ref_counts = run_parallel(ep, ref)
        for backend, kw in (("vector", {}), ("vector", {"strip": 2}),
                            ("jit", {}), ("jit", {"strip": 2}),
                            ("cjit", {}), ("cjit", {"strip": 2})):
            got = copy_arrays(base)
            counts = get_backend(backend).run(ep, got, **kw)
            _assert_identical(ref, got, (backend, fused_range))
            assert counts == ref_counts
        if fused_range == (5, 4):
            assert ref_counts["fused_iterations"] == 0
        if peel_range == (3, 2):
            assert ref_counts["peeled_iterations"] == 0

    def test_exec_box_empty_box(self):
        seq = _seq_1d()
        arrays = {"a": np.ones(4), "b": np.ones(4), "c": np.ones(4)}
        assert exec_box(seq[0], ((3, 2),), {"n": 4}, arrays) == 0
        assert np.array_equal(arrays["a"], np.ones(4))


class TestExecBoxAccessPatterns:
    def _check(self, nest, params, arrays, box=None):
        """exec_box vs per-iteration interpretation over the full space."""
        if box is None:
            box = tuple(lp.bounds(params) for lp in nest.loops)
        expected = copy_arrays(arrays)
        env = dict(params)
        import itertools

        for ivec in itertools.product(
            *(range(lo, hi + 1) for lo, hi in box)
        ):
            for var, val in zip(nest.loop_vars, ivec):
                env[var] = val
            for st in nest.body:
                st.execute(env, expected)
        got = copy_arrays(arrays)
        count = exec_box(nest, box, params, got)
        _assert_identical(expected, got, nest.name)
        sizes = 1
        for lo, hi in box:
            sizes *= max(0, hi - lo + 1)
        assert count == sizes

    def test_diagonal_write(self):
        """a[i,i] writes the diagonal: basic slicing would cross-product."""
        i = Affine.var("i")
        n = Affine.var("n")
        nest = LoopNest(
            (Loop.make("i", 0, n - 1),),
            (assign("a", (i, i), load("b", i, i) * 2.0),),
            name="diag",
        )
        rng = np.random.default_rng(1)
        arrays = {"a": rng.random((6, 6)), "b": rng.random((6, 6))}
        self._check(nest, {"n": 6}, arrays)

    def test_transposed_subscripts(self):
        """Loops (j, i) writing a[i, j]: axes must be permuted, not mixed."""
        i, j, n = Affine.var("i"), Affine.var("j"), Affine.var("n")
        nest = LoopNest(
            (Loop.make("j", 1, n - 2), Loop.make("i", 0, n - 1)),
            (assign("a", (i, j), load("b", j, i) + load("b", i, j)),),
            name="transpose",
        )
        rng = np.random.default_rng(2)
        arrays = {"a": rng.random((7, 7)), "b": rng.random((7, 7))}
        self._check(nest, {"n": 7}, arrays)

    def test_strided_subscript(self):
        """Coefficient 2 forces the fancy-index path."""
        i, n = Affine.var("i"), Affine.var("n")
        nest = LoopNest(
            (Loop.make("i", 0, n - 1),),
            (assign("a", 2 * i, load("b", i) + 1.0),),
            name="stride2",
        )
        rng = np.random.default_rng(3)
        arrays = {"a": rng.random(12), "b": rng.random(6)}
        self._check(nest, {"n": 6}, arrays)

    def test_missing_target_var_demoted(self):
        """a[i] = b[i, j]: j cannot vectorize (last-write-wins ordering),
        so it must fall back to ordered scalar iteration."""
        i, j, n = Affine.var("i"), Affine.var("j"), Affine.var("n")
        nest = LoopNest(
            (Loop.make("i", 0, n - 1), Loop.make("j", 0, n - 1)),
            (assign("a", i, load("b", i, j)),),
            name="lastwrite",
        )
        assert 1 not in vector_dims(nest)
        rng = np.random.default_rng(4)
        arrays = {"a": rng.random(5), "b": rng.random((5, 5))}
        self._check(nest, {"n": 5}, arrays)

    def test_sequential_dimension_order(self):
        """A genuine recurrence must execute in order, never vectorized."""
        i, n = Affine.var("i"), Affine.var("n")
        nest = LoopNest(
            (Loop.make("i", 1, n - 1, parallel=False),),
            (assign("a", i, load("a", i - 1) + 1.0),),
            name="scan",
        )
        assert vector_dims(nest) == ()
        arrays = {"a": np.zeros(9)}
        exec_box(nest, ((1, 8),), {"n": 9}, arrays)
        assert np.array_equal(arrays["a"], np.arange(9.0))

    def test_do_loop_without_carried_dep_is_vectorized(self):
        """The analysis upgrades a conservative `do` marking (the ll18 /
        filter / calc pattern) when nothing is actually carried."""
        info = get_kernel("ll18")
        nest = info.program().sequences[0][0]
        assert vector_dims(nest) == (0, 1)


class TestBackendRegistry:
    def test_available(self):
        assert available_backends() == (
            "cjit", "interp", "jit", "mpjit", "vector")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")

    def test_verify_catches_divergence(self):
        def broken_runner(exec_plan, arrays, strip=None):
            stats = get_backend("vector").runner(exec_plan, arrays, strip=strip)
            next(iter(arrays.values()))[...] += 1.0
            return stats

        name = "broken-for-test"
        try:
            get_backend(name)
        except ValueError:
            register_backend(Backend(name, "deliberately wrong", broken_runner))
        seq = _seq_1d()
        plan = derive_shift_peel(seq, ("n",))
        ep = build_execution_plan(plan, {"n": 9}, num_procs=2)
        arrays = {name_: np.ones(10) for name_ in "abc"}
        with pytest.raises(BackendMismatch):
            get_backend(name).run(ep, arrays, verify=True)

    @pytest.mark.parametrize("backend", ["vector", "jit", "cjit"])
    def test_verify_passes_for_fast_backends(self, backend):
        seq = _seq_1d()
        plan = derive_shift_peel(seq, ("n",))
        ep = build_execution_plan(plan, {"n": 17}, num_procs=3)
        rng = np.random.default_rng(5)
        arrays = {name: rng.random(18) for name in "abc"}
        get_backend(backend).run(ep, arrays, verify=True)

    def test_checksum_deterministic_and_sensitive(self):
        arrays = {"a": np.arange(4.0), "b": np.ones((2, 2))}
        again = {"a": np.arange(4.0), "b": np.ones((2, 2))}
        assert checksum(arrays) == checksum(again)
        again["b"][0, 0] = 7.0
        assert checksum(arrays) != checksum(again)


class TestCliExec:
    def test_exec_json(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "record.json"
        rc = cli_main([
            "exec", "jacobi", "--backend", "vector", "--n", "21",
            "--repeat", "1", "--verify", "--json", str(out),
        ])
        assert rc == 0
        import json

        record = json.loads(out.read_text())
        assert record["kernel"] == "jacobi"
        assert record["backend"] == "vector"
        assert record["iterations"] > 0
        assert len(record["checksum"]) == 16
        assert "checksum" in capsys.readouterr().out

    def test_exec_json_to_stdout(self, capsys):
        """``--json -`` makes stdout pure machine-readable JSON; the
        human narration moves to stderr so pipelines stay parseable."""
        from repro.cli import main as cli_main

        rc = cli_main([
            "exec", "jacobi", "--backend", "vector", "--n", "21",
            "--repeat", "1", "--verify", "--json", "-",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        import json

        record = json.loads(captured.out)  # stdout is ONLY the record
        assert record["kernel"] == "jacobi"
        assert len(record["checksum"]) == 16
        assert "checksum" in captured.err  # narration intact, on stderr
