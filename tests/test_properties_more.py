"""Further property-based tests: 2-D fusion, generated code equivalence,
greedy partitioning invariants, DSL round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cachesim import CacheConfig
from repro.codegen import compile_plan
from repro.codegen.emitc import compile_plan_native, find_compiler
from repro.core import (
    build_execution_plan,
    derive_shift_peel,
    factor_grid,
    max_processors,
    verify_coverage,
)
from repro.ir import Affine, Loop, LoopNest, LoopSequence, assign, load
from repro.lang import parse_sequence
from repro.ir.printer import format_sequence
from repro.partition import greedy_memory_layout
from repro.runtime import run_parallel, run_sequence_serial, run_vector


# ---------------------------------------------------------------------------
# 2-D chains fused in both dimensions
# ---------------------------------------------------------------------------


@st.composite
def chains_2d(draw):
    num_nests = draw(st.integers(2, 3))
    chains = []
    for k in range(num_nests):
        source = f"t{k - 1}" if k else "src"
        num_reads = draw(st.integers(1, 3))
        offsets = draw(
            st.lists(
                st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                min_size=num_reads, max_size=num_reads, unique=True,
            )
        )
        chains.append([(source, off) for off in offsets])
    return chains


def build_2d_sequence(chains):
    ii = Affine.var("i")
    jj = Affine.var("j")
    n = Affine.var("n")
    nests = []
    for k, reads in enumerate(chains):
        rhs = None
        for array, (dj, di) in reads:
            term = load(array, jj + dj, ii + di)
            rhs = term if rhs is None else rhs + term
        nests.append(
            LoopNest(
                (Loop.make("j", 2, n - 1), Loop.make("i", 2, n - 1)),
                (assign(f"t{k}", (jj, ii), rhs * 0.5),),
                name=f"L{k + 1}",
            )
        )
    return LoopSequence(tuple(nests), name="rand2d")


class Test2DFusionProperty:
    @given(chains_2d(), st.integers(1, 3), st.integers(1, 3), st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_fused_2d_equals_oracle(self, chains, gj, gi, seed):
        seq = build_2d_sequence(chains)
        params = {"n": 25}
        plan = derive_shift_peel(seq, ("n",))
        ceilings = max_processors(plan, params)
        grid = (min(gj, ceilings[0]), min(gi, ceilings[1]))

        rng = np.random.default_rng(seed)
        names = ["src"] + [f"t{k}" for k in range(len(chains))]
        base = {name: rng.random((26, 26)) + 0.5 for name in names}

        oracle = {k: v.copy() for k, v in base.items()}
        run_sequence_serial(seq, params, oracle)

        ep = build_execution_plan(plan, params, grid_shape=grid)
        assert verify_coverage(ep)
        got = {k: v.copy() for k, v in base.items()}
        run_parallel(ep, got, interleave="random", strip=3,
                     rng=np.random.default_rng(seed + 1))
        for name in names:
            assert np.allclose(oracle[name], got[name]), name


# ---------------------------------------------------------------------------
# Generated code equals the oracle too (row consumers, direct method)
# ---------------------------------------------------------------------------


@st.composite
def chains_1d(draw):
    num_nests = draw(st.integers(2, 4))
    out = []
    for k in range(num_nests):
        source = f"t{k - 1}" if k else "src"
        offsets = draw(
            st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True)
        )
        out.append([(source, off) for off in offsets])
    return out


def build_1d_sequence(chains):
    ii = Affine.var("i")
    n = Affine.var("n")
    nests = []
    for k, reads in enumerate(chains):
        rhs = None
        for array, off in reads:
            term = load(array, ii + off)
            rhs = term if rhs is None else rhs + term
        nests.append(
            LoopNest(
                (Loop.make("i", 3, n - 3),),
                (assign(f"t{k}", ii, rhs * 0.5),),
                name=f"L{k + 1}",
            )
        )
    return LoopSequence(tuple(nests), name="rand1d")


HAVE_CC = find_compiler() is not None


class TestGeneratedCodeProperty:
    @given(
        st.one_of(chains_1d().map(build_1d_sequence),
                  chains_2d().map(build_2d_sequence)),
        st.integers(1, 4),
        st.one_of(st.none(), st.integers(1, 7)),
        st.integers(0, 99),
    )
    @settings(max_examples=30, deadline=None)
    def test_row_consumers_equal_interp(self, seq, procs, strip, seed):
        """Every walker of ``ExecutionPlan.rows`` on random programs: the
        vector backend, the numpy module and (with a C compiler) the
        native module, bit-identical to the interpreter in arrays and
        iteration counts, at every strip and whole-box.  The serial tiers
        run processors in index order, so the interpreter does too
        (whether that order is legal on 2-D grids is a separate
        question: see ``test_2d_peeled_groups_not_closed``)."""
        depth = seq[0].depth
        params = {"n": 40 if depth == 1 else 25}
        shape = (params["n"] + 1,) * depth
        plan = derive_shift_peel(seq, ("n",))
        grid = tuple(min(g, ceiling) for g, ceiling in zip(
            factor_grid(procs, depth), max_processors(plan, params)))
        ep = build_execution_plan(plan, params, grid_shape=grid)

        rng = np.random.default_rng(seed)
        names = ["src"] + [f"t{k}" for k in range(len(seq))]
        base = {name: rng.random(shape) + 0.5 for name in names}
        ref = {k: v.copy() for k, v in base.items()}
        ref_counts = run_parallel(ep, ref, strip=strip,
                                  interleave="sequential")

        runners = [
            ("vector", lambda arrays: run_vector(ep, arrays, strip=strip)),
            ("jit", compile_plan(ep, strip=strip).run),
        ]
        if HAVE_CC:
            runners.append(("cjit", compile_plan_native(ep, strip=strip).run))
        for tier, run in runners:
            got = {k: v.copy() for k, v in base.items()}
            assert run(got) == ref_counts, tier
            for name in names:
                assert np.array_equal(ref[name], got[name]), (tier, name)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: on a grid split in both dimensions a peeled group "
        "can read another processor's peeled iterations, so running the "
        "groups in processor order (the serial tiers) is wrong"))
    def test_2d_peeled_groups_not_closed(self):
        """Peeled L3(13, 13) of processor (1, 1) reads t1[14, 13], which
        processor (2, 1) peels: Sec. 3.4's groups are not
        dependence-closed here, and the vector backend (like the compiled
        tiers, which run the same order) misses the serial result."""
        seq = build_2d_sequence(
            [[("src", (0, 0))], [("t0", (0, 1))], [("t1", (1, 0))]])
        params = {"n": 25}
        ep = build_execution_plan(derive_shift_peel(seq, ("n",)), params,
                                  grid_shape=(2, 2))
        rng = np.random.default_rng(0)
        base = {name: rng.random((26, 26)) + 0.5
                for name in ("src", "t0", "t1", "t2")}
        oracle = {k: v.copy() for k, v in base.items()}
        run_sequence_serial(seq, params, oracle)
        got = {k: v.copy() for k, v in base.items()}
        run_vector(ep, got)
        for name in base:
            assert np.array_equal(oracle[name], got[name]), name

    @given(chains_1d(), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_direct_method_equals_oracle(self, chains, seed):
        """The direct method's serial legality form: one processor at
        ``strip=1`` runs every nest's iteration ``i - shift`` at position
        ``i``, so the derived shifts alone must make the fused sequence
        legal."""
        seq = build_1d_sequence(chains)
        params = {"n": 40}
        plan = derive_shift_peel(seq, ("n",))
        rng = np.random.default_rng(seed)
        names = ["src"] + [f"t{k}" for k in range(len(chains))]
        base = {name: rng.random(41) + 0.5 for name in names}
        oracle = {k: v.copy() for k, v in base.items()}
        run_sequence_serial(seq, params, oracle)
        got = {k: v.copy() for k, v in base.items()}
        run_parallel(build_execution_plan(plan, params, num_procs=1), got,
                     strip=1)
        for name in names:
            assert np.array_equal(oracle[name], got[name]), name


def run_serial_direct_form(seq, plan, params, base):
    """Oracle and direct-method results (one processor, ``strip=1``)."""
    oracle = {k: v.copy() for k, v in base.items()}
    run_sequence_serial(seq, params, oracle)
    got = {k: v.copy() for k, v in base.items()}
    run_parallel(build_execution_plan(plan, params, num_procs=1), got,
                 strip=1)
    return oracle, got


class TestDirectMethodSerialForm:
    """Fig. 11(a) on the paper's examples and a 2-D kernel: the derived
    shifts alone order the fused loop legally."""

    @pytest.mark.parametrize("fixture,arrays", [
        ("fig9_sequence", "abcd"), ("fig13_sequence", "ab")])
    def test_paper_examples_equal_oracle(self, fixture, arrays, request):
        seq = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        base = {name: rng.random(38) + 0.5 for name in arrays}
        oracle, got = run_serial_direct_form(
            seq, derive_shift_peel(seq, ("n",)), {"n": 37}, base)
        for name in arrays:
            assert np.array_equal(oracle[name], got[name]), name

    def test_2d_nests_fused_in_outer_dim(self):
        from repro.kernels import get_kernel

        program = get_kernel("ll18").program()
        seq = program.sequences[0]
        rng = np.random.default_rng(10)
        base = {d.name: rng.random((22, 22)) + 1.0 for d in program.arrays}
        oracle, got = run_serial_direct_form(
            seq, derive_shift_peel(seq, program.params, 1), {"n": 21}, base)
        for name in base:
            assert np.array_equal(oracle[name], got[name]), name

    @given(chains_1d())
    @settings(max_examples=25, deadline=None)
    def test_rows_are_the_direct_order(self, chains):
        """One processor at ``strip=1`` peels nothing and, per fused
        position ``p``, runs each nest's iteration ``p - shift`` in
        sequence order: the direct method's loop, not a look-alike."""
        seq = build_1d_sequence(chains)
        params = {"n": 40}
        plan = derive_shift_peel(seq, ("n",))
        fused, peeled = build_execution_plan(
            plan, params, num_procs=1).rows(strip=1)[0]
        assert peeled == ()
        bounds = [(nest.loops[0].lower.eval(params),
                   nest.loops[0].upper.eval(params)) for nest in seq]
        shifts = [plan.shift(k) for k in range(len(seq))]
        first = min(lo + s for (lo, _), s in zip(bounds, shifts))
        last = max(hi + s for (_, hi), s in zip(bounds, shifts))
        expected = tuple(
            (k, ((p - s, p - s),))
            for p in range(first, last + 1)
            for k, ((lo, hi), s) in enumerate(zip(bounds, shifts))
            if lo <= p - s <= hi)
        assert fused == expected


# ---------------------------------------------------------------------------
# Greedy partitioning invariants
# ---------------------------------------------------------------------------


class TestGreedyLayoutProperty:
    @given(
        st.lists(st.integers(8, 200), min_size=1, max_size=10),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, dims, assoc):
        cache = CacheConfig(8 * 1024, 64, assoc)
        arrays = [(f"x{k}", (d, d)) for k, d in enumerate(dims)]
        res = greedy_memory_layout(arrays, cache)
        # 1. Every array in a distinct partition index.
        parts = [a.partition for a in res.assignments]
        assert len(set(parts)) == len(parts)
        # 2. Starts map exactly onto the partition targets.
        for rec in res.assignments:
            start = res.layout[rec.array].start
            assert cache.map_address(start) == rec.target_cache_address
        # 3. No overlap, memory order preserved, gaps bounded by one way.
        placed = sorted(res.layout.placements, key=lambda p: p.start)
        for a, b in zip(placed, placed[1:]):
            assert a.end <= b.start
        for rec in res.assignments:
            assert 0 <= rec.gap_bytes < cache.way_bytes


# ---------------------------------------------------------------------------
# DSL round-trips
# ---------------------------------------------------------------------------


class TestRoundtripProperty:
    @given(chains_1d())
    @settings(max_examples=30, deadline=None)
    def test_print_parse_roundtrip(self, chains):
        seq = build_1d_sequence(chains)
        printed = format_sequence(seq)
        reparsed = parse_sequence(printed)
        assert format_sequence(reparsed) == printed
        # And the reparsed sequence derives the identical plan.
        a = derive_shift_peel(seq, ("n",))
        b = derive_shift_peel(reparsed, ("n",))
        assert a.dims[0].shifts == b.dims[0].shifts
        assert a.dims[0].peels == b.dims[0].peels
