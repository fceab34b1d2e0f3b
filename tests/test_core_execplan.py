"""Execution planning: fused boxes, peeled rectangles, legality, coverage,
and the row schedule every executor walks."""

import dataclasses
import itertools

import pytest

from repro.core import (
    FusionLegalityError,
    StripError,
    build_execution_plan,
    check_legality,
    derive_shift_peel,
    iteration_count_thresholds,
    max_processors,
    verify_coverage,
)
from repro.runtime import work_items


class TestLegality:
    def test_thresholds(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        assert iteration_count_thresholds(plan) == (5,)

    def test_max_processors(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        # trip = 38 at n=41, Nt = 5 -> at most 7 processors
        assert max_processors(plan, {"n": 41}) == (7,)

    def test_check_passes(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        check = check_legality(plan, {"n": 41}, (7,))
        assert check.ok
        check.raise_if_bad()

    def test_check_fails_beyond_threshold(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        check = check_legality(plan, {"n": 41}, (10,))
        assert not check.ok
        with pytest.raises(FusionLegalityError):
            check.raise_if_bad()

    def test_too_many_procs_for_iterations(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        assert not check_legality(plan, {"n": 10}, (50,)).ok

    def test_grid_dim_mismatch(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        with pytest.raises(ValueError):
            check_legality(plan, {"n": 41}, (2, 2))

    def test_build_validates(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        with pytest.raises(FusionLegalityError):
            build_execution_plan(plan, {"n": 41}, num_procs=10)
        build_execution_plan(plan, {"n": 41}, num_procs=10, validate=False)


class TestCoverage1D:
    @pytest.mark.parametrize("procs", [1, 2, 3, 5, 7])
    def test_fig9(self, fig9_sequence, procs):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 41}, num_procs=procs)
        assert verify_coverage(ep)

    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_fig13(self, fig13_sequence, procs):
        plan = derive_shift_peel(fig13_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 21}, num_procs=procs)
        assert verify_coverage(ep)

    def test_differing_bounds(self):
        from repro.ir import Affine, Loop, LoopNest, LoopSequence, assign, load

        i = Affine.var("i")
        n = Affine.var("n")
        l1 = LoopNest((Loop.make("i", 1, n),), (assign("a", i, load("b", i)),))
        l2 = LoopNest(
            (Loop.make("i", 3, n - 2),),
            (assign("c", i, load("a", i + 1) + load("a", i - 1)),),
        )
        plan = derive_shift_peel(LoopSequence((l1, l2)), ("n",))
        for procs in (1, 2, 3):
            ep = build_execution_plan(plan, {"n": 30}, num_procs=procs)
            assert verify_coverage(ep)


class TestCoverage2D:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3)])
    def test_jacobi(self, jacobi_sequence, grid):
        plan = derive_shift_peel(jacobi_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 19}, grid_shape=grid)
        assert verify_coverage(ep)

    def test_counts(self, jacobi_sequence):
        plan = derive_shift_peel(jacobi_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 19}, grid_shape=(3, 3))
        total = sum(nest.iteration_count({"n": 19}) for nest in plan.seq)
        assert ep.total_fused() + ep.total_peeled() == total
        assert ep.total_peeled() > 0


class TestProcessorPlans:
    def test_first_block_has_no_head_peel(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 41}, num_procs=4)
        first = ep.processors[0]
        lo = plan.seq[0].loops[0].lower.eval({"n": 41})
        for k in range(3):
            assert first.fused[k][0][0] == lo

    def test_last_block_runs_to_end(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 41}, num_procs=4)
        last = ep.processors[-1]
        hi = plan.seq[0].loops[0].upper.eval({"n": 41})
        for k in range(3):
            assert last.fused[k][0][1] == hi
        assert last.peeled_count() == 0

    def test_interior_peel_sizes(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 41}, num_procs=4)
        interior = ep.processors[1]
        # Each boundary peels shift+peel iterations of each shifted nest.
        by_nest = {}
        for rect in interior.peeled:
            by_nest[rect.nest_idx] = by_nest.get(rect.nest_idx, 0) + rect.iteration_count()
        assert by_nest == {1: 2, 2: 4}

    def test_processor_lookup(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 41}, num_procs=3)
        assert ep.processor((2,)) is ep.processors[1]
        assert ep.num_procs == 3


def _box_iterations(box):
    return itertools.product(*(range(lo, hi + 1) for lo, hi in box))


def _fig12_order(ep, proc, strip):
    """Fig. 12's fused-phase order stated independently of the tiling
    code: every fused iteration, keyed by its position-space tile (tiles
    of ``strip`` positions counted from the processor's first position),
    then its nest, then the iteration itself."""
    plan = ep.plan
    items = [(k, ivec) for k, box in enumerate(proc.fused)
             for ivec in _box_iterations(box)]
    if strip is None or not items:
        return sorted(items)

    def position(item):
        k, ivec = item
        return [ivec[d] + plan.shift(k, d) for d in range(plan.depth)]

    origin = [min(position(item)[d] for item in items)
              for d in range(plan.depth)]

    def key(item):
        tile = tuple((t - o) // strip for t, o in zip(position(item), origin))
        return tile, item

    return sorted(items, key=key)


ROW_CASES = [
    ("fig9_sequence", {"n": 37}, {"num_procs": 1}),
    ("fig9_sequence", {"n": 37}, {"num_procs": 2}),
    ("fig9_sequence", {"n": 37}, {"num_procs": 4}),
    ("fig13_sequence", {"n": 37}, {"num_procs": 3}),
    ("jacobi_sequence", {"n": 19}, {"grid_shape": (2, 2)}),
]


class TestRows:
    def _plan(self, request, fixture, params, grid):
        seq = request.getfixturevalue(fixture)
        plan = derive_shift_peel(seq, ("n",))
        return build_execution_plan(plan, params, **grid)

    @pytest.mark.parametrize("fixture, params, grid", ROW_CASES)
    @pytest.mark.parametrize("strip", [None, 1, 3, 5])
    def test_order_is_fig12_then_peels_by_nest(self, request, fixture,
                                               params, grid, strip):
        """Per processor, the interpreter's expansion of the fused rows is
        Fig. 12's tile order and that of the peeled rows is the peeled
        rectangles stable-sorted by nest (Sec. 3.4)."""
        ep = self._plan(request, fixture, params, grid)
        rows = ep.rows(strip)
        assert len(rows) == ep.num_procs
        for proc, (fused, peeled) in zip(ep.processors, rows):
            assert list(work_items(fused)) == _fig12_order(ep, proc, strip)
            by_nest = sorted(proc.peeled, key=lambda r: r.nest_idx)
            assert list(work_items(peeled)) == [
                (rect.nest_idx, ivec)
                for rect in by_nest for ivec in rect.iterations()]

    @pytest.mark.parametrize("fixture, params, grid", ROW_CASES)
    @pytest.mark.parametrize("strip", [None, 2])
    def test_rows_cover_every_iteration_once(self, request, fixture, params,
                                             grid, strip):
        ep = self._plan(request, fixture, params, grid)
        seen = [(k, ivec) for proc_rows in ep.rows(strip)
                for phase in proc_rows for k, ivec in work_items(phase)]
        expected = [(k, ivec) for k, nest in enumerate(ep.plan.seq)
                    for ivec in nest.iteration_space(params)]
        assert sorted(seen) == sorted(expected)

    def test_whole_boxes_without_strip(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 37}, num_procs=3)
        for proc, (fused, _peeled) in zip(ep.processors, ep.rows()):
            assert fused == tuple(enumerate(proc.fused))

    def test_last_processor_has_no_peeled_rows(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 37}, num_procs=2)
        rows = ep.rows(strip=5)
        assert rows[0][1] and rows[-1][1] == ()

    def test_zero_volume_boxes_are_not_rows(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 37}, num_procs=2)
        proc = ep.processors[0]
        hollow = dataclasses.replace(
            proc, fused=(proc.fused[0], ((5, 4),), proc.fused[2]))
        for strip in (None, 3):
            fused, _peeled = ep.processor_rows(hollow, strip)
            assert fused and all(k != 1 for k, _box in fused)
        empty = dataclasses.replace(proc, fused=(((1, 0),),) * 3, peeled=())
        assert ep.processor_rows(empty, 4) == ((), ())
        assert [len(r) for r in ep.tile_starts(empty, 4)] == [0]

    @pytest.mark.parametrize("strip", [0, -2])
    def test_non_positive_strip_fails_closed(self, fig9_sequence, strip):
        """A zero strip used to die inside ``range``; a negative one
        silently skipped the whole fused phase."""
        plan = derive_shift_peel(fig9_sequence, ("n",))
        ep = build_execution_plan(plan, {"n": 37}, num_procs=2)
        with pytest.raises(StripError, match=f"strip must be .* got {strip}"):
            ep.rows(strip)
        with pytest.raises(ValueError):
            ep.tile_starts(ep.processors[0], strip)
