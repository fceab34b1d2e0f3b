"""Emission edge cases and multi-sequence program printing."""

import re
from collections import Counter

import pytest
from hypothesis import given, settings

from repro.core import derive_shift_peel, fuse_sequence
from repro.ir import (
    Affine,
    ArrayDecl,
    Loop,
    LoopNest,
    LoopSequence,
    Program,
    assign,
    format_program,
    load,
)
from repro.lang.emit import emit_direct, emit_spmd, emit_stripmined

from test_properties_more import build_1d_sequence, chains_1d

i = Affine.var("i")
j = Affine.var("j")
n = Affine.var("n")


def plain_pair():
    l1 = LoopNest((Loop.make("i", 2, n - 1),), (assign("a", i, load("b", i)),))
    l2 = LoopNest((Loop.make("i", 2, n - 1),), (assign("c", i, load("a", i)),))
    return LoopSequence((l1, l2))


class TestEmitStripmined:
    def test_plain_fusion_has_no_barrier(self):
        plan = derive_shift_peel(plain_pair(), ("n",))
        text = emit_stripmined(plan)
        assert "<BARRIER>" not in text
        assert "max(" not in text  # no shifting -> unclamped lower bounds

    def test_custom_symbols(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        text = emit_stripmined(plan, strip=16, istart="LB", iend="UB")
        assert "do ii = LB, UB, 16" in text
        assert "LB+1" in text and "UB-1" in text

    def test_inner_loops_preserved(self):
        from repro.kernels import ll18

        prog = ll18.program()
        plan = derive_shift_peel(prog.sequences[0], prog.params, 1)
        text = emit_stripmined(plan)
        assert "do k = 2, n-1" in text  # the non-fused inner level


class TestEmitDirect:
    def test_plain_fusion_unguarded(self):
        plan = derive_shift_peel(plain_pair(), ("n",))
        text = emit_direct(plan)
        assert "if (" not in text
        assert "! iterations moved" not in text

    def test_epilogue_order_matches_nests(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        text = emit_direct(plan)
        c_pos = text.index("c[i] = ")
        d_pos = text.index("d[i] = ")
        assert c_pos < d_pos

    def test_rejects_multidim(self, jacobi_sequence):
        with pytest.raises(ValueError):
            emit_direct(derive_shift_peel(jacobi_sequence, ("n",)))


_LOOP = re.compile(r"do i = (istart|iend)([+-]\d+)?, iend$")
_STMT = re.compile(r"(?:if \(i >= istart\+(\d+)\) )?(\w+)\[i([+-]\d+)?\] = ")


def direct_listing_coverage(text, istart, iend):
    """Per written array, how often each iteration runs under the
    Fig. 11(a) listing at concrete block bounds ``istart..iend``: a
    statement at loop position ``p`` writes iteration ``p + offset`` of
    its subscript, and a guard ``i >= istart+g`` starts it at
    ``istart + g``."""
    base = {"istart": istart, "iend": iend}
    runs = {}
    lo = None
    for line in text.splitlines():
        head = _LOOP.match(line)
        if head:
            lo = base[head.group(1)] + int(head.group(2) or 0)
            continue
        stmt = _STMT.match(line.strip())
        if stmt is None:
            continue
        guard, array, offset = stmt.groups()
        first = istart + int(guard) if guard else lo
        runs.setdefault(array, Counter()).update(
            p + int(offset or 0) for p in range(first, iend + 1))
    return runs


def assert_listing_covers_once(plan):
    text = emit_direct(plan)
    for istart, iend in ((3, 37), (9, 24)):
        runs = direct_listing_coverage(text, istart, iend)
        assert set(runs) == {nest.body[0].target.array for nest in plan.seq}
        for array, counts in runs.items():
            assert counts == Counter(range(istart, iend + 1)), array


class TestDirectListingCoverage:
    """The fused loop's guarded range plus the epilogue run every
    iteration of every nest's block exactly once."""

    def test_fig9(self, fig9_sequence):
        assert_listing_covers_once(derive_shift_peel(fig9_sequence, ("n",)))

    def test_fig13(self, fig13_sequence):
        assert_listing_covers_once(derive_shift_peel(fig13_sequence, ("n",)))

    @given(chains_1d())
    @settings(max_examples=25, deadline=None)
    def test_random_chains(self, chains):
        assert_listing_covers_once(
            derive_shift_peel(build_1d_sequence(chains), ("n",)))

    @given(chains_1d())
    @settings(max_examples=25, deadline=None)
    def test_guards_and_epilogues_follow_shifts(self, chains):
        """A nest shifted by ``s`` is guarded by ``i >= istart+s`` and
        subscripted ``i-s`` in the fused loop and gets an epilogue of its
        last ``s`` iterations; an unshifted nest gets neither."""
        plan = derive_shift_peel(build_1d_sequence(chains), ("n",))
        fused_part, _, epilogue = emit_direct(plan).partition(
            "! iterations moved")
        fused = {}
        for line in fused_part.splitlines():
            stmt = _STMT.match(line.strip())
            if stmt:
                guard, array, offset = stmt.groups()
                fused[array] = (int(guard or 0), -int(offset or 0))
        lines = [line.strip() for line in epilogue.splitlines()]
        starts = [int(h.group(2) or 0) for h in map(_LOOP.match, lines) if h]
        arrays = [m.group(2) for m in map(_STMT.match, lines) if m]
        expected_tail = []
        for k, nest in enumerate(plan.seq):
            s = plan.shift(k)
            assert fused[nest.body[0].target.array] == (s, s)
            if s:
                expected_tail.append((nest.body[0].target.array, 1 - s))
        assert list(zip(arrays, starts)) == expected_tail


class TestEmitSpmd:
    def test_depth1_spmd(self, fig9_sequence):
        plan = derive_shift_peel(fig9_sequence, ("n",))
        text = emit_spmd(plan)
        assert "iblksz" in text
        assert text.count("<BARRIER>") == 1

    def test_peeled_rect_count_2d(self, jacobi_sequence):
        plan = derive_shift_peel(jacobi_sequence, ("n",))
        text = emit_spmd(plan)
        # One shifted nest, two pivot dimensions -> two post-barrier loops.
        post = text.split("<BARRIER>")[1]
        assert post.count("a[i,j] = b[i,j]") == 2


class TestProgramPrinting:
    def test_multi_sequence_program(self):
        seq1 = plain_pair()
        seq2 = LoopSequence(
            (LoopNest((Loop.make("i", 2, n - 1),), (assign("b", i, load("c", i)),)),),
            name="second",
        )
        prog = Program(
            arrays=(
                ArrayDecl.make("a", n + 1),
                ArrayDecl.make("b", n + 1),
                ArrayDecl.make("c", n + 1),
            ),
            sequences=(seq1, seq2),
            params=("n",),
            name="multi",
        )
        text = format_program(prog)
        assert text.count("! sequence") == 2
        assert "param n" in text

    def test_fuse_program_handles_all_sequences(self):
        from repro.core import fuse_program
        from repro.kernels import hydro2d

        results = fuse_program(hydro2d.program())
        assert len(results) == 3
        assert results[0].plan.max_shift == 5
        assert results[2].plan.is_plain_fusion()

    def test_summary_line(self, fig9_sequence):
        result = fuse_sequence(fig9_sequence, ("n",))
        line = result.summary_line()
        assert "3 nests" in line and "2/2" in line
