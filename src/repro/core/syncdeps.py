"""Point-to-point synchronization dependences for the two-phase schedule.

The paper places one *global* barrier between the fused and the peeled
phase (Sec. 3.4): every peeled iteration may be a sink of a cross-block
dependence whose source ran in some peer's fused phase, and the barrier
conservatively waits for *all* peers.  But the shift/peel construction
localizes those sources: a processor's peeled rectangles only touch data
near its block boundary, produced by the *adjacent* blocks — so a global
barrier over-synchronizes (Liao et al., PAPERS.md).

This module derives, per processor ``p``, the exact set of predecessor
processors whose fused phase must complete before ``p``'s peeled phase
may start.  It is computed from the concrete fused boxes and peeled
rectangles already in the :class:`~repro.core.execplan.ExecutionPlan`,
by intersecting rectangular *footprints* of the array regions each phase
reads and writes:

``q`` is a predecessor of ``p`` (``q != p``) iff any of

* ``writes(fused_q)  ∩ reads(peeled_p)``  — flow dependence,
* ``reads(fused_q)   ∩ writes(peeled_p)`` — anti dependence,
* ``writes(fused_q)  ∩ writes(peeled_p)`` — output dependence

is non-empty.  These are exactly the orderings the barrier enforced
(fused-before-peeled); fused/fused pairs are independent by Theorem 1
and peeled groups are dependence-closed by construction, so no other
pair needs synchronization.

Footprints are rectangular over-approximations: each affine subscript is
evaluated to its ``(min, max)`` interval over the iteration box (interval
arithmetic by coefficient sign, parameters folded in).  This can only
*add* predecessors, never miss one — a conservative answer degrades to
extra waiting, never to a race.  For the paper's uniform-dependence
kernels the footprints are exact and the predecessor sets collapse to
the geometric neighbors.

Consumers read it through the memoised ``ExecutionPlan.peel_deps``
(:func:`peel_predecessors` itself stays pure): both emitters embed it in
generated modules as ``PEEL_DEPS``, where the ``mpjit`` pool reads it.
"""

from __future__ import annotations

from typing import Mapping

from ..ir.access import ArrayRef
from ..ir.loop import LoopNest
from .execplan import ExecutionPlan, Range

#: array name -> set of inclusive (lo, hi) rectangles touched.
Footprint = dict[str, set[tuple[Range, ...]]]


def _subscript_interval(sub, var_ranges: Mapping[str, Range],
                        params: Mapping[str, int]) -> Range:
    """``(min, max)`` of an affine subscript over a box, by interval
    arithmetic: positive coefficients take the variable's range as-is,
    negative ones flip it; parameters contribute constants."""
    lo = hi = sub.const
    for var, coeff in sub.coeffs:
        r = var_ranges.get(var)
        if r is None:
            value = coeff * params[var]
            lo += value
            hi += value
        elif coeff >= 0:
            lo += coeff * r[0]
            hi += coeff * r[1]
        else:
            lo += coeff * r[1]
            hi += coeff * r[0]
    return (lo, hi)


def _ref_rect(ref: ArrayRef, var_ranges, params) -> tuple[Range, ...]:
    return tuple(
        _subscript_interval(sub, var_ranges, params) for sub in ref.subscripts
    )


def _add_box_footprints(
    nest: LoopNest,
    box,
    params: Mapping[str, int],
    writes: Footprint,
    reads: Footprint,
) -> None:
    """Accumulate the footprint rectangles of every statement of ``nest``
    over iteration ``box`` (inclusive ranges; empty boxes contribute
    nothing)."""
    if any(hi < lo for lo, hi in box):
        return
    var_ranges = {nest.loops[d].var: box[d] for d in range(nest.depth)}
    for st in nest.body:
        for ref in st.writes():
            writes.setdefault(ref.array, set()).add(
                _ref_rect(ref, var_ranges, params)
            )
        for ref in st.reads():
            reads.setdefault(ref.array, set()).add(
                _ref_rect(ref, var_ranges, params)
            )


def _rects_overlap(a: tuple[Range, ...], b: tuple[Range, ...]) -> bool:
    return len(a) == len(b) and all(
        max(alo, blo) <= min(ahi, bhi) for (alo, ahi), (blo, bhi) in zip(a, b)
    )


def _footprints_overlap(fa: Footprint, fb: Footprint) -> bool:
    for array, rects in fa.items():
        other = fb.get(array)
        if not other:
            continue
        for ra in rects:
            for rb in other:
                if _rects_overlap(ra, rb):
                    return True
    return False


def phase_footprints(exec_plan: ExecutionPlan):
    """Per-processor ``(fused_writes, fused_reads, peeled_writes,
    peeled_reads)`` footprints (exposed for tests and diagnostics)."""
    plan = exec_plan.plan
    nests = list(plan.seq)
    params = exec_plan.params
    out = []
    for proc in exec_plan.processors:
        fw: Footprint = {}
        fr: Footprint = {}
        for k, nest in enumerate(nests):
            _add_box_footprints(nest, tuple(proc.fused[k]), params, fw, fr)
        pw: Footprint = {}
        pr: Footprint = {}
        for rect in proc.peeled:
            _add_box_footprints(nests[rect.nest_idx], rect.ranges, params,
                                pw, pr)
        out.append((fw, fr, pw, pr))
    return out


def peel_predecessors(exec_plan: ExecutionPlan) -> tuple[tuple[int, ...], ...]:
    """For each processor ``p``, the sorted tuple of processors whose fused
    phase must finish before ``p``'s peeled phase starts.

    ``p`` itself is never listed: a worker always runs all of its own
    fused work before any of its peeled work, so the program order of the
    SPMD loop provides that edge for free.  A processor with no peeled
    work (or whose peeled work only touches its own block) gets ``()``
    and can start peeling without waiting on anyone.
    """
    fps = phase_footprints(exec_plan)
    n = len(fps)
    deps: list[tuple[int, ...]] = []
    for p in range(n):
        _fw, _fr, pw, pr = fps[p]
        preds = []
        for q in range(n):
            if q == p:
                continue
            qw, qr = fps[q][0], fps[q][1]
            if (
                _footprints_overlap(qw, pr)      # flow
                or _footprints_overlap(qr, pw)   # anti
                or _footprints_overlap(qw, pw)   # output
            ):
                preds.append(q)
        deps.append(tuple(preds))
    return tuple(deps)
