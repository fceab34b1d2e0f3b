"""The vector backend, the vectorization analysis and the runtime's
shared error types.

The reference executor (:mod:`repro.runtime.parallel`) interprets an
:class:`~repro.core.execplan.ExecutionPlan` one iteration at a time so the
test suite can interleave processors adversarially.  That makes it the
semantic oracle — and makes it thousands of times slower than the hardware.
:func:`run_vector` runs the *same* plan as whole-array numpy operations:
it compiles the plan's per-nest bodies (:mod:`repro.codegen.emitpy`, the
one numpy lowering, bypassing the plan cache) and walks the plan's
:meth:`~repro.core.execplan.ExecutionPlan.rows` with them — every
processor's fused boxes (nest by nest, or strip-mined tile by tile when
``strip`` is given), then its peeled rectangles.  Within one processor,
executing nest ``k``'s whole fused box before nest ``k+1``'s satisfies
every dependence the serial original admits (all of them point forward
in sequence order), and the shift-and-peel construction keeps the fused
phase free of cross-processor dependences (Theorem 1), so the result is
bit-identical to the interpreter whenever the plan is legal.  Loops
marked sequential (``do`` rather than ``doall``) are honoured by
iterating those dimensions scalarly in order; only dimensions
:func:`vector_dims` admits are vectorized.

:func:`run_vector` returns the same counters as
:func:`~repro.runtime.parallel.run_parallel` so callers can sanity-check
iteration coverage across backends.  The parallel compiled path lives in
:mod:`repro.runtime.pool`; :class:`FastExecError` and
:class:`EnvConfigError` are the runtime's shared error types.
"""

from __future__ import annotations

from functools import wraps
from typing import MutableMapping, Optional

import numpy as np

from ..core.execplan import ExecutionPlan
from ..ir.loop import LoopNest


class FastExecError(RuntimeError):
    """A plan or statement could not be executed by a fast backend."""


class EnvConfigError(ValueError):
    """An environment knob holds an invalid value.

    Raised at parse time with a message naming the variable, so a typo'd
    ``REPRO_SYNC_TIMEOUT=10s`` fails loudly in the parent before any
    worker is spawned instead of silently falling back (or exploding as
    an unhandled ``ValueError`` deep in the pool)."""


# ---------------------------------------------------------------------------
# Which dimensions of a nest may be vectorized?
# ---------------------------------------------------------------------------


def _per_nest(fn):
    """Memoise ``fn(nest)`` on the nest object itself: a cache keyed on
    the nest would hash the whole frozen IR under it on every call."""
    attr = f"{fn.__name__}_memo"

    @wraps(fn)
    def memoised(nest: LoopNest):
        memo = nest.__dict__
        if attr not in memo:
            memo[attr] = fn(nest)
        return memo[attr]

    return memoised


@_per_nest
def _order_free_dims(nest: LoopNest) -> tuple[int, ...]:
    """Dimensions that carry no intra-nest dependence.

    The exact distance solver decides this where it can: a dimension is
    order-free unless it *carries* a (lexicographically positive) uniform
    dependence, i.e. holds its first nonzero component.  Executing the
    remaining (carrying) dimensions scalarly in lexicographic order, with
    the order-free dimensions innermost, then satisfies every intra-nest
    dependence: the carrying dimension of each dependence is scalar, keeps
    its original relative position, and every dimension before it in the
    original order has a zero component.  When some intra-nest relation is
    not uniform the analysis is inconclusive and we fall back to the
    nest's ``doall`` flags (a flagged dimension never carries a
    dependence, so the same argument applies).
    """
    from ..dependence.analysis import carried_dependences
    from ..dependence.model import NonUniformDependenceError

    try:
        carried = carried_dependences(nest, strict=True)
    except NonUniformDependenceError:
        return tuple(d for d in range(nest.depth) if nest.loops[d].parallel)
    carrying = set()
    for _array, distance in carried:
        for d, component in enumerate(distance):
            if component != 0:
                if component > 0:  # lex-positive orientation of the pair
                    carrying.add(d)
                break
    return tuple(d for d in range(nest.depth) if d not in carrying)


@_per_nest
def vector_dims(nest: LoopNest) -> tuple[int, ...]:
    """Dimensions of ``nest`` that can execute as whole-array operations.

    A dimension qualifies when it carries no intra-nest dependence (see
    :func:`_order_free_dims`) *and* every statement's target has a witness
    subscript that depends on this dimension's variable and on no other
    candidate variable — which makes the write map injective over the
    vectorized dimensions, so a fancy-index store never writes one element
    twice.  Dimensions that fail the test simply fall back to ordered
    scalar iteration; correctness never depends on the answer, only speed
    does.
    """
    cands = list(_order_free_dims(nest))
    changed = True
    while changed:
        changed = False
        for d in list(cands):
            var = nest.loops[d].var
            others = [nest.loops[d2].var for d2 in cands if d2 != d]
            for st in nest.body:
                witness = any(
                    sub.coeff(var) != 0
                    and all(sub.coeff(o) == 0 for o in others)
                    for sub in st.target.subscripts
                )
                if not witness:
                    cands.remove(d)
                    changed = True
                    break
    return tuple(cands)


# ---------------------------------------------------------------------------
# The vector backend: whole plan, one process.
# ---------------------------------------------------------------------------


def run_vector(
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int] = None,
) -> dict[str, int]:
    """Vectorized execution of the fused phase, the barrier, then the
    peeled phase: the plan's nest bodies compiled afresh (no plan cache),
    walked over ``rows(strip)`` — Fig. 12's tiles when ``strip`` is
    given, each processor's whole per-nest boxes when it is None."""
    from ..codegen.emitpy import RowWalker, compile_bodies

    fused, peeled = zip(*exec_plan.rows(strip))
    return RowWalker(compile_bodies(exec_plan), fused, peeled).run(arrays)
