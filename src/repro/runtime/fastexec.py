"""The vector backend: numpy whole-array execution of a plan.

The reference executor (:mod:`repro.runtime.parallel`) interprets an
:class:`~repro.core.execplan.ExecutionPlan` one iteration at a time so the
test suite can interleave processors adversarially.  That makes it the
semantic oracle — and makes it thousands of times slower than the hardware.
This module lowers the *same* plan to whole-array numpy operations:
:func:`run_vector` walks the plan's
:meth:`~repro.core.execplan.ExecutionPlan.rows` — every processor's fused
boxes (nest by nest, or strip-mined tile by tile when ``strip`` is given),
then its peeled rectangles — as vectorized slice/fancy-index assignments.  Within one
processor, executing nest ``k``'s whole fused box before nest ``k+1``'s
satisfies every dependence the serial original admits (all of them point
forward in sequence order), and the shift-and-peel construction keeps the
fused phase free of cross-processor dependences (Theorem 1), so the
result is bit-identical to the interpreter whenever the plan is legal.
Loops marked sequential (``do`` rather than ``doall``) are honoured by
iterating those dimensions scalarly in order; only ``doall`` dimensions
whose variable addresses the written array injectively are vectorized.

:func:`run_vector` returns the same counters as
:func:`~repro.runtime.parallel.run_parallel` so callers can sanity-check
iteration coverage across backends.  The parallel compiled path lives in
:mod:`repro.runtime.pool`; :class:`FastExecError` and
:class:`EnvConfigError` are the runtime's shared error types.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Mapping, MutableMapping, Optional

import numpy as np

from ..core.execplan import Box, ExecutionPlan
from ..ir.access import ArrayRef
from ..ir.loop import LoopNest
from ..ir.stmt import BinOp, Const, Expr, Load, UnaryOp


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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
# Vectorized evaluation of one statement over a box.
# ---------------------------------------------------------------------------


class _BoxEnv:
    """Broadcasting context for one (box, vector-dims) combination.

    ``scalars`` maps parameters, sequential loop variables and *zeroed*
    vector variables to ints (used to evaluate the non-vector part of a
    subscript); ``grids`` lazily materializes ``np.arange`` index grids,
    one per vector dimension, shaped for mutual broadcasting.
    """

    def __init__(self, nest: LoopNest, box: Box, vdims: tuple[int, ...],
                 scalars: dict[str, int]):
        self.nest = nest
        self.box = box
        self.vdims = vdims
        self.rank_of = {d: r for r, d in enumerate(vdims)}
        self.shape = tuple(box[d][1] - box[d][0] + 1 for d in vdims)
        self.scalars = scalars
        self._grids: dict[int, np.ndarray] = {}

    def grid(self, d: int) -> np.ndarray:
        g = self._grids.get(d)
        if g is None:
            r = self.rank_of[d]
            lo, hi = self.box[d]
            shape = [1] * len(self.vdims)
            shape[r] = hi - lo + 1
            g = np.arange(lo, hi + 1).reshape(shape)
            self._grids[d] = g
        return g

    def var_dim(self, name: str) -> Optional[int]:
        for d in self.vdims:
            if self.nest.loops[d].var == name:
                return d
        return None


def _subscript_index(sub, env: _BoxEnv):
    """Evaluate one affine subscript to an int, a ``slice`` (unit-stride
    single vector variable) or an index grid, plus the vector dimension it
    spans (or None)."""
    vds = [(env.var_dim(v), c) for v, c in sub.coeffs if env.var_dim(v) is not None]
    if not vds:
        return sub.eval(env.scalars), None
    base = sub.eval(env.scalars)  # vector vars contribute 0 here
    if len(vds) == 1 and vds[0][1] == 1:
        d, _ = vds[0]
        lo, hi = env.box[d]
        return slice(base + lo, base + hi + 1), d
    # General affine over vector dims: broadcasted integer grid.
    idx = base
    for d, c in vds:
        idx = idx + c * env.grid(d)
    return idx, None


def _sliceable(parts) -> bool:
    """True when the subscript tuple indexes with pure basic slicing: no
    index grids, and no vector dimension spanned by two subscripts (the
    diagonal case, which basic slicing would turn into a cross product)."""
    if any(isinstance(val, np.ndarray) for val, _d in parts):
        return False
    present = [d for _val, d in parts if d is not None]
    return len(present) == len(set(present))


def _fancy_index(parts, ref: ArrayRef, env: _BoxEnv) -> tuple:
    """Rebuild the subscripts as broadcasted index grids (advanced
    indexing), converting any slices back into grids."""
    idx = []
    for (val, d), sub in zip(parts, ref.subscripts):
        if isinstance(val, slice):
            idx.append(sub.eval(env.scalars) + env.grid(d))
        else:
            idx.append(val)
    return tuple(idx)


def _load_box(ref: ArrayRef, env: _BoxEnv, arrays: Mapping[str, np.ndarray]):
    """Load ``ref`` over the box, broadcastable to ``env.shape``."""
    parts = [_subscript_index(s, env) for s in ref.subscripts]
    if not _sliceable(parts):
        return arrays[ref.array][_fancy_index(parts, ref, env)]
    view = arrays[ref.array][tuple(val for val, _d in parts)]
    ranks = [env.rank_of[d] for _val, d in parts if d is not None]
    perm = sorted(range(len(ranks)), key=lambda a: ranks[a])
    if perm != list(range(len(ranks))):
        view = view.transpose(perm)
    have = sorted(ranks)
    if len(have) < len(env.vdims):
        expander = tuple(
            slice(None) if r in have else np.newaxis
            for r in range(len(env.vdims))
        )
        view = view[expander]
    return view


def _store_box(ref: ArrayRef, value, env: _BoxEnv,
               arrays: MutableMapping[str, np.ndarray]) -> None:
    """Store ``value`` (scalar or broadcastable array) through ``ref``."""
    target = arrays[ref.array]
    if isinstance(value, np.ndarray) and np.may_share_memory(value, target):
        value = value.copy()
    parts = [_subscript_index(s, env) for s in ref.subscripts]
    if not _sliceable(parts):
        target[_fancy_index(parts, ref, env)] = value
        return
    ranks = [env.rank_of[d] for _val, d in parts if d is not None]
    if isinstance(value, np.ndarray) and value.ndim:
        value = np.broadcast_to(value, env.shape)
        value = value.transpose(ranks)
    target[tuple(val for val, _d in parts)] = value


def _eval_box(expr: Expr, env: _BoxEnv, arrays: Mapping[str, np.ndarray]):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Load):
        return _load_box(expr.ref, env, arrays)
    if isinstance(expr, BinOp):
        a = _eval_box(expr.left, env, arrays)
        b = _eval_box(expr.right, env, arrays)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return a / b
    if isinstance(expr, UnaryOp):
        return -_eval_box(expr.operand, env, arrays)
    raise FastExecError(f"cannot vectorize expression {expr!r}")


def exec_box(
    nest: LoopNest,
    box: Box,
    params: Mapping[str, int],
    arrays: MutableMapping[str, np.ndarray],
    vdims: Optional[tuple[int, ...]] = None,
) -> int:
    """Execute every iteration of ``nest`` inside ``box`` (inclusive
    ``(lo, hi)`` per dimension), vectorizing the ``doall`` dimensions and
    iterating the rest scalarly in lexicographic order.  Returns the number
    of iterations executed.  Bit-identical to per-iteration interpretation
    for any nest whose ``doall`` markings are truthful.

    ``vdims`` lets callers hoist the :func:`vector_dims` lookup out of
    per-box loops: the analysis is memoized, but even a cache hit hashes
    the whole nest structure, which dominates tiny strip-mined boxes."""
    if any(hi < lo for lo, hi in box):
        return 0
    if vdims is None:
        vdims = vector_dims(nest)
    sdims = [d for d in range(nest.depth) if d not in vdims]
    vec_count = 1
    for d in vdims:
        vec_count *= box[d][1] - box[d][0] + 1
    scalars = dict(params)
    for d in vdims:
        scalars[nest.loops[d].var] = 0
    env = _BoxEnv(nest, box, vdims, scalars)
    count = 0
    for svals in itertools.product(
        *(range(box[d][0], box[d][1] + 1) for d in sdims)
    ):
        for d, v in zip(sdims, svals):
            scalars[nest.loops[d].var] = v
        for st in nest.body:
            _store_box(st.target, _eval_box(st.rhs, env, arrays), env, arrays)
        count += vec_count
    return count


# ---------------------------------------------------------------------------
# The vector backend: whole plan, one process.
# ---------------------------------------------------------------------------


def run_vector(
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int] = None,
) -> dict[str, int]:
    """Vectorized execution of the fused phase, the barrier, then the
    peeled phase.  ``strip`` tiles the fused phase exactly like the
    interpreter (one vectorized box per tile per nest); ``None`` executes
    each processor's whole per-nest box in one shot (fastest)."""
    nests = list(exec_plan.plan.seq)
    params = exec_plan.params
    # Hoisted per (nest, plan): the legality analysis is identical for
    # every box of a nest, so strip-mined runs must not redo it per tile.
    nest_vdims = [vector_dims(nest) for nest in nests]
    rows = exec_plan.rows(strip)

    def run(phase: int) -> int:
        return sum(exec_box(nests[k], box, params, arrays, vdims=nest_vdims[k])
                   for proc_rows in rows for k, box in proc_rows[phase])

    fused = run(0)
    # ---- barrier (Sec. 3.4) ----
    peeled = run(1)
    return {"fused_iterations": fused, "peeled_iterations": peeled}
