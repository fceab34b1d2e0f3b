"""Vectorized address-trace generation from loop nests.

A *trace* is the exact sequence of byte addresses a processor touches while
executing its share of a loop nest (reads and writes, in program order:
iterations lexicographic, references in body order within an iteration).
Traces drive the cache simulator, giving exact miss counts — the simulated
stand-in for the paper's hardware performance monitors.

Address grids are computed with NumPy broadcasting: for a reference with
affine subscripts, the address over an iteration box is an affine function
of the per-axis index vectors, so the whole grid is a sum of broadcast
1-D terms (no per-iteration Python work).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.execplan import ExecutionPlan, ProcessorPlan, Range, range_empty
from ..ir.access import ArrayRef
from ..ir.loop import LoopNest
from ..ir.sequence import LoopSequence
from .memory import MemoryLayout


def _body_refs(nest: LoopNest) -> list[ArrayRef]:
    refs: list[ArrayRef] = []
    for st in nest.body:
        refs.extend(st.reads())
        refs.append(st.target)
    return refs


def _ref_grid(
    ref: ArrayRef,
    vars_order: Sequence[str],
    axis_values: Sequence[np.ndarray],
    shape: tuple[int, ...],
    layout: MemoryLayout,
    params: Mapping[str, int],
) -> np.ndarray:
    """Byte-address grid of one reference over an iteration box."""
    pl = layout[ref.array]
    strides = pl.strides_elems
    base = pl.start
    elem = pl.elem_size
    const = 0
    coeffs: dict[str, int] = {}
    for d, sub in enumerate(ref.subscripts):
        const += strides[d] * sub.const
        for v, c in sub.coeffs:
            if v in params:
                const += strides[d] * c * params[v]
            else:
                coeffs[v] = coeffs.get(v, 0) + strides[d] * c
    grid: np.ndarray | int = base + elem * const
    ndim = len(vars_order)
    for axis, v in enumerate(vars_order):
        k = coeffs.pop(v, 0)
        if k:
            reshape = [1] * ndim
            reshape[axis] = -1
            grid = grid + (elem * k) * axis_values[axis].reshape(reshape)
    if coeffs:
        missing = sorted(coeffs)
        raise KeyError(f"reference {ref} uses unbound names {missing}")
    if isinstance(grid, (int, np.integer)):
        return np.full(shape, int(grid), dtype=np.int64)
    return np.broadcast_to(grid.astype(np.int64, copy=False), shape)


def box_trace(
    nest: LoopNest,
    box: Sequence[Range],
    layout: MemoryLayout,
    params: Mapping[str, int],
) -> np.ndarray:
    """Trace of one nest over an iteration box (lexicographic order)."""
    if any(range_empty(r) for r in box):
        return np.empty(0, dtype=np.int64)
    vars_order = nest.loop_vars
    axis_values = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in box]
    shape = tuple(v.size for v in axis_values)
    refs = _body_refs(nest)
    grids = [
        _ref_grid(ref, vars_order, axis_values, shape, layout, params)
        for ref in refs
    ]
    return np.stack(grids, axis=-1).reshape(-1)


def nest_block_trace(
    nest: LoopNest,
    params: Mapping[str, int],
    layout: MemoryLayout,
    block0: Range | None = None,
) -> np.ndarray:
    """Trace of a nest over a block of its outermost loop (full inner
    ranges) — one processor's share of an *unfused* parallel loop."""
    box: list[Range] = []
    for d, lp in enumerate(nest.loops):
        lo, hi = lp.bounds(params)
        if d == 0 and block0 is not None:
            lo, hi = max(lo, block0[0]), min(hi, block0[1])
        box.append((lo, hi))
    return box_trace(nest, box, layout, params)


def unfused_proc_trace(
    seq: LoopSequence,
    params: Mapping[str, int],
    layout: MemoryLayout,
    block0: Range | None = None,
) -> np.ndarray:
    """One processor's trace of the original (unfused) sequence: its block
    of each nest, nest after nest (barriers between nests carry no
    addresses)."""
    parts = [nest_block_trace(nest, params, layout, block0) for nest in seq]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def fused_proc_trace(
    exec_plan: ExecutionPlan,
    proc: ProcessorPlan,
    layout: MemoryLayout,
    strip: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """One processor's (fused-phase, peeled-phase) traces under the
    strip-mined execution order of Fig. 12 (tiles in lexicographic position
    order; nests in sequence order within a tile) — its
    :meth:`~repro.core.execplan.ExecutionPlan.processor_rows`."""
    nests = exec_plan.plan.seq

    def trace(rows) -> np.ndarray:
        parts = [box_trace(nests[k], box, layout, exec_plan.params)
                 for k, box in rows]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    fused, peeled = exec_plan.processor_rows(proc, strip)
    return trace(fused), trace(peeled)
