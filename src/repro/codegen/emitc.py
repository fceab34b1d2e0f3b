"""Lower an :class:`~repro.core.execplan.ExecutionPlan` to native C.

The numpy codegen (:mod:`repro.codegen.emitpy`) removed the plan
*interpretation* cost, but every generated statement still pays numpy's
per-call overhead — temporaries, broadcasting setup, dispatch — which
dominates on small shapes, exactly the regime where fusion's locality win
should show.  This module renders the same plan as a self-contained C
translation unit that splits the plan the way the paper's Fig. 12/16 code
does — *schedule as data, bodies as code*:

* one function per (nest, hazard-verdict tuple),
  ``static int nest_<k>_<mask>(double **A, const long *D, const long *b)``,
  whose loop bounds are read from the box ``b`` it is handed, so ``cc``
  compiles each loop body once however many processors the plan has and
  at whatever strip it runs;
* two exported ``const long`` tables of the whole-box schedule — fused
  rows and peeled rows, each row a body index plus box bounds, with
  per-processor row offsets (empty boxes are simply not rows) — and,
  for the strip-mined walk, each body's nest shift per fused dimension
  and each processor's position-space tile extent;
* the same exported metadata the Python module carries — signature,
  ``NPROCS``, per-processor iteration counts and the ``PEEL_DEPS``
  point-to-point sync map — as ``REPRO_*`` symbols, so a cold process can
  validate and run a cached ``.so`` without the ``.c`` or ``.py`` source.

Nothing else: array pointers and shapes, the walk, the parallel schedule
and the strip are run-time inputs.  :data:`TEAM_SOURCE` is one
plan-independent library per process (:func:`native_team`) holding the
only row walkers — ``run_tiled`` (a processor's fused rows tile by tile
in Fig. 12's order; whole boxes are one tile), ``run_peeled``, and over
them ``run_serial`` and the persistent thread team's ``run_team`` — so
one object serves every strip and its code grows with the nests only.

Bit-identity with the interpreter holds by construction (DESIGN.md §5b,
"the native tier"): a statement that may read what it writes inside the
vectorized sub-box stores through a scratch buffer, as numpy evaluates
the whole RHS before storing; the verdict is per (statement, box), and a
tile keeps its row's body (disjoint ranges stay disjoint in a sub-box).
Scalar dimensions stay ordered outer loops, as in numpy, and arithmetic
is plain IEEE-754 double in numpy's expression-tree shape, compiled
without ``-ffast-math`` or contraction (:data:`CFLAGS`).

The compiled ``.so`` is cached by :mod:`repro.runtime.plancache` next to
the ``.py`` source, keyed by the structural plan signature *plus* a
compiler fingerprint (:func:`compiler_fingerprint`), and loaded with
:mod:`ctypes`.  When no compiler is present or compilation fails, the
``cjit`` backend falls back to ``jit`` with a one-line note and a
counter (:func:`note_fallback`) — never an error.
"""

from __future__ import annotations

import _ctypes
import ctypes
import hashlib
import math
import operator
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import MutableMapping, Optional, Sequence

import numpy as np

from ..core.execplan import ExecutionPlan, check_strip
from ..ir.access import ArrayRef
from ..ir.expr import Affine
from ..ir.loop import LoopNest
from ..ir.stmt import BinOp, Const, Expr, Load, UnaryOp
from .emitpy import (
    CODEGEN_VERSION,
    JitEmitError,
    _box_volume,
    _linear_src,
    _split_subscript,
)

IND = "    "

#: Portable IEEE-754 codegen: no ``-ffast-math`` and ``-ffp-contract=off``
#: (a fused multiply-add rounds once where numpy rounds twice, so either
#: would break bit-identity on a target with FMA), no ``-march`` (the
#: cache may be shared between machines of one ISA family).  ``-O1``
#: builds in about two thirds of ``-O2``'s time; ``-fstrict-aliasing``
#: lets gcc keep a body's box bound ``b[1]`` in a register across the
#: inner loop's ``double`` stores, which gives back ``-O2``'s inner loops
#: (nothing here vectorises at ``-O2`` either).
CFLAGS = ("-O1", "-fstrict-aliasing", "-ffp-contract=off", "-shared", "-fPIC")

ENV_CC = "REPRO_CC"

#: Seconds before a hung compiler invocation is abandoned (and the
#: backend falls back to jit).
COMPILE_TIMEOUT = 120.0


class CJitError(RuntimeError):
    """Base class for native-tier failures."""


class CJitEmitError(CJitError, JitEmitError):
    """The plan contains a construct the C emitter cannot lower."""


class CJitCompileError(CJitError):
    """Compilation failed or a cached ``.so`` is corrupt/stale."""


class NativeUnavailable(CJitError):
    """No C compiler on this machine — callers fall back to ``jit``."""


class TeamSyncTimeout(CJitError):
    """A team run's sync wait outlived its timeout (:data:`TEAM_TIMEOUT`)."""


_NO_COMPILER = "no C compiler found (set $REPRO_CC or install cc)"


# ---------------------------------------------------------------------------
# Compiler discovery and fingerprinting.
# ---------------------------------------------------------------------------


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler to use, or None.

    ``$REPRO_CC`` pins (or, when set to something unresolvable, disables)
    the compiler; otherwise the conventional names are probed in order.
    """
    env = os.environ.get(ENV_CC)
    if env is not None:
        return shutil.which(env)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


_identities: dict[str, str] = {}


def compiler_fingerprint(compiler: Optional[str] = None) -> Optional[str]:
    """Short stable digest of (compiler identity, :data:`CFLAGS`), or None.

    Part of the ``.so`` cache key and of the auto-tuner's machine
    fingerprint: a compiler upgrade or a flag change must recompile cached
    objects and invalidate persisted tuning winners instead of replaying
    stale ones.  The identity (``--version``) is asked once per compiler;
    ``CFLAGS`` is read at every call, as :func:`start_compile` reads it.
    """
    if compiler is None:
        compiler = find_compiler()
    if compiler is None:
        return None
    identity = _identities.get(compiler)
    if identity is None:
        try:
            out = subprocess.run(
                [compiler, "--version"], capture_output=True, text=True,
                timeout=10.0,
            )
            first = (out.stdout or out.stderr).splitlines()[0:1]
            identity = first[0] if first else compiler
        except (OSError, subprocess.SubprocessError, IndexError):
            identity = compiler
        _identities[compiler] = identity
    return hashlib.sha256(
        f"{identity}|{' '.join(CFLAGS)}".encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Fallback accounting: cjit never errors for a missing/broken compiler,
# it falls back to jit with a note and a counter.
# ---------------------------------------------------------------------------

_fallbacks = {"count": 0, "last_reason": None}
_noted_reasons: set[str] = set()


def note_fallback(reason: str) -> None:
    """Record one cjit→jit fallback; print each distinct reason once."""
    _fallbacks["count"] += 1
    _fallbacks["last_reason"] = reason
    if reason not in _noted_reasons:
        _noted_reasons.add(reason)
        print(f"cjit: falling back to jit — {reason}", file=sys.stderr)


def fallback_stats() -> dict:
    return dict(_fallbacks)


def reset_fallback_stats() -> None:
    _fallbacks["count"] = 0
    _fallbacks["last_reason"] = None
    _noted_reasons.clear()


# ---------------------------------------------------------------------------
# Rendering helpers.
# ---------------------------------------------------------------------------


def _c_double(value: float) -> str:
    """A Python float as a C double literal with identical bits
    (``repr`` round-trips through ``strtod``)."""
    if not math.isfinite(value):
        raise CJitEmitError(f"non-finite constant {value!r}")
    text = repr(float(value))
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return f"({text})"


@dataclass(frozen=True)
class _ArrayLayout:
    """Global array table of one plan: pointer index and dims offset."""

    order: tuple[str, ...]
    ndims: dict[str, int]
    index: dict[str, int]
    dims_offset: dict[str, int]

    def spec_string(self) -> str:
        return ",".join(f"{name}:{self.ndims[name]}" for name in self.order)


def _collect_refs(nests: Sequence[LoopNest]):
    for nest in nests:
        for stmt in nest.body:
            yield stmt.target
            yield from stmt.rhs.loads()


def _array_layout(nests: Sequence[LoopNest]) -> _ArrayLayout:
    ndims: dict[str, int] = {}
    for ref in _collect_refs(nests):
        rank = len(ref.subscripts)
        seen = ndims.setdefault(ref.array, rank)
        if seen != rank:
            raise CJitEmitError(
                f"array {ref.array!r} referenced with both {seen} and "
                f"{rank} subscripts"
            )
    order = tuple(sorted(ndims))
    index = {name: k for k, name in enumerate(order)}
    dims_offset: dict[str, int] = {}
    offset = 0
    for name in order:
        dims_offset[name] = offset
        offset += ndims[name]
    return _ArrayLayout(order=order, ndims=ndims, index=index,
                        dims_offset=dims_offset)


class _NestCtx:
    """Static rendering context for one nest, C flavour.

    Unlike :class:`emitpy._BoxCtx`, every dimension becomes a ``for``
    loop whose bounds are read from the box ``b`` at run time; the
    vectorized/scalar split (the same
    :func:`~repro.runtime.fastexec.vector_dims` legality analysis) only
    drives the *ordering semantics*: scalar dims are outer ordered
    loops shared by all statements, and each statement iterates the
    vector sub-box on its own — with a buffered store when it reads its
    own target at potentially overlapping locations (numpy evaluates
    the whole RHS before storing; C must too, there).
    """

    def __init__(self, nest: LoopNest, vdims: tuple[int, ...], params,
                 layout: _ArrayLayout) -> None:
        self.nest = nest
        self.vdims = vdims
        self.params = params
        self.layout = layout
        self.vvar_dim = {nest.loops[d].var: d for d in vdims}
        self.hazards = [self._self_loads(stmt) for stmt in nest.body]

    # -- hazard analysis ---------------------------------------------------

    def _self_loads(self, stmt) -> list[list[tuple]]:
        """The box-independent half of the hazard analysis.

        One entry per load of the statement's own target at subscripts
        that differ from the write map: the dimensions that *could*
        separate the read region from the write region, each as
        ``((wconst, wvds), (rconst, rvds))``.  A dimension whose scalar
        offsets differ cannot (they do not cancel); whether a remaining
        one does depends on the box — :meth:`verdict`.
        """
        out = []
        for ref in stmt.rhs.loads():
            if (ref.array != stmt.target.array
                    or ref.subscripts == stmt.target.subscripts):
                continue  # another array, or the element reads itself
            dims = []
            for write, read in zip(stmt.target.subscripts, ref.subscripts):
                wc, wt, wv = _split_subscript(write, self.nest, self.vvar_dim,
                                              self.params, CJitEmitError)
                rc, rt, rv = _split_subscript(read, self.nest, self.vvar_dim,
                                              self.params, CJitEmitError)
                if wt == rt:
                    dims.append(((wc, wv), (rc, rv)))
            out.append(dims)
        return out

    @staticmethod
    def _vrange(box, const: int, vds) -> tuple[int, int]:
        """Value interval of ``const + sum(c * v_d)`` over the box."""
        lo = hi = const
        for d, coeff in vds:
            blo, bhi = box[d]
            a, b = coeff * blo, coeff * bhi
            lo += min(a, b)
            hi += max(a, b)
        return lo, hi

    def verdict(self, box) -> tuple[bool, ...]:
        """Per statement: does numpy's evaluate-all-then-store order
        matter in ``box``?

        Only when the statement loads its own target array at subscripts
        that are neither identical to the write map nor, in some
        dimension, provably disjoint from it inside the vector sub-box.
        Dependences carried by scalar dimensions are executed in the same
        order by both tiers and need no buffering.
        """
        def disjoint(write, read) -> bool:
            wlo, whi = self._vrange(box, *write)
            rlo, rhi = self._vrange(box, *read)
            return whi < rlo or rhi < wlo

        return tuple(
            any(not any(disjoint(w, r) for w, r in dims) for dims in loads)
            for loads in self.hazards
        )

    # -- source fragments --------------------------------------------------

    def _index_c(self, sub: Affine) -> str:
        const, terms, vds = _split_subscript(sub, self.nest, self.vvar_dim,
                                             self.params, CJitEmitError)
        all_terms = list(terms) + [
            (self.nest.loops[d].var, coeff) for d, coeff in vds
        ]
        return _linear_src(const, all_terms)

    def addr_c(self, ref: ArrayRef) -> str:
        """The flat C index expression of ``ref`` (row-major strides)."""
        rank = self.layout.ndims[ref.array]
        if len(ref.subscripts) != rank:  # pragma: no cover - layout guards
            raise CJitEmitError(f"rank mismatch on {ref.array!r}")
        pieces: list[str] = []
        for d, sub in enumerate(ref.subscripts):
            idx = self._index_c(sub)
            if d == rank - 1:
                pieces.append(f"({idx})")
            else:
                pieces.append(f"({idx})*s_{ref.array}_{d}")
        return " + ".join(pieces)

    def expr_c(self, expr: Expr) -> str:
        if isinstance(expr, Const):
            return _c_double(expr.value)
        if isinstance(expr, Load):
            return f"a_{expr.ref.array}[{self.addr_c(expr.ref)}]"
        if isinstance(expr, BinOp):
            left = self.expr_c(expr.left)
            right = self.expr_c(expr.right)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, UnaryOp):
            return f"(-{self.expr_c(expr.operand)})"
        raise CJitEmitError(f"cannot lower expression {expr!r}")

    def _loops(self, dims, depth: int, inner: list[str]) -> list[str]:
        """``inner`` (unindented lines) wrapped in one loop per dim."""
        lines = []
        for level, d in enumerate(dims, depth):
            var = f"v_{self.nest.loops[d].var}"
            lines.append(
                f"{IND * level}for (long {var} = b[{2 * d}]; "
                f"{var} <= b[{2 * d + 1}]; {var}++) {{"
            )
        lines.extend(f"{IND * (depth + len(dims))}{line}" for line in inner)
        for level in range(depth + len(dims) - 1, depth - 1, -1):
            lines.append(f"{IND * level}}}")
        return lines

    def _store_order(self, stmt) -> list[int]:
        """Vector dims ordered by where their variable sits in the
        target's subscripts, last subscript innermost."""
        def position(d: int) -> int:
            var = self.nest.loops[d].var
            return max((pos for pos, sub in enumerate(stmt.target.subscripts)
                        if sub.coeff(var)), default=-1)

        return sorted(self.vdims, key=lambda d: (position(d), d))

    def stmt_lines(self, stmt, buffered: bool) -> list[str]:
        """C lines (unindented) executing ``stmt`` over the vector
        sub-box."""
        store = f"a_{stmt.target.array}[{self.addr_c(stmt.target)}]"
        rhs = self.expr_c(stmt.rhs)
        if not buffered:
            return self._loops(self._store_order(stmt), 0,
                               [f"{store} = {rhs};"])
        # Buffered store: evaluate the whole RHS first (numpy semantics),
        # then copy it into place in the same traversal order.
        fill = self._loops(self.vdims, 1, [f"_buf[_k++] = {rhs};"])
        drain = self._loops(self.vdims, 1, [f"{store} = _buf[_k++];"])
        return ["{ long _k = 0;", *fill, f"{IND}_k = 0;", *drain, "}"]

    def body_lines(self, name: str, verdict: tuple[bool, ...]) -> list[str]:
        """The function executing every iteration of the nest inside the
        box ``b`` (``lo, hi`` per dimension), with the statements
        ``verdict`` marks stored through a scratch buffer sized from ``b``.
        Returns 0, or 1 when the scratch allocation failed."""
        nest = self.nest
        out = [f"static int {name}(double **A, const long *D, "
               f"const long *b) {{"]
        out.extend(_stride_lines(nest.arrays(), self.layout))
        if any(verdict):
            volume = " * ".join(
                f"(b[{2 * d + 1}] - b[{2 * d}] + 1)" for d in self.vdims
            ) or "1"
            out.append(f"{IND}double *_buf = (double *)malloc({volume} * "
                       f"sizeof(double));")
            out.append(f"{IND}if (!_buf) return 1;")
        sdims = [d for d in range(nest.depth) if d not in self.vdims]
        inner: list[str] = []
        for stmt, buffered in zip(nest.body, verdict):
            inner.extend(self.stmt_lines(stmt, buffered))
        out.extend(self._loops(sdims, 1, inner))
        if any(verdict):
            out.append(f"{IND}free(_buf);")
        return out + [f"{IND}return 0;", "}"]


# ---------------------------------------------------------------------------
# Whole-plan emission.
# ---------------------------------------------------------------------------


def _stride_lines(arrays: set[str], layout: _ArrayLayout) -> list[str]:
    """Per-function pointer and row-major stride bindings."""
    lines = []
    for name in sorted(arrays):
        lines.append(f"{IND}double *a_{name} = A[{layout.index[name]}];")
        rank = layout.ndims[name]
        offset = layout.dims_offset[name]
        for d in range(rank - 1):
            factors = [f"D[{offset + k}]" for k in range(d + 1, rank)]
            lines.append(
                f"{IND}const long s_{name}_{d} = {' * '.join(factors)};"
            )
    return lines


def _long_array(name: str, values: Sequence[int]) -> str:
    vals = ", ".join(str(v) for v in values) if values else "0"
    return f"const long {name}[] = {{{vals}}};"


def _table_lines(name: str, per_proc: Sequence[Sequence[Sequence[int]]]
                 ) -> list[str]:
    """One phase's schedule: ``<name>_ROWS`` (row = body index, then
    ``lo, hi`` per dimension) and ``<name>_OFF`` (processor ``p`` owns
    rows ``OFF[p] .. OFF[p+1]``)."""
    lines = [f"const long {name}_ROWS[] = {{"]
    offsets = [0]
    for p, rows in enumerate(per_proc):
        lines.append(f"/* proc {p} */")
        lines.extend(f"{','.join(map(str, row))}," for row in rows)
        offsets.append(offsets[-1] + len(rows))
    lines.append("0};")
    lines.append(_long_array(f"{name}_OFF", offsets))
    return lines


def _tiling_lines(exec_plan: ExecutionPlan, body_nests: Sequence[int],
                  width: int) -> list[str]:
    """What the team library's walkers read besides the row tables:
    ``REPRO_DEPTH`` (fused dims), ``REPRO_ROW_WIDTH``, the shift of
    body ``b``'s nest in fused dim ``d`` at ``REPRO_SHIFTS[b * DEPTH + d]``
    and processor ``p``'s tile extent (the strip-independent ``lo, hi``
    of :meth:`~repro.core.execplan.ExecutionPlan.tile_starts`; ``lo >
    hi``: nothing fused) at ``REPRO_EXTENTS[2 * (p * DEPTH + d)]``."""
    depth = exec_plan.plan.depth
    extents = [bound for proc in exec_plan.processors
               for tiles in exec_plan.tile_starts(proc, 1)
               for bound in (tiles.start, tiles.stop - 1)]
    shifts = [exec_plan.plan.shift(k, d) for k in body_nests
              for d in range(depth)]
    return ["/* For the team library's walkers. */",
            f"const long REPRO_DEPTH = {depth};",
            f"const long REPRO_ROW_WIDTH = {width};",
            _long_array("REPRO_SHIFTS", shifts),
            _long_array("REPRO_EXTENTS", extents)]


def emit_plan_c_source(exec_plan: ExecutionPlan) -> str:
    """Render ``exec_plan`` as a self-contained C translation unit.

    Same schedule as :func:`emitpy.emit_plan_source` — per processor its
    whole-box :meth:`~repro.core.execplan.ExecutionPlan.rows`: the fused
    boxes, a barrier, the peeled rectangles — but held as two row tables;
    the code is one body per (nest, hazard verdict), and the team
    library (:data:`TEAM_SOURCE`) walks the tables.
    """
    from ..runtime.fastexec import vector_dims

    nests = list(exec_plan.plan.seq)
    layout = _array_layout(nests)
    ctxs = [_NestCtx(nest, vector_dims(nest), exec_plan.params, layout)
            for nest in nests]
    signature = exec_plan.signature()
    nprocs = len(exec_plan.processors)
    width = 1 + 2 * max(nest.depth for nest in nests)
    bodies: dict[tuple[int, tuple[bool, ...]], int] = {}

    def phase(rows) -> tuple[list[list[int]], int]:
        """Table rows and iteration count of one processor phase."""
        table, count = [], 0
        for k, box in rows:
            key = (k, ctxs[k].verdict(box))
            row = [bodies.setdefault(key, len(bodies))]
            for bounds in box:
                row.extend(bounds)
            row.extend([0] * (width - len(row)))
            table.append(row)
            count += _box_volume(box)
        return table, count

    fused, peeled = [], []
    for fused_rows, peeled_rows in exec_plan.rows():
        fused.append(phase(fused_rows))
        peeled.append(phase(peeled_rows))

    offsets = [0]
    flat: list[int] = []
    for preds in exec_plan.peel_deps:
        flat.extend(preds)
        offsets.append(len(flat))

    lines: list[str] = [
        "/* Generated by repro.codegen.emitc — do not edit. */",
        f"/* codegen-version: {CODEGEN_VERSION} */",
        "#include <stdlib.h>",
        "",
        f'const char *REPRO_SIGNATURE = "{signature}";',
        f"const long REPRO_CODEGEN_VERSION = {CODEGEN_VERSION};",
        f"const long REPRO_NPROCS = {nprocs};",
        f'const char *REPRO_ARRAYS = "{layout.spec_string()}";',
        _long_array("REPRO_FUSED_COUNTS", [count for _, count in fused]),
        _long_array("REPRO_PEELED_COUNTS", [count for _, count in peeled]),
        "/* Point-to-point sync map (see emitpy PEEL_DEPS): the",
        "   predecessors of processor p occupy",
        "   REPRO_PEEL_DEPS[REPRO_PEEL_DEPS_OFF[p] ..",
        "   REPRO_PEEL_DEPS_OFF[p+1]). */",
        _long_array("REPRO_PEEL_DEPS_OFF", offsets),
        _long_array("REPRO_PEEL_DEPS", flat),
        *_tiling_lines(exec_plan, [k for k, _ in bodies], width),
        "",
    ]
    names = []
    for k, verdict in bodies:
        mask = sum(1 << s for s, buffered in enumerate(verdict) if buffered)
        names.append(f"nest_{k}_{mask}")
        lines.append(f"/* nest {k} ({nests[k].name}), buffered statements: "
                     f"{[s for s, v in enumerate(verdict) if v] or 'none'} */")
        lines.extend(ctxs[k].body_lines(names[-1], verdict))
        lines.append("")
    lines.append("int (*const BODIES[])(double **, const long *, "
                 f"const long *) = {{{', '.join(names) or '0'}}};")
    lines.append("")
    lines.extend(_table_lines("FUSED", [rows for rows, _ in fused]))
    lines.extend(_table_lines("PEELED", [rows for rows, _ in peeled]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The SPMD team: one process-wide native library whose threads persist.
# ---------------------------------------------------------------------------

#: ``run_team`` fault table: per thread ``{action, proc, usec}``.
TEAM_SLOW = 1
TEAM_STALL = 2
#: ``run_team`` return code when a sync wait outlived its timeout (-1: a
#: body failed).
TEAM_TIMEOUT = -2

#: The team library is the only code that starts threads (plan objects
#: are compiled without ``-pthread``).  It is control code: on a 2-vCPU
#: x86 box ``-O2`` doubles its build (≈210 vs ≈105 ms) and moves no run
#: time, which the wake-up and the plan's bodies dominate; nor does
#: ``-O1`` move the tiled walk (cjit calc n=513 and ll18 n=511 at strip
#: 32, 60 alternating in-process runs: 1.77 vs 1.78 ms, 2.42 vs 2.34).
TEAM_FLAGS = ("-O0", "-shared", "-fPIC", "-pthread")

TEAM_SOURCE = """\
/* Generated by repro.codegen.emitc — do not edit.  The only walker of a
   plan object's row tables, one library for every plan: a run hands it a
   plan's BODIES, row tables, PEEL_DEPS and tiling tables and the run's
   strip (>= 1; a strip past every extent is whole boxes).  run_tiled walks
   a processor's fused rows tile by tile, run_peeled its peeled rows;
   run_serial runs them all in the calling thread, run_team on the
   process-wide SPMD team (Sec. 3.4, point-to-point sync).  Thread t runs
   processors t, t+T, ...  After a processor's fused rows it sets done[p]
   (release); before its peeled rows it acquires done[q] of each
   predecessor q.  The caller is thread 0.  Worker threads are created on
   first use, grow to the largest team asked for and park between runs (a
   bounded spin, then a futex wait).  One lock serialises runs; a forked
   child starts with no team. */
#define _GNU_SOURCE
#include <limits.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

typedef int (*body_fn)(double **A, const long *D, const long *b);

/* What a run needs of one plan object, resolved once when it is loaded:
   PEEL_DEPS, BODIES, FUSED_ROWS, FUSED_OFF, REPRO_FUSED_COUNTS, the
   PEELED_* counterparts, REPRO_SHIFTS, REPRO_EXTENTS, REPRO_DEPTH and
   REPRO_ROW_WIDTH. */
typedef struct {
    long nprocs;
    const long *deps_off, *deps;
    body_fn const *bodies;
    const long *rows, *off, *counts;
    const long *peeled_rows, *peeled_off, *peeled_counts;
    const long *shifts, *extents;
    long depth, width;
} team_plan;

enum { SLOW = 1, STALL = 2, SPIN = 1 << 10, YIELD = 1 << 14 };

/* How long an idle thread spins before it sleeps on its futex: long
   enough to catch a back-to-back run, short enough that a parked team
   costs no CPU between requests. */
#define PARK_SPIN_NS 50000L

/* One thread's mailbox and share of the result, on its own cache line.
   go is the generation of the last run handed to the thread. */
typedef struct {
    _Alignas(64) atomic_uint go;
    atomic_int sleeping;
    long tid, count;
    int status;
} slot;

static struct {
    pthread_mutex_t lock;  /* one run at a time */
    slot **slots;          /* slots[1..workers]: the worker threads */
    long workers, cap;
    unsigned gen;
    /* the current run: written under the lock before any go is raised */
    const team_plan *plan;
    double **A;
    const long *D, *faults;
    long nthreads, strip, deadline_ns, done_cap;
    atomic_int *done;
    atomic_int stop, joining;
    atomic_uint pending;   /* workers still in the run */
} T = {.lock = PTHREAD_MUTEX_INITIALIZER};

static long now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1000000000L + ts.tv_nsec;
}

static void pause_us(long usec) {
    struct timespec ts = {usec / 1000000, usec % 1000000 * 1000};
    while (nanosleep(&ts, &ts)) {}
}

/* Wait until *word leaves seen: spin PARK_SPIN_NS, then sleep on the
   futex, announced in *sleepers so that a waker knows to make the
   syscall (both sides are seq_cst, so a wake-up is never lost). */
static void park(atomic_uint *word, unsigned seen, atomic_int *sleepers) {
    long t0 = now_ns();
    while (atomic_load_explicit(word, memory_order_acquire) == seen) {
        if (now_ns() - t0 < PARK_SPIN_NS) continue;
        atomic_fetch_add(sleepers, 1);
#ifdef __linux__
        if (atomic_load(word) == seen)
            syscall(SYS_futex, word, FUTEX_WAIT_PRIVATE, seen, 0, 0, 0);
#else
        pause_us(50);
#endif
        atomic_fetch_sub(sleepers, 1);
    }
}

static void wake(atomic_uint *word, atomic_int *sleepers) {
#ifdef __linux__
    if (atomic_load(sleepers))
        syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, INT_MAX, 0, 0, 0);
#endif
}

static void fail(slot *s, int status) {
    s->status = status;
    atomic_store(&T.stop, 1);
}

/* Processor p's fused rows at strip s, in ExecutionPlan.processor_rows'
   order (Fig. 12): tile origins t over p's extent lexicographically, and
   per tile each whole-box fused row in nest order, clipped in fused dim d
   to [t[d] - shift, t[d] + s - 1 - shift]; a row whose clip is empty is
   skipped.  A clipped row runs its whole box's body (disjoint read and
   write ranges stay disjoint in a sub-box); a strip past every extent is
   one tile, the whole boxes.  The iteration count, or -1 when a body
   failed or p is out of range. */
long run_tiled(const team_plan *pl, long p, long s, double **A,
               const long *D) {
    if (p < 0 || p >= pl->nprocs || s < 1) return -1;
    const long nd = pl->depth, w = pl->width;
    const long *ext = pl->extents + 2 * nd * p;
    long t[nd], b[w - 1];
    if (ext[0] > ext[1]) return pl->counts[p];  /* nothing fused */
    for (long d = 0; d < nd; d++) t[d] = ext[2 * d];
    for (;;) {
        for (long r = pl->off[p]; r < pl->off[p + 1]; r++) {
            const long *row = pl->rows + r * w;
            const long *shift = pl->shifts + nd * row[0];
            long d = 0;
            memcpy(b, row + 1, sizeof b);
            for (; d < nd; d++) {
                long lo = t[d] - shift[d], hi = lo + s - 1;
                if (b[2 * d] < lo) b[2 * d] = lo;
                if (b[2 * d + 1] > hi) b[2 * d + 1] = hi;
                if (b[2 * d] > b[2 * d + 1]) break;
            }
            if (d == nd && pl->bodies[row[0]](A, D, b)) return -1;
        }
        long d = nd - 1;  /* the next origin, the last dim fastest */
        while (d >= 0 && (t[d] += s) > ext[2 * d + 1]) {
            t[d] = ext[2 * d];
            d--;
        }
        if (d < 0) return pl->counts[p];
    }
}

/* Processor p's peeled rows: the iteration count, or -1 when a body
   failed or p is out of range. */
long run_peeled(const team_plan *pl, long p, double **A, const long *D) {
    if (p < 0 || p >= pl->nprocs) return -1;
    for (long r = pl->peeled_off[p]; r < pl->peeled_off[p + 1]; r++) {
        const long *row = pl->peeled_rows + r * pl->width;
        if (pl->bodies[row[0]](A, D, row + 1)) return -1;
    }
    return pl->peeled_counts[p];
}

/* The whole schedule of pl at strip s in the calling thread: every
   processor's fused rows, the barrier point (Sec. 3.4), then every
   processor's peeled rows.  The iteration count, or -1. */
long run_serial(const team_plan *pl, double **A, const long *D, long s) {
    long count = 0, n;
    for (long p = 0; p < pl->nprocs; p++) {
        if ((n = run_tiled(pl, p, s, A, D)) < 0) return -1;
        count += n;
    }
    for (long p = 0; p < pl->nprocs; p++) {
        if ((n = run_peeled(pl, p, A, D)) < 0) return -1;
        count += n;
    }
    return count;
}

/* Thread s->tid's processors of the current run: fused rows and signals,
   then acquires and peeled rows. */
static void run_share(slot *s) {
    const team_plan *pl = T.plan;
    const long *f = T.faults ? T.faults + 3 * s->tid : 0;
    long n;
    s->count = 0;
    s->status = 0;
    if (f && f[0] == SLOW) pause_us(f[2]);
    for (long p = s->tid; p < pl->nprocs; p += T.nthreads) {
        if ((n = run_tiled(pl, p, T.strip, T.A, T.D)) < 0)
            { fail(s, -1); return; }
        s->count += n;
        if (f && f[0] == STALL && (f[1] < 0 || f[1] == p)) {
            if (f[2] < 0) continue;  /* withhold the signal */
            pause_us(f[2]);
        }
        atomic_store_explicit(&T.done[p], 1, memory_order_release);
    }
    for (long p = s->tid; p < pl->nprocs; p += T.nthreads) {
        for (long k = pl->deps_off[p]; k < pl->deps_off[p + 1]; k++) {
            /* spin, then yield (an oversubscribed producer gets the CPU),
               then sleep; give up on a peer's failure or the deadline */
            atomic_int *flag = &T.done[pl->deps[k]];
            for (long i = 0;
                 !atomic_load_explicit(flag, memory_order_acquire); i++) {
                if (atomic_load_explicit(&T.stop, memory_order_relaxed))
                    return;
                if (i < SPIN) continue;
                if (T.deadline_ns && now_ns() >= T.deadline_ns)
                    { fail(s, -2); return; }
                if (i < YIELD) sched_yield(); else pause_us(50);
            }
        }
        if ((n = run_peeled(pl, p, T.A, T.D)) < 0) { fail(s, -1); return; }
        s->count += n;
    }
}

static void *worker_main(void *arg) {
    slot *s = arg;
    /* the baseline generation is 0, set by the creator before the thread
       starts; no run is ever handed generation 0 */
    for (unsigned seen = 0;;) {
        park(&s->go, seen, &s->sleeping);
        seen = atomic_load_explicit(&s->go, memory_order_acquire);
        run_share(s);
        if (atomic_fetch_sub(&T.pending, 1) == 1) wake(&T.pending, &T.joining);
    }
    return 0;
}

/* Grow the team to n worker threads, each parked until a run raises its
   go and blind to signals (Python handles those on its own threads).  -1
   when a thread cannot be created; the threads made so far stay. */
static int grow(long n) {
    sigset_t all, old;
    int err = 0;
    if (n > T.cap) {
        long cap = n > 2 * T.cap ? n : 2 * T.cap;
        slot **slots = realloc(T.slots, (cap + 1) * sizeof *slots);
        if (!slots) return -1;
        T.slots = slots;
        T.cap = cap;
    }
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    while (T.workers < n) {
        pthread_t thread;
        slot *s = aligned_alloc(_Alignof(slot), sizeof(slot));
        if (!s) { err = -1; break; }
        memset(s, 0, sizeof *s);
        s->tid = T.workers + 1;
        if (pthread_create(&thread, 0, worker_main, s)) {
            free(s);
            err = -1;
            break;
        }
#ifdef __linux__
        pthread_setname_np(thread, "repro-team");
#endif
        pthread_detach(thread);
        T.slots[++T.workers] = s;
    }
    pthread_sigmask(SIG_SETMASK, &old, 0);
    return err;
}

/* The whole schedule of pl at strip (as run_tiled's) on min(nthreads,
   nprocs) threads: the iteration count, -1 when a body failed, -2 when a
   sync wait outlived timeout_ms (0: no deadline).  faults is NULL or
   {action, proc, usec} per thread (slow: sleep usec before the fused
   phase; stall: delay proc's signal, or withhold it when usec < 0; proc
   < 0 means every processor).  When the team cannot grow to nthreads,
   the run is serial. */
long run_team(const team_plan *pl, double **A, const long *D, long nthreads,
              long strip, long timeout_ms, const long *faults) {
    const long np = pl->nprocs;
    long count, status;
    if (nthreads > np) nthreads = np;
    if (nthreads < 1) nthreads = 1;
    pthread_mutex_lock(&T.lock);
    if (np > T.done_cap) {
        atomic_int *done = realloc(T.done, np * sizeof *done);
        if (done) {
            T.done = done;
            T.done_cap = np;
        }
    }
    if (np > T.done_cap || grow(nthreads - 1)) {
        pthread_mutex_unlock(&T.lock);
        return run_serial(pl, A, D, strip);
    }
    T.plan = pl;
    T.A = A;
    T.D = D;
    T.strip = strip;
    T.faults = faults;
    T.nthreads = nthreads;
    T.deadline_ns = timeout_ms > 0 ? now_ns() + timeout_ms * 1000000L : 0;
    atomic_store_explicit(&T.stop, 0, memory_order_relaxed);
    for (long p = 0; p < np; p++)
        atomic_store_explicit(&T.done[p], 0, memory_order_relaxed);
    atomic_store(&T.pending, nthreads - 1);
    if (++T.gen == 0) T.gen = 1;
    for (long t = 1; t < nthreads; t++) {
        atomic_store(&T.slots[t]->go, T.gen);
        wake(&T.slots[t]->go, &T.slots[t]->sleeping);
    }
    slot self = {.tid = 0};
    run_share(&self);
    for (unsigned left; (left = atomic_load(&T.pending));)
        park(&T.pending, left, &T.joining);
    count = self.count;
    status = self.status;
    for (long t = 1; t < nthreads; t++) {
        const slot *s = T.slots[t];
        count += s->count;
        if (s->status == -1 || (s->status == -2 && !status))
            status = s->status;
    }
    pthread_mutex_unlock(&T.lock);
    return status ? status : count;
}

/* Worker threads alive in this process. */
long team_workers(void) {
    pthread_mutex_lock(&T.lock);
    long workers = T.workers;
    pthread_mutex_unlock(&T.lock);
    return workers;
}

/* fork() waits for a run in flight; the child, whose only thread is the
   forking one, starts with no team and builds a fresh one on its first
   run. */
static void before_fork(void) { pthread_mutex_lock(&T.lock); }
static void after_fork_parent(void) { pthread_mutex_unlock(&T.lock); }
static void after_fork_child(void) {
    for (long t = 1; t <= T.workers; t++) free(T.slots[t]);
    T.workers = 0;
    atomic_store(&T.pending, 0);
    atomic_store(&T.joining, 0);
    pthread_mutex_unlock(&T.lock);
}

__attribute__((constructor)) static void install_fork_handlers(void) {
    pthread_atfork(before_fork, after_fork_parent, after_fork_child);
}
"""


#: The exported symbols ``team_plan`` points at, in its field order.
_PLAN_TABLES = ("REPRO_PEEL_DEPS_OFF", "REPRO_PEEL_DEPS", "BODIES",
                "FUSED_ROWS", "FUSED_OFF", "REPRO_FUSED_COUNTS",
                "PEELED_ROWS", "PEELED_OFF", "REPRO_PEELED_COUNTS",
                "REPRO_SHIFTS", "REPRO_EXTENTS")


class _TeamPlan(ctypes.Structure):
    """``team_plan`` of :data:`TEAM_SOURCE`: one object's ``NPROCS`` and
    tables (a field per symbol), resolved once at :func:`load_native`."""

    _fields_ = [("nprocs", ctypes.c_long),
                *((name, ctypes.c_void_p) for name in _PLAN_TABLES),
                ("depth", ctypes.c_long), ("width", ctypes.c_long)]

#: A strip no tile extent reaches: one tile per processor, the whole
#: boxes.  Every wider strip runs as this one.
WHOLE_BOXES = 1 << 32


def _strip_arg(strip: Optional[int]) -> int:
    """The library's strip for a run at ``strip``: :data:`WHOLE_BOXES`
    for None, else the width, checked and clamped to it."""
    check_strip(strip)
    return WHOLE_BOXES if strip is None else min(strip, WHOLE_BOXES)


#: The process-wide team library (None until the first native module is
#: resolved or run) and the lock its first load holds.
_team_lib = None
_team_lock = threading.Lock()


def _renew_team_lock() -> None:
    global _team_lock
    _team_lock = threading.Lock()


# A fork while another thread builds the team must not leave the child a
# held lock; the library itself drops its threads in the child.
os.register_at_fork(after_in_child=_renew_team_lock)


#: The team library's source-and-flags digest, the last part of its name.
_TEAM_DIGEST = hashlib.sha256(
    f"{TEAM_SOURCE}|{' '.join(TEAM_FLAGS)}".encode()).hexdigest()[:8]


def team_file_name(compiler: str) -> str:
    """The team library's file name for ``compiler``: keyed by the
    compiler fingerprint and by the team's source and flags, so neither a
    toolchain change nor a new team is ever served an old build."""
    return f"team.{compiler_fingerprint(compiler)}.{_TEAM_DIGEST}.so"


def _open_team(path: Path):
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise CJitCompileError(f"cannot load {path.name}: {exc}") from exc
    plan, arrays, dims = (ctypes.POINTER(_TeamPlan),
                          ctypes.POINTER(ctypes.c_void_p),
                          ctypes.POINTER(ctypes.c_long))
    try:
        lib.run_team.argtypes = [plan, arrays, dims, ctypes.c_long,
                                 ctypes.c_long, ctypes.c_long, dims]
        lib.run_tiled.argtypes = [plan, ctypes.c_long, ctypes.c_long,
                                  arrays, dims]
        lib.run_peeled.argtypes = [plan, ctypes.c_long, arrays, dims]
        lib.run_serial.argtypes = [plan, arrays, dims, ctypes.c_long]
        for entry in (lib.run_team, lib.run_tiled, lib.run_peeled,
                      lib.run_serial):
            entry.restype = ctypes.c_long
        lib.team_workers.argtypes = []
        lib.team_workers.restype = ctypes.c_long
    except AttributeError as exc:
        _ctypes.dlclose(lib._handle)
        raise CJitCompileError(f"{path.name} is not a team library") from exc
    return lib


def load_team(directory: Optional[Path], compiler: Optional[str]):
    """The team library built by ``compiler``, from ``directory`` (built
    there on a miss; an unloadable file is rebuilt) or, with
    ``directory=None``, built in a temp dir.  Without a compiler any
    compiler's build of this :data:`TEAM_SOURCE` in ``directory`` is
    loaded, as :meth:`~repro.runtime.plancache.PlanCache.peek_native`
    loads any compiler's plan object; :class:`NativeUnavailable` when
    there is none.  Callers want :func:`native_team`, which does this
    once per process."""
    if compiler is None:
        builds = (sorted(Path(directory).glob(f"team.*.{_TEAM_DIGEST}.so"))
                  if directory is not None else [])
        for path in builds:
            try:
                return _open_team(path)
            except CJitCompileError:
                continue
        raise NativeUnavailable(f"{_NO_COMPILER} and no cached build")
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="repro-team-") as workdir:
            # dlopen keeps the mapping alive after the directory goes
            return _open_team(compile_c(TEAM_SOURCE, Path(workdir) / "team.so",
                                        compiler, flags=TEAM_FLAGS))
    path = Path(directory) / team_file_name(compiler)
    if path.exists():
        try:
            return _open_team(path)
        except CJitCompileError:
            path.unlink(missing_ok=True)
    try:
        return _open_team(compile_c(TEAM_SOURCE, path, compiler,
                                    flags=TEAM_FLAGS))
    except OSError:  # a read-only cache directory only costs the build
        return load_team(None, compiler)


def native_team(directory: Optional[Path] = None):
    """The process-wide team library, loaded once by :func:`load_team`
    from ``directory`` (a temp dir when None).
    :meth:`~repro.runtime.plancache.PlanCache.resolve` loads it from its
    ``team_dir()`` before it hands out a native module; a module loaded
    by other means (:func:`compile_plan_native`) loads it into a temp dir
    at its first run.  Raises :class:`NativeUnavailable` without a
    compiler or a cached build and :class:`CJitCompileError` when the
    build fails."""
    global _team_lib
    if _team_lib is None:
        with _team_lock:
            if _team_lib is None:
                _team_lib = load_team(directory, find_compiler())
    return _team_lib


def team_workers() -> int:
    """Worker threads the process-wide team holds (0 before its first
    run, and in a forked child until its first run)."""
    return _team_lib.team_workers() if _team_lib is not None else 0


# ---------------------------------------------------------------------------
# The ctypes module wrapper.
# ---------------------------------------------------------------------------


#: What the argument memo compares per array, besides its identity.
_ARRAY_META = operator.attrgetter("shape", "strides", "dtype")


@dataclass
class CJitModule:
    """A compiled-and-loaded native plan with the JitModule interface.

    The object holds bodies and tables only; every method is one call
    into the team library (:func:`native_team`), which walks them.
    ``run``/``run_fused``/``run_peeled`` take the same arguments as the
    Python :class:`~repro.codegen.emitpy.JitModule` entry points (the
    whole boxes of one processor's phase for the latter two);
    ``run_team`` runs the parallel schedule on the process-wide team.
    ``run`` and ``run_team`` also take the run's ``strip``: None runs
    whole boxes, a width tiles the fused rows, and a width below 1 raises
    :class:`~repro.core.execplan.StripError`.
    Pointers and concrete shapes are marshalled from the arrays dict once
    per call — so once per ``run`` — and memoized while the same array
    objects keep their shape, strides and dtype.
    """

    signature: str
    source: str
    path: str
    nprocs: int
    peel_deps: tuple[tuple[int, ...], ...]
    fused_counts: tuple[int, ...]
    peeled_counts: tuple[int, ...]
    array_spec: tuple[tuple[str, int], ...]
    kind: str = "cjit"
    # the object's mapping: ``_plan`` points into it
    _lib: object = field(default=None, repr=False)
    _plan: object = field(default=None, repr=False)
    _args_cache: tuple = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._names = tuple(name for name, _ in self.array_spec)

    def _marshal(self, arrays: MutableMapping[str, np.ndarray]):
        try:
            arrs = tuple(map(arrays.__getitem__, self._names))
        except KeyError as exc:
            raise CJitError(f"missing array {exc.args[0]!r}") from None
        # The memo holds the very array objects, weakly (it must not keep
        # a retired arena segment mapped), and each one's shape, strides
        # and dtype: an ndarray's data pointer never changes, but shape
        # and dtype can be reassigned in place, and a transposed square
        # view shares address and shape with the array it views.  A hit
        # touches no ``arr.ctypes``.
        meta = list(map(_ARRAY_META, arrs))
        cached = self._args_cache  # one read: another thread may replace it
        if (cached is not None and cached[1] == meta
                and all(map(operator.is_, [ref() for ref in cached[0]],
                            arrs))):
            return cached[2]
        for arr, (name, ndim) in zip(arrs, self.array_spec):
            if arr.dtype != np.float64 or not arr.flags.c_contiguous:
                raise CJitError(
                    f"array {name!r} must be C-contiguous float64 for the "
                    f"native tier"
                )
            if arr.ndim != ndim:
                raise CJitError(
                    f"array {name!r} has rank {arr.ndim}, plan expects {ndim}"
                )
        ptrs = (ctypes.c_void_p * len(arrs))(*(arr.ctypes.data
                                               for arr in arrs))
        dims = [d for arr in arrs for d in arr.shape]
        dims_arr = (ctypes.c_long * max(1, len(dims)))(*dims)
        self._args_cache = ([weakref.ref(arr) for arr in arrs], meta,
                            (ptrs, dims_arr))
        return ptrs, dims_arr

    def run_fused(self, proc: int,
                  arrays: MutableMapping[str, np.ndarray]) -> int:
        count = (_team_lib or native_team()).run_tiled(
            self._plan, proc, WHOLE_BOXES, *self._marshal(arrays))
        if count < 0:
            raise CJitError(f"native run_fused({proc}) failed")
        return count

    def run_peeled(self, proc: int,
                   arrays: MutableMapping[str, np.ndarray]) -> int:
        count = (_team_lib or native_team()).run_peeled(
            self._plan, proc, *self._marshal(arrays))
        if count < 0:
            raise CJitError(f"native run_peeled({proc}) failed")
        return count

    def _counts(self) -> dict:
        return {"fused_iterations": sum(self.fused_counts),
                "peeled_iterations": sum(self.peeled_counts)}

    def run(self, arrays: MutableMapping[str, np.ndarray],
            strip: Optional[int] = None) -> dict:
        """The whole serial schedule at ``strip`` in one library call
        (``run_serial``); the arrays are marshalled once."""
        if (_team_lib or native_team()).run_serial(
                self._plan, *self._marshal(arrays), _strip_arg(strip)) < 0:
            raise CJitError("native run_serial failed")
        return self._counts()

    def run_team(self, arrays: MutableMapping[str, np.ndarray],
                 nthreads: int, strip: Optional[int] = None,
                 timeout: Optional[float] = None,
                 faults: Optional[Sequence[Sequence[int]]] = None) -> dict:
        """The SPMD schedule at ``strip`` on ``nthreads`` threads of the
        process-wide team (:func:`native_team`) in one call; ctypes
        releases the GIL.

        ``timeout`` bounds every sync wait (seconds; None waits forever)
        and raises :class:`TeamSyncTimeout` past it.
        ``faults`` is one ``(action, proc, usec)`` per thread
        (:data:`TEAM_SLOW` / :data:`TEAM_STALL`, 0 for none); production
        runs pass None."""
        timeout_ms = 0 if timeout is None else max(1, round(timeout * 1000))
        table = None
        if faults is not None:
            flat = [int(v) for row in faults for v in row]
            table = (ctypes.c_long * len(flat))(*flat)
        code = (_team_lib or native_team()).run_team(
            self._plan, *self._marshal(arrays), nthreads, _strip_arg(strip),
            timeout_ms, table)
        if code == TEAM_TIMEOUT:
            raise TeamSyncTimeout(
                f"no fused-done signal within {timeout:g}s")
        if code < 0:
            raise CJitError("native run_team failed")
        return self._counts()


def _read_longs(lib, name: str, count: int) -> tuple[int, ...]:
    return tuple(int(v) for v in (ctypes.c_long * count).in_dll(lib, name))


def load_native(path, expected_signature: Optional[str] = None,
                source: str = "") -> CJitModule:
    """dlopen a compiled plan and validate it against its expected shape.

    Raises :class:`CJitCompileError` for anything suspect — unloadable
    file, missing symbols, stale codegen version or signature mismatch —
    so callers can quarantine the entry and recompile.  A rejected object
    is unmapped again: glibc dedupes ``dlopen`` by pathname, so a stale
    mapping left open would shadow the object recompiled to that path.
    """
    path = Path(path)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise CJitCompileError(f"cannot load {path.name}: {exc}") from exc
    try:
        return _validated_module(lib, path, expected_signature, source)
    except CJitCompileError:
        _ctypes.dlclose(lib._handle)
        raise


def _validated_module(lib, path: Path, expected_signature: Optional[str],
                      source: str) -> CJitModule:
    try:
        signature = ctypes.c_char_p.in_dll(lib, "REPRO_SIGNATURE").value
        signature = signature.decode() if signature else ""
        version, = _read_longs(lib, "REPRO_CODEGEN_VERSION", 1)
        if version != CODEGEN_VERSION:
            raise CJitCompileError(
                f"stale native module: codegen v{version}, expected "
                f"v{CODEGEN_VERSION}"
            )
        nprocs, = _read_longs(lib, "REPRO_NPROCS", 1)
        spec_raw = ctypes.c_char_p.in_dll(lib, "REPRO_ARRAYS").value
        spec_raw = spec_raw.decode() if spec_raw else ""
        if nprocs <= 0:
            raise CJitCompileError(f"{path.name}: bad NPROCS {nprocs}")
        fused_counts = _read_longs(lib, "REPRO_FUSED_COUNTS", nprocs)
        peeled_counts = _read_longs(lib, "REPRO_PEELED_COUNTS", nprocs)
        offsets = _read_longs(lib, "REPRO_PEEL_DEPS_OFF", nprocs + 1)
        flat = _read_longs(lib, "REPRO_PEEL_DEPS", max(1, offsets[-1]))
        depth, width = (_read_longs(lib, name, 1)[0]
                        for name in ("REPRO_DEPTH", "REPRO_ROW_WIDTH"))
        plan = _TeamPlan(
            nprocs, *(ctypes.addressof(ctypes.c_long.in_dll(lib, name))
                      for name in _PLAN_TABLES),
            depth, width)
    except ValueError as exc:
        raise CJitCompileError(
            f"{path.name} lacks the native tables/metadata "
            f"(produced by an older codegen?): {exc}"
        ) from exc
    if expected_signature is not None and signature != expected_signature:
        raise CJitCompileError(
            f"stale native module: signature {signature[:12]}... does not "
            f"match expected {expected_signature[:12]}..."
        )
    try:
        array_spec = tuple(
            (name, int(ndim)) for name, ndim in
            (item.split(":") for item in spec_raw.split(",") if item)
        )
    except ValueError as exc:
        raise CJitCompileError(
            f"{path.name}: bad REPRO_ARRAYS {spec_raw!r}"
        ) from exc
    peel_deps = tuple(
        tuple(flat[offsets[p]:offsets[p + 1]]) for p in range(nprocs)
    )
    return CJitModule(
        signature=signature, source=source, path=str(path), nprocs=nprocs,
        peel_deps=peel_deps, fused_counts=fused_counts,
        peeled_counts=peeled_counts, array_spec=array_spec, _lib=lib,
        _plan=plan,
    )


class PendingCompile:
    """One running compiler invocation, from :func:`start_compile`.

    :meth:`wait` reaps it and publishes the object atomically;
    :meth:`cancel` kills it.  Either way the half-written object and the
    scratch source go, and no child process outlives the call.
    ``COMPILE_TIMEOUT`` counts from the start.
    """

    def __init__(self, cmd: list[str], compiler: str, so_path: Path,
                 tmp_so: Path, scratch: Optional[Path]) -> None:
        self.so_path = so_path
        self._cmd, self._compiler = cmd, compiler
        self._tmp_so, self._scratch = tmp_so, scratch
        self._timeout = COMPILE_TIMEOUT
        self._deadline = time.monotonic() + self._timeout
        try:
            self._proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
        except (OSError, subprocess.SubprocessError) as exc:
            self._proc = None
            self.cancel()
            raise CJitCompileError(f"{compiler} failed to run: {exc}") from exc

    def wait(self) -> Path:
        try:
            try:
                out, err = self._proc.communicate(
                    timeout=max(0.0, self._deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                expired = subprocess.TimeoutExpired(self._cmd, self._timeout)
                raise CJitCompileError(
                    f"{self._compiler} failed to run: {expired}") from None
            if self._proc.returncode != 0:
                tail = (err or out or "").strip()[-500:]
                raise CJitCompileError(
                    f"{self._compiler} exited {self._proc.returncode}: {tail}")
            os.replace(self._tmp_so, self.so_path)
        finally:
            # on every path (timeout, nonzero exit, an interrupt) the
            # compiler is reaped and the half-written object goes; the
            # scratch source always
            self.cancel()
        return self.so_path

    def cancel(self) -> None:
        """Kill the compiler if it still runs, reap it and drop the
        half-written object and the scratch source."""
        if self._proc is not None:
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.wait()
            for pipe in (self._proc.stdout, self._proc.stderr):
                pipe.close()
        self._tmp_so.unlink(missing_ok=True)
        if self._scratch is not None:
            self._scratch.unlink(missing_ok=True)


def start_compile(source: str, so_path, compiler: Optional[str] = None,
                  c_path=None,
                  flags: Optional[Sequence[str]] = None) -> PendingCompile:
    """Start compiling ``source`` into ``so_path`` and return at once; the
    one place a compiler is started.  ``flags`` defaults to
    :data:`CFLAGS`, read at call time like :func:`compiler_fingerprint`
    reads it.

    ``c_path`` optionally persists the intermediate ``.c`` next to the
    object for post-mortem reading; otherwise a scratch file is used.
    """
    compiler = compiler or find_compiler()
    if compiler is None:
        raise NativeUnavailable(_NO_COMPILER)
    so_path = Path(so_path)
    so_path.parent.mkdir(parents=True, exist_ok=True)
    scratch = None
    if c_path is None:
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".c", dir=so_path.parent, delete=False,
                encoding="utf-8") as handle:
            handle.write(source)
        c_path = scratch = Path(handle.name)
    else:
        c_path = Path(c_path)
        tmp = c_path.with_suffix(f".ctmp{os.getpid()}")
        tmp.write_text(source, encoding="utf-8")
        os.replace(tmp, c_path)
    tmp_so = so_path.with_suffix(f".sotmp{os.getpid()}")
    flags = CFLAGS if flags is None else flags
    return PendingCompile([compiler, *flags, "-o", str(tmp_so), str(c_path)],
                          compiler, so_path, tmp_so, scratch)


def compile_c(source: str, so_path, compiler: Optional[str] = None,
              c_path=None, flags: Optional[Sequence[str]] = None) -> Path:
    """Compile ``source`` into ``so_path`` (atomically) and return it:
    :func:`start_compile`, then wait for it."""
    return start_compile(source, so_path, compiler, c_path, flags).wait()


@dataclass
class NativeBuild:
    """A plan's C, emitted, with its compile running
    (:func:`start_plan_native`); :meth:`load` waits and dlopens it."""

    signature: str
    source: str
    pending: PendingCompile
    workdir: Optional[tempfile.TemporaryDirectory] = None

    def load(self) -> CJitModule:
        try:
            return load_native(self.pending.wait(),
                               expected_signature=self.signature,
                               source=self.source)
        finally:
            # dlopen keeps the mapping alive after the directory goes
            self._drop_workdir()

    def cancel(self) -> None:
        try:
            self.pending.cancel()
        finally:
            self._drop_workdir()

    def _drop_workdir(self) -> None:
        if self.workdir is not None:
            self.workdir.cleanup()


def start_plan_native(exec_plan: ExecutionPlan,
                      compiler: Optional[str] = None, so_path=None,
                      c_path=None) -> NativeBuild:
    """Emit ``exec_plan`` and start compiling it into ``so_path`` (a temp
    dir, gone after :meth:`NativeBuild.load`, when None)."""
    compiler = compiler or find_compiler()
    if compiler is None:
        raise NativeUnavailable(_NO_COMPILER)
    signature = exec_plan.signature()
    source = emit_plan_c_source(exec_plan)
    workdir = None
    if so_path is None:
        workdir = tempfile.TemporaryDirectory(prefix="repro-cjit-")
        so_path = Path(workdir.name) / f"{signature}.so"
    try:
        pending = start_compile(source, so_path, compiler, c_path=c_path)
    except BaseException:
        if workdir is not None:
            workdir.cleanup()
        raise
    return NativeBuild(signature, source, pending, workdir)


def compile_plan_native(exec_plan: ExecutionPlan,
                        compiler: Optional[str] = None) -> CJitModule:
    """Emit and compile ``exec_plan`` without touching any cache.

    Raises :class:`NativeUnavailable` when no compiler is present and
    :class:`CJitCompileError` when compilation fails — the ``cjit``
    backend converts both into a counted fallback to ``jit``.
    """
    return start_plan_native(exec_plan, compiler=compiler).load()
