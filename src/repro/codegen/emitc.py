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
  compiles each loop body once however many processors or strips the
  plan has;
* two ``static const long`` schedule tables — fused rows and peeled rows,
  each row a body index plus box bounds, with per-processor row offsets
  (empty boxes are simply not rows; ``strip=`` tiles are rows, i.e. data);
* the same exported metadata the Python module carries — signature,
  ``NPROCS``, per-processor iteration counts and the ``PEEL_DEPS``
  point-to-point sync map — as ``REPRO_*`` symbols, so a cold process can
  validate and run a cached ``.so`` without the ``.c`` or ``.py`` source;
* ``long run_fused(long proc, double **arrays, const long *dims)`` /
  ``run_peeled`` entry points that walk one processor's rows, and a
  serial ``run_plan(arrays, dims)`` that walks every fused row, then
  every peeled row (the Sec. 3.4 phase order) in one native call (array
  pointers and concrete shapes are runtime inputs: shapes are
  deliberately *not* part of the structural plan signature, mirroring how
  the numpy module reads them off the arrays it is handed).

Bit-identity with the interpreter is preserved by construction.  The
numpy module executes each statement as "evaluate the RHS over the whole
box, then store"; a naive C loop interleaves loads and stores
element-by-element.  The two agree unless a statement *reads the array it
writes* at overlapping locations inside the vectorized sub-box, so the
emitter performs that hazard analysis per (statement, box): provably safe
statements (identical subscripts, or a dimension with provably disjoint
index ranges) become direct elementwise loops, anything else evaluates
into a scratch buffer first and stores after — exactly numpy's
semantics.  The verdict can differ between boxes of one nest (a small
strip can separate a read from the write that a whole block overlaps), so
a nest gets one body per distinct verdict tuple and each table row names
the body proved safe for its box.  Scalar (non-vectorized) dimensions stay
ordered outer loops in both tiers, so dependences they carry behave
identically; a direct statement's vector loops run in the order of its
target's subscripts (last subscript innermost, i.e. unit stride over the
row-major array) — with no overlap between what it reads and writes, any
order stores the same bits.  Arithmetic is plain IEEE-754 double with the
same expression-tree shape numpy evaluates, compiled with ``-O2`` and
**without** ``-ffast-math``, so every element's value is bit-identical.

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
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import MutableMapping, Optional, Sequence

import numpy as np

from ..core.execplan import ExecutionPlan
from ..ir.access import ArrayRef
from ..ir.expr import Affine
from ..ir.loop import LoopNest
from ..ir.stmt import BinOp, Const, Expr, Load, UnaryOp
from .emitpy import CODEGEN_VERSION, JitEmitError, _box_volume

IND = "    "

#: Exactly what the issue gates on: portable IEEE-754 codegen.  No
#: ``-ffast-math`` (would break bit-identity), no ``-march`` (the cache
#: may be shared between machines of one ISA family).
CFLAGS = ("-O2", "-shared", "-fPIC")

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


_fingerprints: dict[str, str] = {}


def compiler_fingerprint(compiler: Optional[str] = None) -> Optional[str]:
    """Short stable digest of (compiler identity, flags), or None.

    Part of the ``.so`` cache key and of the auto-tuner's machine
    fingerprint: a compiler upgrade must recompile cached objects and
    invalidate persisted tuning winners instead of replaying stale ones.
    """
    import hashlib

    if compiler is None:
        compiler = find_compiler()
    if compiler is None:
        return None
    cached = _fingerprints.get(compiler)
    if cached is not None:
        return cached
    try:
        out = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=10.0,
        )
        identity = (out.stdout or out.stderr).splitlines()[0:1]
        identity = identity[0] if identity else compiler
    except (OSError, subprocess.SubprocessError, IndexError):
        identity = compiler
    digest = hashlib.sha256(
        f"{identity}|{' '.join(CFLAGS)}".encode()
    ).hexdigest()[:12]
    _fingerprints[compiler] = digest
    return digest


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


def _linear_c(const: int, terms: Sequence[tuple[str, int]]) -> str:
    """Render ``sum(c * v_var) + const`` as a C long expression."""
    parts: list[str] = []
    for var, coeff in terms:
        name = f"v_{var}"
        if coeff == 1:
            parts.append(name)
        elif coeff == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{coeff}*{name}")
    if const or not parts:
        parts.append(str(const))
    return " + ".join(parts)


@dataclass(frozen=True)
class _ArrayLayout:
    """Global array table of one plan: pointer index and dims offset."""

    order: tuple[str, ...]
    ndims: dict[str, int]
    index: dict[str, int]
    dims_offset: dict[str, int]

    @property
    def total_dims(self) -> int:
        return sum(self.ndims[name] for name in self.order)

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
        self.svars = {
            nest.loops[d].var for d in range(nest.depth) if d not in vdims
        }
        self.hazards = [self._self_loads(stmt) for stmt in nest.body]

    def split(self, sub: Affine):
        """Fold ``sub`` into (const, scalar terms, vector-dim terms)."""
        const = sub.const
        terms: list[tuple[str, int]] = []
        vds: list[tuple[int, int]] = []
        for var, coeff in sub.coeffs:
            if var in self.vvar_dim:
                vds.append((self.vvar_dim[var], coeff))
            elif var in self.svars:
                terms.append((var, coeff))
            elif var in self.params:
                const += coeff * self.params[var]
            else:
                raise CJitEmitError(
                    f"unknown name {var!r} in subscript of nest "
                    f"{self.nest.name!r}"
                )
        return const, terms, vds

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
                wc, wt, wv = self.split(write)
                rc, rt, rv = self.split(read)
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
        const, terms, vds = self.split(sub)
        all_terms = list(terms) + [
            (self.nest.loops[d].var, coeff) for d, coeff in vds
        ]
        return _linear_c(const, all_terms)

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
    lines = [f"static const long {name}_ROWS[] = {{"]
    offsets = [0]
    for p, rows in enumerate(per_proc):
        lines.append(f"/* proc {p} */")
        lines.extend(f"{','.join(map(str, row))}," for row in rows)
        offsets.append(offsets[-1] + len(rows))
    lines.append("0};")
    lines.append("static " + _long_array(f"{name}_OFF", offsets))
    return lines


def emit_plan_c_source(exec_plan: ExecutionPlan,
                       strip: Optional[int] = None) -> str:
    """Render ``exec_plan`` as a self-contained C translation unit.

    Same schedule as :func:`emitpy.emit_plan_source` — per processor the
    fused boxes (``strip`` tiles in the interpreter's order), a barrier,
    the peeled rectangles — but held as two row tables; the code is one
    body per (nest, hazard verdict), the exported metadata and the entry
    points the worker pool (``run_fused``/``run_peeled``) and the serial
    ``run`` wrapper (``run_plan``) call.
    """
    from ..runtime.fastexec import _sorted_rects, vector_dims
    from ..runtime.parallel import fused_tile_boxes

    plan = exec_plan.plan
    nests = list(plan.seq)
    layout = _array_layout(nests)
    ctxs = [_NestCtx(nest, vector_dims(nest), exec_plan.params, layout)
            for nest in nests]
    signature = exec_plan.signature(strip=strip)
    nprocs = len(exec_plan.processors)
    width = 1 + 2 * max(nest.depth for nest in nests)
    bodies: dict[tuple[int, tuple[bool, ...]], int] = {}

    def phase(chunks) -> tuple[list[list[int]], int]:
        """Table rows and iteration count of (nest_idx, box) chunks."""
        rows, count = [], 0
        for k, box in chunks:
            volume = _box_volume(box)
            if not volume:
                continue
            key = (k, ctxs[k].verdict(box))
            row = [bodies.setdefault(key, len(bodies))]
            for bounds in box:
                row.extend(bounds)
            row.extend([0] * (width - len(row)))
            rows.append(row)
            count += volume
        return rows, count

    fused, peeled = [], []
    for proc in exec_plan.processors:
        if strip is None:
            chunks = [(k, tuple(proc.fused[k])) for k in range(len(nests))]
        else:
            chunks = fused_tile_boxes(proc, plan.depth, nests, plan.shift,
                                      strip)
        fused.append(phase(chunks))
        peeled.append(phase((rect.nest_idx, rect.ranges)
                            for rect in _sorted_rects(proc)))

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
    lines.append("static int (*const BODIES[])(double **, const long *, "
                 f"const long *) = {{{', '.join(names) or '0'}}};")
    lines.append("")
    lines.extend(_table_lines("FUSED", [rows for rows, _ in fused]))
    lines.extend(_table_lines("PEELED", [rows for rows, _ in peeled]))
    lines.append(f"""
static int walk(const long *rows, long row, long end, double **A,
                const long *D) {{
    for (; row < end; row++) {{
        const long *r = rows + row * {width};
        if (BODIES[r[0]](A, D, r + 1)) return 1;
    }}
    return 0;
}}""")
    for entry, table in (("fused", "FUSED"), ("peeled", "PEELED")):
        lines.append(f"""
long run_{entry}(long proc, double **arrays, const long *dims) {{
    if (proc < 0 || proc >= REPRO_NPROCS) return -1;
    if (walk({table}_ROWS, {table}_OFF[proc], {table}_OFF[proc + 1], arrays,
             dims))
        return -1;
    return REPRO_{table}_COUNTS[proc];
}}""")
    lines.append("""
/* Serial schedule: every fused row, the barrier point (Sec. 3.4), then
   every peeled row. */
long run_plan(double **arrays, const long *dims) {
    return walk(FUSED_ROWS, 0, FUSED_OFF[REPRO_NPROCS], arrays, dims)
        || walk(PEELED_ROWS, 0, PEELED_OFF[REPRO_NPROCS], arrays, dims)
        ? -1 : 0;
}
""")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The ctypes module wrapper.
# ---------------------------------------------------------------------------


@dataclass
class CJitModule:
    """A compiled-and-loaded native plan with the JitModule interface.

    ``run``/``run_fused``/``run_peeled`` take the same arguments as the
    Python :class:`~repro.codegen.emitpy.JitModule` entry points (the
    pool calls them interchangeably); pointers and concrete shapes are
    marshalled from the arrays dict once per call — so once per ``run``
    — and memoized while the arrays stay put.
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
    _lib: object = field(default=None, repr=False)
    _args_cache: tuple = field(default=None, repr=False)

    def _marshal(self, arrays: MutableMapping[str, np.ndarray]):
        try:
            arrs = [arrays[name] for name, _ in self.array_spec]
        except KeyError as exc:
            raise CJitError(f"missing array {exc.args[0]!r}") from None
        key = [(arr.ctypes.data, arr.shape) for arr in arrs]
        if self._args_cache is not None and self._args_cache[0] == key:
            return self._args_cache[1:]
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
        ptrs = (ctypes.c_void_p * len(key))(*(addr for addr, _ in key))
        dims = [d for _, shape in key for d in shape]
        dims_arr = (ctypes.c_long * max(1, len(dims)))(*dims)
        self._args_cache = (key, ptrs, dims_arr)
        return ptrs, dims_arr

    def run_fused(self, proc: int,
                  arrays: MutableMapping[str, np.ndarray]) -> int:
        count = self._lib.run_fused(proc, *self._marshal(arrays))
        if count < 0:
            raise CJitError(f"native run_fused({proc}) failed")
        return count

    def run_peeled(self, proc: int,
                   arrays: MutableMapping[str, np.ndarray]) -> int:
        count = self._lib.run_peeled(proc, *self._marshal(arrays))
        if count < 0:
            raise CJitError(f"native run_peeled({proc}) failed")
        return count

    def run(self, arrays: MutableMapping[str, np.ndarray]) -> dict:
        """The whole serial schedule in one native call: the arrays are
        marshalled once, ``run_plan`` walks both tables."""
        if self._lib.run_plan(*self._marshal(arrays)) < 0:
            raise CJitError("native run_plan failed")
        return {"fused_iterations": sum(self.fused_counts),
                "peeled_iterations": sum(self.peeled_counts)}


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
        lib.run_fused.argtypes = [
            ctypes.c_long, ctypes.POINTER(ctypes.c_void_p),
            ctypes.POINTER(ctypes.c_long),
        ]
        lib.run_fused.restype = ctypes.c_long
        lib.run_peeled.argtypes = lib.run_fused.argtypes
        lib.run_peeled.restype = ctypes.c_long
        lib.run_plan.argtypes = lib.run_fused.argtypes[1:]
        lib.run_plan.restype = ctypes.c_long
    except (ValueError, AttributeError) as exc:
        raise CJitCompileError(
            f"{path.name} lacks the native entry points/metadata "
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
    )


def compile_c(source: str, so_path, compiler: Optional[str] = None,
              c_path=None) -> Path:
    """Compile ``source`` into ``so_path`` (atomically) and return it.

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
        scratch = tempfile.NamedTemporaryFile(
            mode="w", suffix=".c", dir=so_path.parent, delete=False,
            encoding="utf-8",
        )
        scratch.write(source)
        scratch.close()
        c_path = Path(scratch.name)
    else:
        c_path = Path(c_path)
        tmp = c_path.with_suffix(f".ctmp{os.getpid()}")
        tmp.write_text(source, encoding="utf-8")
        os.replace(tmp, c_path)
    tmp_so = so_path.with_suffix(f".sotmp{os.getpid()}")
    cmd = [compiler, *CFLAGS, "-o", str(tmp_so), str(c_path)]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=COMPILE_TIMEOUT)
        except (OSError, subprocess.SubprocessError) as exc:
            raise CJitCompileError(
                f"{compiler} failed to run: {exc}") from exc
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-500:]
            raise CJitCompileError(
                f"{compiler} exited {proc.returncode}: {tail}"
            )
        os.replace(tmp_so, so_path)
    finally:
        # on every failure path (timeout, unrunnable compiler, nonzero
        # exit) the half-written object goes; the scratch source always
        tmp_so.unlink(missing_ok=True)
        if scratch is not None:
            c_path.unlink(missing_ok=True)
    return so_path


def compile_plan_native(exec_plan: ExecutionPlan,
                        strip: Optional[int] = None,
                        compiler: Optional[str] = None) -> CJitModule:
    """Emit and compile ``exec_plan`` without touching any cache.

    Raises :class:`NativeUnavailable` when no compiler is present and
    :class:`CJitCompileError` when compilation fails — the ``cjit``
    backend converts both into a counted fallback to ``jit``.
    """
    compiler = compiler or find_compiler()
    if compiler is None:
        raise NativeUnavailable(_NO_COMPILER)
    signature = exec_plan.signature(strip=strip)
    source = emit_plan_c_source(exec_plan, strip=strip)
    with tempfile.TemporaryDirectory(prefix="repro-cjit-") as workdir:
        so_path = Path(workdir) / f"{signature}.so"
        compile_c(source, so_path, compiler=compiler)
        # dlopen keeps the mapping alive after the directory is removed.
        return load_native(so_path, expected_signature=signature,
                           source=source)
