"""Lower an :class:`~repro.core.execplan.ExecutionPlan` to numpy source.

The paper's SPMD code (Figs. 12, 15-16) has one body per nest, and each
processor's box bounds are control variables set at run time.  This
module is the only numpy lowering, and it renders a plan that way, as a
self-contained Python module holding:

* one function per nest, ``nest_<k>(A, box)``, executing every iteration
  of nest ``k`` inside the box it is handed (one ``(lo, hi)`` pair per
  dimension): vectorizable dimensions (per the
  :func:`~repro.runtime.fastexec.vector_dims` legality analysis) become
  slices or ``np.arange`` index grids computed from the box's bounds,
  with the plan's parameters folded into the constants, and the
  remaining dimensions become ordinary scalar ``for`` loops in original
  order — so the text grows with the nests, not the processors;
* ``BODIES`` and the whole-box schedule as data: ``FUSED_ROWS[p]`` and
  ``PEELED_ROWS[p]`` are processor ``p``'s
  :meth:`~repro.core.execplan.ExecutionPlan.rows` at ``strip=None``,
  each row a ``(body index, box)``;
* the metadata: ``SIGNATURE``, ``NPROCS`` and the ``PEEL_DEPS``
  point-to-point sync map.

Nothing in the module walks the rows.  :class:`RowWalker` (here, not
emitted) binds each row to its body once and runs them:
:func:`compile_source` builds a :class:`JitModule`'s
``run``/``run_fused``/``run_peeled`` over it (``jit`` and the mpjit
worker pool), and the ``vector`` backend walks ``rows(strip)`` with the
same bodies, compiled alone by :func:`compile_bodies`.  A module serves
every strip: strip-mining a legal plan changes no stored bit.  A legal
plan's result is bit-identical to the interpreter (the argument is in
:mod:`repro.runtime.fastexec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, MutableMapping, Optional, Sequence

import numpy as np

from ..core.execplan import ExecutionPlan
from ..ir.access import ArrayRef
from ..ir.expr import Affine
from ..ir.loop import LoopNest
from ..ir.stmt import BinOp, Const, Expr, Load, UnaryOp

#: Bumped whenever the shape of generated code changes; part of the plan
#: signature's on-disk directory name so stale cache trees are never read.
#: v3: modules additionally carry ``PEEL_DEPS`` — the per-processor
#: point-to-point predecessor map consumed by the mpjit pool.
#: v4: native objects are table-driven (one body per nest, schedule tables,
#: a ``run_plan`` entry); the numpy modules are unchanged but share the
#: version directory, so v3 objects are never loaded as v4.
#: v5: native objects also carry ``run_team``, the in-process pthread team
#: mpjit runs them on.
#: v6: the team left the objects for one process-wide library
#: (``emitc.TEAM_SOURCE``); objects are built without ``-pthread``.
#: v7: the strip left every artifact: modules lower the whole-box rows
#: only, and native objects export the tables the team library tiles at
#: run time (``BODIES``, ``FUSED_ROWS``/``FUSED_OFF``, shifts, extents).
#: v8: native objects hold only bodies and tables: the team library walks
#: every row (``run_fused``/``run_peeled``/``run_plan`` left the objects).
#: v9: numpy modules hold only per-nest bodies taking their box as an
#: argument, ``BODIES`` and the ``FUSED_ROWS``/``PEELED_ROWS`` tables;
#: :class:`RowWalker` walks them (the C units change by this line only).
CODEGEN_VERSION = 9

IND = "    "


class JitEmitError(RuntimeError):
    """The plan contains a construct the emitter cannot lower."""


class JitCompileError(RuntimeError):
    """Generated (or cached) source failed to compile or looks stale."""


class StaleModuleError(JitCompileError):
    """A compiled module's signature is not the one expected: a stale or
    corrupted plan-cache entry."""


@dataclass(frozen=True)
class JitModule:
    """A compiled plan: structural signature, source text and the entry
    points :class:`RowWalker` builds over its bodies and row tables.

    ``run`` executes the whole plan serially (every processor's fused
    rows, the barrier point, every processor's peeled rows).
    ``run_fused``/``run_peeled`` execute *one* processor's phase and return
    its iteration count — the entry points the ``mpjit`` worker pool calls
    so each OS process runs only its assigned processors' phases.
    ``peel_deps[p]`` is the sorted tuple of processors whose fused phase
    must complete before processor ``p``'s peeled phase (see
    :mod:`repro.core.syncdeps`); the pool waits on exactly these instead
    of a global barrier."""

    signature: str
    source: str
    run: Callable[[MutableMapping[str, np.ndarray]], dict]
    run_fused: Callable[[int, MutableMapping[str, np.ndarray]], int]
    run_peeled: Callable[[int, MutableMapping[str, np.ndarray]], int]
    nprocs: int
    peel_deps: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Rendering helpers: affine pieces with parameters folded in.
# ---------------------------------------------------------------------------


def _linear_src(const: int, terms: Sequence[tuple[str, int]]) -> str:
    """Render ``sum(c * v_var) + const`` — the same text is a Python and
    a C expression, so both emitters print affine pieces with it."""
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


def _offset_src(base: str, const: int, terms: Sequence[tuple[str, int]]
                ) -> str:
    """``base`` plus an affine offset, e.g. ``l0 + v_j - 1``."""
    if not const and not terms:
        return base
    rest = _linear_src(const, terms)
    return f"{base} - {rest[1:]}" if rest[0] == "-" else f"{base} + {rest}"


def _split_subscript(sub: Affine, nest: LoopNest,
                     vvar_dim: Mapping[str, int], params,
                     error: type[Exception] = JitEmitError):
    """Fold ``sub`` into (const, scalar terms, vector-dim terms): the
    plan's parameters are concrete ints folded into the constant, the
    nest's vectorized variables map to their dimension (``vvar_dim``) and
    its other loop variables stay symbolic — shared by both emitters."""
    const = sub.const
    terms: list[tuple[str, int]] = []
    vds: list[tuple[int, int]] = []
    for var, coeff in sub.coeffs:
        if var in vvar_dim:
            vds.append((vvar_dim[var], coeff))
        elif var in nest.loop_vars:
            terms.append((var, coeff))
        elif var in params:
            const += coeff * params[var]
        else:
            raise error(
                f"unknown name {var!r} in subscript of nest {nest.name!r}"
            )
    return const, terms, vds


def _tuple_src(items: Sequence[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class _BoxCtx:
    """Rendering context for one nest over a symbolic box.

    Parameters are concrete ints folded into subscript constants, scalar
    (non-vectorized) loop variables stay symbolic (they become generated
    ``for`` variables), and dimension ``d`` of the box is the body's
    inclusive ``l<d>``..``h<d>``: each vectorized dimension renders as a
    slice or an ``np.arange`` grid shaped for broadcasting, bounded by
    them.  A slice that does not move with the scalar loops is built
    once per call, at the top of the body (``s<d>``, ``s<d>p<c>``,
    ``s<d>m<c>`` for offsets 0, +c, -c).
    """

    def __init__(self, nest: LoopNest, vdims: tuple[int, ...],
                 params) -> None:
        self.nest = nest
        self.vdims = vdims
        self.rank_of = {d: r for r, d in enumerate(vdims)}
        self.params = params
        self.vvar_dim = {nest.loops[d].var: d for d in vdims}
        self.grids: set[int] = set()
        self.slices: dict[tuple[int, int], str] = {}

    def part(self, sub: Affine):
        """One subscript as ('int'|'slice'|'grid', const, terms, extra)."""
        const, terms, vds = _split_subscript(sub, self.nest, self.vvar_dim,
                                             self.params)
        if not vds:
            return ("int", const, terms, None)
        if len(vds) == 1 and vds[0][1] == 1:
            return ("slice", const, terms, vds[0][0])
        return ("grid", const, terms, tuple(vds))

    @staticmethod
    def _sliceable(parts) -> bool:
        """True when the subscripts index with pure basic slicing: no
        index grids, and no vector dimension spanned by two subscripts
        (the diagonal case, which basic slicing would turn into a cross
        product)."""
        if any(kind == "grid" for kind, *_ in parts):
            return False
        present = [d for kind, _c, _t, d in parts if kind == "slice"]
        return len(present) == len(set(present))

    # -- source fragments --------------------------------------------------

    def _grid_term(self, d: int, coeff: int) -> str:
        self.grids.add(d)
        return f"_g{d}" if coeff == 1 else f"{coeff}*_g{d}"

    def _fancy_src(self, part) -> str:
        """Render a part as a broadcasted integer index (advanced indexing)."""
        kind, const, terms, extra = part
        if kind == "int":
            return _linear_src(const, terms)
        pieces: list[str] = []
        if const or terms:
            pieces.append(_linear_src(const, terms))
        if kind == "slice":
            pieces.append(self._grid_term(extra, 1))
        else:
            for d, coeff in extra:
                pieces.append(self._grid_term(d, coeff))
        return " + ".join(pieces)

    def _slice_src(self, part) -> str:
        kind, const, terms, d = part
        assert kind == "slice"
        if terms:  # moves with the scalar loops: built where it is used
            return (f"{_offset_src(f'l{d}', const, terms)}:"
                    f"{_offset_src(f'h{d}', const + 1, terms)}")
        name = f"s{d}" + ("" if not const else
                          f"p{const}" if const > 0 else f"m{-const}")
        self.slices[d, const] = name
        return name

    def shape_src(self) -> str:
        """The box's extent along the vector dimensions, as a tuple."""
        return _tuple_src([f"h{d} - l{d} + 1" for d in self.vdims])

    def ref_index(self, ref: ArrayRef):
        """Return (index source, slice ranks, sliceable flag)."""
        parts = [self.part(s) for s in ref.subscripts]
        if not self._sliceable(parts):
            idx = ", ".join(self._fancy_src(p) for p in parts)
            return idx, [], False
        srcs: list[str] = []
        ranks: list[int] = []
        for p in parts:
            if p[0] == "int":
                srcs.append(_linear_src(p[1], p[2]))
            else:
                srcs.append(self._slice_src(p))
                ranks.append(self.rank_of[p[3]])
        return ", ".join(srcs), ranks, True

    def load_src(self, ref: ArrayRef) -> tuple[str, str]:
        """Render a load; returns (source, kind) with kind one of
        'scalar' (a numpy scalar), 'view' (may share memory with the
        array) or 'array' (a fresh full-rank array)."""
        idx, ranks, sliceable = self.ref_index(ref)
        src = f"a_{ref.array}[{idx}]"
        if not sliceable:
            return src, "array"  # advanced indexing copies, full rank
        if not ranks:
            return src, "scalar"
        perm = sorted(range(len(ranks)), key=lambda a: ranks[a])
        if perm != list(range(len(ranks))):
            src += f".transpose({tuple(perm)})"
        have = sorted(ranks)
        if len(have) < len(self.vdims):
            expander = ", ".join(
                ":" if r in have else "None" for r in range(len(self.vdims))
            )
            src += f"[{expander}]"
        return src, "view"

    def expr_src(self, expr: Expr) -> tuple[str, str]:
        if isinstance(expr, Const):
            return repr(expr.value), "scalar"
        if isinstance(expr, Load):
            return self.load_src(expr.ref)
        if isinstance(expr, BinOp):
            left, lk = self.expr_src(expr.left)
            right, rk = self.expr_src(expr.right)
            kind = "scalar" if lk == rk == "scalar" else "array"
            return f"({left} {expr.op} {right})", kind
        if isinstance(expr, UnaryOp):
            src, k = self.expr_src(expr.operand)
            return f"(-{src})", "scalar" if k == "scalar" else "array"
        raise JitEmitError(f"cannot lower expression {expr!r}")

    def stmt_lines(self, stmt) -> list[str]:
        """Render one assignment over the box's vector dimensions."""
        rhs_src, rhs_kind = self.expr_src(stmt.rhs)
        # A bare load can be a view of the written array: numpy evaluates
        # the whole RHS before storing, so copy it before the store.
        needs_copy = (
            rhs_kind == "view"
            and isinstance(stmt.rhs, Load)
            and stmt.rhs.ref.array == stmt.target.array
        )
        idx, ranks, sliceable = self.ref_index(stmt.target)
        target = f"a_{stmt.target.array}[{idx}]"
        if not sliceable:
            if needs_copy:
                return [f"_v = {rhs_src}.copy()", f"{target} = _v"]
            return [f"{target} = {rhs_src}"]
        if ranks and len(ranks) != len(self.vdims):  # pragma: no cover
            raise JitEmitError(
                f"write map of {stmt} does not span the vector dimensions"
            )
        if ranks == sorted(ranks) or rhs_kind == "scalar":
            value = f"{rhs_src}.copy()" if needs_copy else rhs_src
            return [f"{target} = {value}"]
        # Permuted target subscripts: broadcast to rank order, then put
        # the value's axes in subscript order.
        lines = [f"_v = {rhs_src}"]
        if needs_copy:
            lines.append("_v = _v.copy()")
        lines.append(
            f"_v = np.broadcast_to(_v, {self.shape_src()})"
            f".transpose({tuple(ranks)})"
        )
        lines.append(f"{target} = _v")
        return lines

    def hoisted_lines(self) -> list[str]:
        """The slices and grids the statements use, built from the box."""
        out = [f"{name} = slice({_offset_src(f'l{d}', const, ())}, "
               f"{_offset_src(f'h{d}', const + 1, ())})"
               for (d, const), name in sorted(self.slices.items())]
        for d in sorted(self.grids):
            grid = f"_g{d} = np.arange(l{d}, h{d} + 1)"
            if len(self.vdims) > 1:
                shape = [1] * len(self.vdims)
                shape[self.rank_of[d]] = -1
                grid += f".reshape({tuple(shape)})"
            out.append(grid)
        return out


def _box_volume(box) -> int:
    total = 1
    for lo, hi in box:
        total *= max(0, hi - lo + 1)
    return total


def emit_body(nest: LoopNest, name: str, params,
              vdims: Optional[tuple[int, ...]] = None) -> list[str]:
    """Source lines of ``def <name>(A, box)``, which executes every
    iteration of ``nest`` inside ``box`` (one inclusive ``(lo, hi)`` per
    dimension, none empty): vectorized dimensions as whole-array
    indexing bounded by the box, the rest as scalar loops in
    lexicographic order.  Bit-identical to per-iteration interpretation
    for any nest whose ``doall`` markings are truthful."""
    if vdims is None:
        from ..runtime.fastexec import vector_dims

        vdims = vector_dims(nest)
    ctx = _BoxCtx(nest, vdims, params)
    stmt_blocks = [ctx.stmt_lines(st) for st in nest.body]
    bounds = _tuple_src([f"(l{d}, h{d})" for d in range(nest.depth)])
    out = [f"def {name}(A, box):"]
    out.extend(f"{IND}a_{a} = A['{a}']" for a in sorted(nest.arrays()))
    out.append(f"{IND}{bounds[1:-1]} = box")  # "(l0, h0), (l1, h1) = box"
    out.extend(f"{IND}{line}" for line in ctx.hoisted_lines())
    depth = 1
    for d in range(nest.depth):
        if d not in vdims:
            var = nest.loops[d].var
            out.append(f"{IND * depth}for v_{var} in range(l{d}, h{d} + 1):")
            depth += 1
    for block in stmt_blocks:
        out.extend(f"{IND * depth}{line}" for line in block)
    return out


# ---------------------------------------------------------------------------
# Whole-plan emission.
# ---------------------------------------------------------------------------


def _bodies_lines(exec_plan: ExecutionPlan) -> list[str]:
    """The code half of a module: the import, one ``nest_<k>`` body per
    nest and the ``BODIES`` tuple."""
    from ..runtime.fastexec import vector_dims

    nests = list(exec_plan.plan.seq)
    names = [f"nest_{k}" for k in range(len(nests))]
    lines = ["import numpy as np", ""]
    for nest, name in zip(nests, names):
        lines.append(f"# {nest.name}")
        lines.extend(emit_body(nest, name, exec_plan.params,
                               vector_dims(nest)))
        lines.append("")
    lines.append(f"BODIES = {_tuple_src(names)}")
    return lines


def emit_plan_source(exec_plan: ExecutionPlan) -> str:
    """Render ``exec_plan`` as a self-contained Python/numpy module: one
    ``nest_<k>`` body per nest, ``BODIES``, and per processor its
    whole-box :meth:`~repro.core.execplan.ExecutionPlan.rows` as the
    ``FUSED_ROWS``/``PEELED_ROWS`` tables :class:`RowWalker` runs."""
    lines: list[str] = [
        '"""Generated by repro.codegen.emitpy — do not edit."""',
        f"# codegen-version: {CODEGEN_VERSION}",
        f'SIGNATURE = "{exec_plan.signature()}"',
        "",
        *_bodies_lines(exec_plan),
        f"NPROCS = {len(exec_plan.processors)}",
        "# Point-to-point sync map: PEEL_DEPS[p] lists the",
        "# processors whose fused phase must complete before",
        "# processor p's peeled phase may start (flow, anti and",
        "# output dependences across the barrier point).",
        f"PEEL_DEPS = {exec_plan.peel_deps!r}",
        "# Processor p's rows, each (index into BODIES, box).",
    ]
    rows = exec_plan.rows()
    for phase, table in enumerate(("FUSED_ROWS", "PEELED_ROWS")):
        lines.append(f"{table} = (")
        lines.extend(f"{IND}{proc_rows[phase]!r}," for proc_rows in rows)
        lines.append(")")
    lines.append("")
    return "\n".join(lines)


def compile_bodies(exec_plan: ExecutionPlan) -> tuple[Callable, ...]:
    """``exec_plan``'s nest bodies alone — the code of its module, without
    the signature, sync map and row tables, and without any cache: what
    the ``vector`` backend walks over ``rows(strip)``."""
    namespace: dict = {}
    source = "\n".join(_bodies_lines(exec_plan))
    exec(compile(source, "<repro-bodies>", "exec"), namespace)  # noqa: S102
    return namespace["BODIES"]


# ---------------------------------------------------------------------------
# The walker: bodies bound to rows.
# ---------------------------------------------------------------------------


class RowWalker:
    """Nest bodies bound to a per-processor row schedule — the only code
    that walks numpy rows.

    ``fused_rows[p]``/``peeled_rows[p]`` are processor ``p``'s
    ``(nest_idx, box)`` rows (:meth:`~repro.core.execplan.ExecutionPlan.rows`
    split by phase).  Each row's body is looked up once, here, so a run
    is one ``body(A, box)`` call per row; iteration counts are summed
    here too."""

    def __init__(self, bodies: Sequence[Callable], fused_rows,
                 peeled_rows) -> None:
        self.fused = tuple(tuple((bodies[k], box) for k, box in rows)
                           for rows in fused_rows)
        self.peeled = tuple(tuple((bodies[k], box) for k, box in rows)
                            for rows in peeled_rows)
        self.fused_counts = tuple(sum(_box_volume(box) for _k, box in rows)
                                  for rows in fused_rows)
        self.peeled_counts = tuple(sum(_box_volume(box) for _k, box in rows)
                                   for rows in peeled_rows)
        # Processor-major fused rows, the barrier point (Sec. 3.4), then
        # processor-major peeled rows.
        self._rows = tuple(chain(*self.fused, *self.peeled))
        self._fused_total = sum(self.fused_counts)
        self._peeled_total = sum(self.peeled_counts)

    def run_fused(self, proc: int, A) -> int:
        for body, box in self.fused[proc]:
            body(A, box)
        return self.fused_counts[proc]

    def run_peeled(self, proc: int, A) -> int:
        for body, box in self.peeled[proc]:
            body(A, box)
        return self.peeled_counts[proc]

    def run(self, A) -> dict:
        for body, box in self._rows:
            body(A, box)
        return {"fused_iterations": self._fused_total,
                "peeled_iterations": self._peeled_total}


def _rows_valid(table, nprocs: int, nbodies: int) -> bool:
    """``table`` holds ``nprocs`` row tuples, each row naming a body."""
    return (isinstance(table, tuple) and len(table) == nprocs and all(
        isinstance(rows, tuple) and all(
            isinstance(row, tuple) and len(row) == 2
            and isinstance(row[0], int) and 0 <= row[0] < nbodies
            for row in rows)
        for rows in table))


def compile_source(source: str,
                   expected_signature: Optional[str] = None) -> JitModule:
    """Compile generated source into a :class:`JitModule`.

    Raises :class:`JitCompileError` when the source does not parse, lacks
    the expected bodies, tables or metadata, holds a table whose rows do
    not fit ``NPROCS`` and ``BODIES``, or carries a signature different
    from ``expected_signature`` (a stale or corrupted cache entry).
    """
    try:
        tag = (expected_signature or "inline")[:12]
        code = compile(source, f"<repro-jit {tag}>", "exec")
        namespace: dict = {}
        exec(code, namespace)  # noqa: S102 - our own generated source
    except Exception as exc:
        raise JitCompileError(f"generated module failed to load: {exc}") from exc
    signature = namespace.get("SIGNATURE")
    bodies = namespace.get("BODIES")
    nprocs = namespace.get("NPROCS")
    peel_deps = namespace.get("PEEL_DEPS")
    fused_rows = namespace.get("FUSED_ROWS")
    peeled_rows = namespace.get("PEELED_ROWS")
    if (not isinstance(signature, str) or not isinstance(nprocs, int)
            or not isinstance(bodies, tuple)
            or not all(callable(body) for body in bodies)):
        raise JitCompileError(
            "generated module lacks SIGNATURE/NPROCS/BODIES — produced by "
            "an older codegen")
    if (not isinstance(peel_deps, tuple) or len(peel_deps) != nprocs
            or not all(isinstance(d, tuple) for d in peel_deps)):
        raise JitCompileError(
            "generated module lacks the point-to-point sync map "
            "(PEEL_DEPS) — produced by an older codegen"
        )
    if not (_rows_valid(fused_rows, nprocs, len(bodies))
            and _rows_valid(peeled_rows, nprocs, len(bodies))):
        raise JitCompileError(
            "generated module's FUSED_ROWS/PEELED_ROWS do not hold NPROCS "
            "processors' rows naming entries of BODIES"
        )
    if expected_signature is not None and signature != expected_signature:
        raise StaleModuleError(
            f"stale generated module: signature {signature[:12]}... does "
            f"not match expected {expected_signature[:12]}..."
        )
    try:
        walker = RowWalker(bodies, fused_rows, peeled_rows)
    except (TypeError, ValueError) as exc:
        raise JitCompileError(f"generated module has a malformed box: {exc}"
                              ) from exc
    return JitModule(signature=signature, source=source, run=walker.run,
                     run_fused=walker.run_fused, run_peeled=walker.run_peeled,
                     nprocs=nprocs, peel_deps=peel_deps)


def compile_plan(exec_plan: ExecutionPlan) -> JitModule:
    """Emit and compile ``exec_plan`` without touching any cache."""
    return compile_source(emit_plan_source(exec_plan),
                          expected_signature=exec_plan.signature())
