"""Lower an :class:`~repro.core.execplan.ExecutionPlan` to numpy source.

The fast vectorized backend (:mod:`repro.runtime.fastexec`) interprets a
plan structurally on every call: it walks expression trees, rebuilds
broadcasting environments and re-renders slice objects box by box.  The
shift-and-peel construction of the paper is, however, explicitly a *code
generation* scheme (Figs. 11-16) — the plan is static, so all of that
interpretation can happen once.  This module renders a plan as a
self-contained Python module:

* one function per processor phase (``_fused_p<i>`` / ``_peeled_p<i>``),
  mirroring the SPMD structure — fused functions, a barrier comment, then
  peeled functions;
* every fused box and peeled rectangle rendered as *literal* numpy
  indexing: vectorizable dimensions (per the same
  :func:`~repro.runtime.fastexec.vector_dims` legality analysis the
  vector backend uses) become concrete slices or ``np.arange`` index
  grids with the plan's parameters folded into the constants, and the
  remaining dimensions become ordinary scalar ``for`` loops in original
  order;
* iteration counters precomputed as module constants, since box volumes
  are known at generation time.

A module lowers the whole-box schedule only
(:meth:`~repro.core.execplan.ExecutionPlan.rows` at ``strip=None``) and
serves every strip: strip-mining a legal plan changes no stored bit, and
printing each tile as a box would grow the source with the tiles.

The generated module is compiled with :func:`compile`/``exec`` into a
:class:`JitModule` whose ``run(arrays)`` callable returns the same
counters as :func:`~repro.runtime.fastexec.run_vector` and is bit-identical
to the interpreter whenever the plan is legal (it performs exactly the
whole-array operations the vector backend performs, in the same order).
"""

from __future__ import annotations

from dataclasses import dataclass
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
CODEGEN_VERSION = 7

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
    """A compiled plan: structural signature, source text and entry points.

    ``run`` executes the whole plan serially (every processor's fused
    function, the barrier point, every processor's peeled function).
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


def _split_subscript(sub: Affine, nest: LoopNest,
                     vvar_dim: Mapping[str, int], params,
                     error: type[Exception] = JitEmitError):
    """Fold ``sub`` into (const, scalar terms, vector-dim terms): the
    plan's parameters are concrete ints folded into the constant, the
    nest's vectorized variables map to their dimension (``vvar_dim``) and
    its other loop variables stay symbolic — the static half of
    ``fastexec._subscript_index``, shared by both emitters."""
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


class _BoxCtx:
    """Static rendering context for one (nest, box) pair.

    The codegen analogue of ``fastexec._BoxEnv``: parameters are concrete
    ints folded into subscript constants, scalar (non-vectorized) loop
    variables stay symbolic (they become generated ``for`` variables), and
    each vectorized dimension renders as a literal slice or an
    ``np.arange`` grid shaped for broadcasting.
    """

    def __init__(self, nest: LoopNest, box, vdims: tuple[int, ...],
                 params) -> None:
        self.nest = nest
        self.box = box
        self.vdims = vdims
        self.rank_of = {d: r for r, d in enumerate(vdims)}
        self.shape = tuple(box[d][1] - box[d][0] + 1 for d in vdims)
        self.params = params
        self.vvar_dim = {nest.loops[d].var: d for d in vdims}
        self.grids: set[int] = set()

    def part(self, sub: Affine):
        """One subscript as ('int'|'slice'|'grid', ...) like fastexec."""
        const, terms, vds = _split_subscript(sub, self.nest, self.vvar_dim,
                                             self.params)
        if not vds:
            return ("int", const, terms, None)
        if len(vds) == 1 and vds[0][1] == 1:
            return ("slice", const, terms, vds[0][0])
        return ("grid", const, terms, tuple(vds))

    @staticmethod
    def _sliceable(parts) -> bool:
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
        lo, hi = self.box[d]
        start = _linear_src(const + lo, terms)
        stop = _linear_src(const + hi + 1, terms)
        return f"{start}:{stop}"

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
        # A bare load can be a view of the written array; copy it before
        # the store exactly like fastexec's may_share_memory guard.
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
        # the value's axes in subscript order (fastexec._store_box).
        lines = [f"_v = {rhs_src}"]
        if needs_copy:
            lines.append("_v = _v.copy()")
        lines.append(
            f"_v = np.broadcast_to(_v, {self.shape!r})"
            f".transpose({tuple(ranks)})"
        )
        lines.append(f"{target} = _v")
        return lines

    def grid_lines(self) -> list[str]:
        out = []
        for d in sorted(self.grids):
            lo, hi = self.box[d]
            shape = [1] * len(self.vdims)
            shape[self.rank_of[d]] = hi - lo + 1
            out.append(
                f"_g{d} = np.arange({lo}, {hi + 1}).reshape({tuple(shape)})"
            )
        return out


def _box_volume(box) -> int:
    total = 1
    for lo, hi in box:
        total *= max(0, hi - lo + 1)
    return total


def emit_box(nest: LoopNest, box, params,
             vdims: Optional[tuple[int, ...]] = None) -> list[str]:
    """Source lines executing every iteration of ``nest`` inside ``box``
    (the codegen analogue of :func:`~repro.runtime.fastexec.exec_box`):
    vectorized dimensions as literal indexing, the rest as scalar loops
    in lexicographic order."""
    if vdims is None:
        from ..runtime.fastexec import vector_dims

        vdims = vector_dims(nest)
    sdims = [d for d in range(nest.depth) if d not in vdims]
    ctx = _BoxCtx(nest, box, vdims, params)
    stmt_blocks = [ctx.stmt_lines(st) for st in nest.body]
    out = ctx.grid_lines()
    depth = 0
    for d in sdims:
        lo, hi = box[d]
        var = nest.loops[d].var
        out.append(f"{IND * depth}for v_{var} in range({lo}, {hi + 1}):")
        depth += 1
    for block in stmt_blocks:
        out.extend(f"{IND * depth}{line}" for line in block)
    return out


# ---------------------------------------------------------------------------
# Whole-plan emission.
# ---------------------------------------------------------------------------


def _phase_function(name: str, rows, nests: Sequence[LoopNest], params,
                    nest_vdims) -> tuple[list[str], int]:
    """Emit one processor-phase function from its ``(nest_idx, box)``
    rows.  Returns (source lines, iteration count); a phase with no rows
    still gets a function so the run loop stays uniform."""
    body: list[str] = []
    count = 0
    arrays: set[str] = set()
    for nest_idx, box in rows:
        nest = nests[nest_idx]
        count += _box_volume(box)
        arrays |= nest.arrays()
        body.append(f"{IND}# nest {nest_idx} box={box}")
        body.extend(f"{IND}{line}" for line in
                    emit_box(nest, box, params, vdims=nest_vdims[nest_idx]))
    header = [f"def {name}(A):"]
    binds = [f"{IND}a_{a} = A['{a}']" for a in sorted(arrays)]
    if not body:
        body = [f"{IND}pass"]
    return header + binds + body, count


def emit_plan_source(exec_plan: ExecutionPlan) -> str:
    """Render ``exec_plan`` as a self-contained Python/numpy module.

    The module exposes ``run(arrays)`` with the vector backend's phase
    structure: every processor's fused function, then (after the barrier
    point) every processor's peeled function, each printing that
    processor's whole-box :meth:`~repro.core.execplan.ExecutionPlan.rows`
    as literal boxes.
    """
    from ..runtime.fastexec import vector_dims

    nests = list(exec_plan.plan.seq)
    params = exec_plan.params
    nest_vdims = [vector_dims(nest) for nest in nests]
    signature = exec_plan.signature()

    lines: list[str] = [
        '"""Generated by repro.codegen.emitpy — do not edit."""',
        f"# codegen-version: {CODEGEN_VERSION}",
        f'SIGNATURE = "{signature}"',
        "",
        "import numpy as np",
        "",
    ]
    fused_names: list[str] = []
    peeled_names: list[str] = []
    fused_counts: list[int] = []
    peeled_counts: list[int] = []
    for p, (fused_rows, peeled_rows) in enumerate(exec_plan.rows()):
        for phase, rows, names, counts in (
                ("fused", fused_rows, fused_names, fused_counts),
                ("peeled", peeled_rows, peeled_names, peeled_counts)):
            name = f"_{phase}_p{p}"
            src, count = _phase_function(name, rows, nests, params,
                                         nest_vdims)
            lines.extend(src)
            lines.append("")
            names.append(name)
            counts.append(count)

    lines.append(f"NPROCS = {len(exec_plan.processors)}")
    lines.append("# Point-to-point sync map: PEEL_DEPS[p] lists the")
    lines.append("# processors whose fused phase must complete before")
    lines.append("# processor p's peeled phase may start (flow, anti and")
    lines.append("# output dependences across the barrier point).")
    lines.append(f"PEEL_DEPS = {exec_plan.peel_deps!r}")
    lines.append(f"FUSED_COUNTS = {tuple(fused_counts)!r}")
    lines.append(f"PEELED_COUNTS = {tuple(peeled_counts)!r}")
    lines.append(f"FUSED_ITERATIONS = {sum(fused_counts)}")
    lines.append(f"PEELED_ITERATIONS = {sum(peeled_counts)}")
    lines.append(f"_FUSED_FNS = ({', '.join(fused_names)},)")
    lines.append(f"_PEELED_FNS = ({', '.join(peeled_names)},)")
    lines.append("")
    # Per-processor entry points: what one SPMD worker executes on its
    # side of the barrier (the mpjit pool calls exactly these).
    lines.append("def run_fused(proc, A):")
    lines.append(f"{IND}_FUSED_FNS[proc](A)")
    lines.append(f"{IND}return FUSED_COUNTS[proc]")
    lines.append("")
    lines.append("def run_peeled(proc, A):")
    lines.append(f"{IND}_PEELED_FNS[proc](A)")
    lines.append(f"{IND}return PEELED_COUNTS[proc]")
    lines.append("")
    lines.append("def run(A):")
    for name in fused_names:
        lines.append(f"{IND}{name}(A)")
    lines.append(f"{IND}# ---- barrier (Sec. 3.4) ----")
    for name in peeled_names:
        lines.append(f"{IND}{name}(A)")
    lines.append(
        f"{IND}return {{'fused_iterations': FUSED_ITERATIONS, "
        f"'peeled_iterations': PEELED_ITERATIONS}}"
    )
    lines.append("")
    return "\n".join(lines)


def compile_source(source: str,
                   expected_signature: Optional[str] = None) -> JitModule:
    """Compile generated source into a :class:`JitModule`.

    Raises :class:`JitCompileError` when the source does not parse, lacks
    the expected entry points, or carries a signature different from
    ``expected_signature`` (a stale or corrupted cache entry).
    """
    try:
        tag = (expected_signature or "inline")[:12]
        code = compile(source, f"<repro-jit {tag}>", "exec")
        namespace: dict = {}
        exec(code, namespace)  # noqa: S102 - our own generated source
    except JitCompileError:
        raise
    except Exception as exc:
        raise JitCompileError(f"generated module failed to load: {exc}") from exc
    signature = namespace.get("SIGNATURE")
    run = namespace.get("run")
    run_fused = namespace.get("run_fused")
    run_peeled = namespace.get("run_peeled")
    nprocs = namespace.get("NPROCS")
    peel_deps = namespace.get("PEEL_DEPS")
    if not isinstance(signature, str) or not callable(run):
        raise JitCompileError("generated module lacks SIGNATURE/run")
    if (not callable(run_fused) or not callable(run_peeled)
            or not isinstance(nprocs, int)):
        raise JitCompileError(
            "generated module lacks the per-processor entry points "
            "(run_fused/run_peeled/NPROCS) — produced by an older codegen"
        )
    if (not isinstance(peel_deps, tuple) or len(peel_deps) != nprocs
            or not all(isinstance(d, tuple) for d in peel_deps)):
        raise JitCompileError(
            "generated module lacks the point-to-point sync map "
            "(PEEL_DEPS) — produced by an older codegen"
        )
    if expected_signature is not None and signature != expected_signature:
        raise StaleModuleError(
            f"stale generated module: signature {signature[:12]}... does "
            f"not match expected {expected_signature[:12]}..."
        )
    return JitModule(signature=signature, source=source, run=run,
                     run_fused=run_fused, run_peeled=run_peeled,
                     nprocs=nprocs, peel_deps=peel_deps)


def compile_plan(exec_plan: ExecutionPlan) -> JitModule:
    """Emit and compile ``exec_plan`` without touching any cache."""
    return compile_source(emit_plan_source(exec_plan),
                          expected_signature=exec_plan.signature())
