"""Source emission for transformed loops (the source-to-source back end).

Three renderings of a shift-and-peel plan are produced:

* :func:`emit_direct` — the direct method of paper Fig. 11(a): one fused
  loop of guarded, subscript-shifted statements, then the iterations
  shifting moved past the block end.  This listing is the direct
  method's only home; what runs is the strip-mined schedule.
* :func:`emit_stripmined` — the strip-mined fused form of paper Fig. 12 for
  a generic processor block ``istart..iend``: a fused control loop, inner
  loops with shift/peel folded into ``min``/``max`` bounds, a barrier and
  the peeled boundary loops.
* :func:`emit_spmd` — the multidimensional SPMD form of paper Fig. 16: a
  prologue computing the block bounds and boundary-case peel-control
  variables from the processor id, then the fused nest and the peeled
  rectangles.

All three return plain text in the same DSL the parser accepts (modulo the
``min``/``max``/runtime symbols, which are for human consumption).
"""

from __future__ import annotations

from typing import Sequence

from ..core.derive import ShiftPeelPlan
from ..ir.loop import LoopNest
from ..ir.stmt import Assign

IND = "    "


def _off(base: str, delta: int) -> str:
    """Format ``base + delta`` readably (``iend``, ``iend+2``, ``iend-1``)."""
    if delta == 0:
        return base
    return f"{base}+{delta}" if delta > 0 else f"{base}{delta}"


def _stmt_text(st: Assign) -> str:
    return str(st)


def _shifted_body(nest: LoopNest, fused_vars: Sequence[str], shifts: Sequence[int]):
    """Body statements with fused vars substituted ``v -> v - shift``
    (iteration ``i`` executes at position ``i + shift``)."""
    body = nest.body
    for var, s in zip(fused_vars, shifts):
        if s:
            body = tuple(st.shift_var(var, -s) for st in body)
    return body


def emit_stripmined(
    plan: ShiftPeelPlan,
    strip: int | str = "s",
    istart: str = "istart",
    iend: str = "iend",
) -> str:
    """Fig. 12 rendering for one fused dimension (depth-1 plans).

    Deeper (non-fused) loop levels are emitted unchanged inside each strip.
    """
    if plan.depth != 1:
        raise ValueError("emit_stripmined renders depth-1 plans; use emit_spmd")
    var = plan.dims[0].var
    s = str(strip)
    lines: list[str] = []
    lines.append(f"do {var}{var} = {istart}, {iend}, {s}")
    for k, nest in enumerate(plan.seq):
        shift = plan.shift(k, 0)
        gpeel = plan.peel(k, 0)
        lo_terms = [f"{var}{var}" if shift == 0 else f"{var}{var}-{shift}"]
        hi_terms = [f"{var}{var}+{s}-{1 + shift}"]
        if gpeel or shift:
            lo_terms.append(f"{istart}+{gpeel}" if gpeel else istart)
            hi_terms.append(f"{iend}-{shift}" if shift else iend)
        lo = lo_terms[0] if len(lo_terms) == 1 else f"max({','.join(lo_terms)})"
        hi = hi_terms[0] if len(hi_terms) == 1 else f"min({','.join(hi_terms)})"
        lines.append(f"{IND}do {var} = {lo}, {hi}")
        depth_inner = nest.depth - 1
        for lvl in range(1, nest.depth):
            lp = nest.loops[lvl]
            lines.append(f"{IND * (lvl + 1)}do {lp.var} = {lp.lower}, {lp.upper}")
        for st in nest.body:
            lines.append(f"{IND * (depth_inner + 2)}{_stmt_text(st)}")
        for lvl in reversed(range(1, nest.depth)):
            lines.append(f"{IND * (lvl + 1)}end do")
        lines.append(f"{IND}end do")
    lines.append("end do")

    if any(plan.shift(k, 0) or plan.peel(k, 0) for k in range(plan.num_nests)):
        lines.append("<BARRIER>")
        for k, nest in enumerate(plan.seq):
            shift = plan.shift(k, 0)
            gpeel = plan.peel(k, 0)
            if shift == 0 and gpeel == 0:
                continue
            lo = _off(iend, 1 - shift)
            hi = _off(iend, gpeel)
            lines.append(f"do {var} = {lo}, {hi}")
            for lvl in range(1, nest.depth):
                lp = nest.loops[lvl]
                lines.append(f"{IND * lvl}do {lp.var} = {lp.lower}, {lp.upper}")
            for st in nest.body:
                lines.append(f"{IND * nest.depth}{_stmt_text(st)}")
            for lvl in reversed(range(1, nest.depth)):
                lines.append(f"{IND * lvl}end do")
            lines.append("end do")
    return "\n".join(lines)


def emit_direct(plan: ShiftPeelPlan, istart: str = "istart", iend: str = "iend") -> str:
    """Fig. 11(a) rendering: the direct method with guarded statements and
    shifted subscripts (one fused dimension)."""
    if plan.depth != 1:
        raise ValueError("emit_direct renders depth-1 plans")
    var = plan.dims[0].var
    lines = [f"do {var} = {istart}, {iend}"]
    for k, nest in enumerate(plan.seq):
        shift = plan.shift(k, 0)
        body = _shifted_body(nest, (var,), (shift,))
        for st in body:
            guard = f"if ({var} >= {istart}+{shift}) " if shift else ""
            lines.append(f"{IND}{guard}{_stmt_text(st)}")
    lines.append("end do")
    epilogue: list[str] = []
    for k, nest in enumerate(plan.seq):
        shift = plan.shift(k, 0)
        if not shift:
            continue
        epilogue.append(f"do {var} = {_off(iend, 1 - shift)}, {iend}")
        for st in nest.body:
            epilogue.append(f"{IND}{_stmt_text(st)}")
        epilogue.append("end do")
    if epilogue:
        lines.append("! iterations moved out of the fused loop by shifting")
        lines.extend(epilogue)
    return "\n".join(lines)


def emit_spmd(plan: ShiftPeelPlan, grid_names: Sequence[str] | None = None) -> str:
    """Fig. 16 rendering: prologue + fused nest + peeled rectangles.

    ``grid_names`` names the processor-grid axes (defaults to the fused
    loop variables).  The output is illustrative SPMD pseudo-code — the
    executable equivalent lives in :mod:`repro.core.execplan`.
    """
    fused_vars = [d.var for d in plan.dims]
    names = list(grid_names) if grid_names else fused_vars
    lines: list[str] = []
    # --- prologue: block bounds and boundary-case control variables ------
    for d, v in enumerate(fused_vars):
        g = names[d]
        lines += [
            f"{g}p      = <grid coordinate of this processor along {g}>",
            f"{v}blksz  = {v}_trip_count / {g.upper()}NPROCS",
            f"{v}start  = {v}_lo + {g}p * {v}blksz",
            f"{v}end    = ({g}p == {g.upper()}NPROCS-1) ? {v}_hi : {v}start + {v}blksz - 1",
            f"{v}fpeel  = ({g}p == 0) ? 0 : <peel at leading boundary>",
            f"{v}ppeel  = ({g}p == {g.upper()}NPROCS-1) ? 0 : <peel at trailing boundary>",
        ]
    lines.append("")
    # --- fused nest (strip-mined control loops) ----------------------------
    for d, v in enumerate(fused_vars):
        lines.append(f"{IND * d}do {v}{v} = {v}start, {v}end, s{v}")
    base = len(fused_vars)
    for k, nest in enumerate(plan.seq):
        for d, v in enumerate(fused_vars):
            shift = plan.shift(k, d)
            gpeel = plan.peel(k, d)
            lo = f"max({v}{v}-{shift},{v}start+{v}fpeel)" if (shift or gpeel) else f"{v}{v}"
            hi = (
                f"min({v}{v}+s{v}-{1 + shift},{v}end-{shift})"
                if shift
                else f"min({v}{v}+s{v}-1,{v}end)"
            )
            lines.append(f"{IND * (base + d)}do {v} = {lo}, {hi}")
        for st in nest.body:
            lines.append(f"{IND * (base + len(fused_vars))}{_stmt_text(st)}")
        for d in reversed(range(len(fused_vars))):
            lines.append(f"{IND * (base + d)}end do")
    for d in reversed(range(len(fused_vars))):
        lines.append(f"{IND * d}end do")
    lines.append("<BARRIER>")
    # --- peeled rectangles (Fig. 16's post-barrier loops) ------------------
    for k, nest in enumerate(plan.seq):
        if all(
            plan.shift(k, d) == 0 and plan.peel(k, d) == 0
            for d in range(plan.depth)
        ):
            continue
        for pivot in range(plan.depth):
            v = fused_vars[pivot]
            shift = plan.shift(k, pivot)
            gpeel = plan.peel(k, pivot)
            if shift == 0 and gpeel == 0:
                continue
            hdr: list[str] = []
            for d2 in range(plan.depth):
                v2 = fused_vars[d2]
                s2 = plan.shift(k, d2)
                if d2 < pivot:
                    hdr.append(f"do {v2} = {v2}start+{v2}fpeel, {v2}end-{s2}")
                elif d2 == pivot:
                    hdr.append(
                        f"do {v2} = {_off(f'{v2}end', 1 - s2)}, {v2}end+{v2}ppeel"
                    )
                else:
                    hdr.append(f"do {v2} = {v2}start+{v2}fpeel, {v2}end+{v2}ppeel")
            for d2, h in enumerate(hdr):
                lines.append(f"{IND * d2}{h}")
            for st in nest.body:
                lines.append(f"{IND * plan.depth}{_stmt_text(st)}")
            for d2 in reversed(range(plan.depth)):
                lines.append(f"{IND * d2}end do")
    return "\n".join(lines)
