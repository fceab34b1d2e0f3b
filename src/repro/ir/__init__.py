"""Loop-nest intermediate representation for the program model of the paper.

Public surface:

* :class:`~repro.ir.expr.Affine` / :class:`~repro.ir.expr.BoundExpr` — affine
  index arithmetic.
* :class:`~repro.ir.access.ArrayRef` — subscripted array references.
* :mod:`~repro.ir.stmt` — expression trees and assignments.
* :class:`~repro.ir.loop.Loop` / :class:`~repro.ir.loop.LoopNest` — loop nests.
* :class:`~repro.ir.sequence.LoopSequence` / :class:`~repro.ir.sequence.Program`.
* :mod:`~repro.ir.validate` — admissibility checks (Appendix Def. 1).
* :mod:`~repro.ir.printer` — Fortran-like pretty printer.
"""

from .access import ArrayRef, compatible
from .expr import Affine, BoundExpr, as_affine
from .loop import Loop, LoopNest
from .printer import format_nest, format_program, format_sequence, side_by_side
from .sequence import ArrayDecl, LoopSequence, Program, single_sequence_program
from .stmt import Assign, BinOp, Const, Expr, Load, UnaryOp, as_expr, assign, load
from .validate import (
    AdmissibilityError,
    AdmissibilityReport,
    canonical_fused_vars,
    validate_program,
    validate_sequence,
)

__all__ = [
    "Affine",
    "ArrayDecl",
    "ArrayRef",
    "Assign",
    "AdmissibilityError",
    "AdmissibilityReport",
    "BinOp",
    "BoundExpr",
    "Const",
    "Expr",
    "Load",
    "Loop",
    "LoopNest",
    "LoopSequence",
    "Program",
    "UnaryOp",
    "as_affine",
    "as_expr",
    "assign",
    "canonical_fused_vars",
    "compatible",
    "format_nest",
    "format_program",
    "format_sequence",
    "load",
    "side_by_side",
    "single_sequence_program",
    "validate_program",
    "validate_sequence",
]
