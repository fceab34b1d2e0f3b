"""High-level fusion driver: the package's main entry point.

``fuse_sequence`` runs admissibility validation, dependence analysis and
shift-and-peel derivation, returning a :class:`FusionResult` from which
callers obtain execution plans for any processor grid, emitted source code,
and profitability advice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..ir.sequence import LoopSequence, Program
from ..ir.validate import validate_sequence
from .derive import ShiftPeelPlan, derive_shift_peel
from .execplan import ExecutionPlan, build_execution_plan
from .legality import LegalityCheck, check_legality, max_processors


@dataclass(frozen=True)
class FusionResult:
    """Outcome of planning fusion for one loop sequence."""

    plan: ShiftPeelPlan
    params_hint: tuple[str, ...]

    @property
    def sequence(self) -> LoopSequence:
        return self.plan.seq

    @property
    def depth(self) -> int:
        return self.plan.depth

    def execution_plan(
        self,
        params: Mapping[str, int],
        num_procs: int = 1,
        grid_shape: Optional[Sequence[int]] = None,
        validate: bool = True,
    ) -> ExecutionPlan:
        return build_execution_plan(
            self.plan, params, num_procs, grid_shape, validate=validate
        )

    def legality(
        self, params: Mapping[str, int], grid_shape: Sequence[int]
    ) -> LegalityCheck:
        return check_legality(self.plan, params, grid_shape)

    def max_procs(self, params: Mapping[str, int]) -> tuple[int, ...]:
        return max_processors(self.plan, params)

    def summary_line(self) -> str:
        max_shift = self.plan.max_shift
        max_peel = self.plan.max_peel
        return (
            f"{self.sequence.name}: {len(self.sequence)} nests, depth "
            f"{self.depth}, max shift/peel {max_shift}/{max_peel}"
        )


def fuse_sequence(
    seq: LoopSequence,
    params: Sequence[str] = ("n",),
    depth: Optional[int] = None,
) -> FusionResult:
    """Plan shift-and-peel fusion for ``seq``.

    Raises :class:`~repro.ir.validate.AdmissibilityError` when the sequence
    is outside the program model and
    :class:`~repro.dependence.model.NonUniformDependenceError` when a
    dependence is not uniform in a fused dimension.
    """
    fuse_depth = depth if depth is not None else seq.common_depth()
    validate_sequence(seq, params, fuse_depth).raise_if_bad()
    plan = derive_shift_peel(seq, params, fuse_depth)
    return FusionResult(plan=plan, params_hint=tuple(params))


def fuse_program(program: Program) -> list[FusionResult]:
    """Plan fusion for every sequence of a program (Table 1's "number of
    loop sequences" column counts these).  Each sequence is fused at its
    *fusable* depth — the leading parallel loop levels."""
    return [
        fuse_sequence(seq, program.params, depth=seq.fusable_depth())
        for seq in program.sequences
    ]
