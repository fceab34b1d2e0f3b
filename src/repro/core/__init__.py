"""Shift-and-peel: derivation, legality, scheduling and execution planning."""

from .derive import DimensionPlan, ShiftPeelPlan, derive_shift_peel
from .execplan import (
    ExecutionPlan,
    PeeledRect,
    ProcessorPlan,
    StripError,
    build_execution_plan,
    verify_coverage,
)
from .fuse import FusionResult, fuse_program, fuse_sequence
from .grouping import FusableGroup, GroupingResult, group_fusable
from .legality import (
    FusionLegalityError,
    LegalityCheck,
    check_legality,
    iteration_count_thresholds,
    max_processors,
)
from .profitability import (
    FusionAdvice,
    evaluate_profitability,
    peel_overhead_fraction,
    shared_data_bytes,
)
from .schedule import BlockSchedule, GridSchedule, factor_grid
from .traversal import traverse_for_peels, traverse_for_shifts

__all__ = [
    "BlockSchedule",
    "DimensionPlan",
    "ExecutionPlan",
    "FusionAdvice",
    "FusionLegalityError",
    "FusableGroup",
    "FusionResult",
    "GridSchedule",
    "GroupingResult",
    "LegalityCheck",
    "PeeledRect",
    "ProcessorPlan",
    "ShiftPeelPlan",
    "StripError",
    "build_execution_plan",
    "check_legality",
    "derive_shift_peel",
    "evaluate_profitability",
    "factor_grid",
    "fuse_program",
    "fuse_sequence",
    "group_fusable",
    "iteration_count_thresholds",
    "max_processors",
    "peel_overhead_fraction",
    "shared_data_bytes",
    "traverse_for_peels",
    "traverse_for_shifts",
    "verify_coverage",
]
