"""Cache partitioning (Fig. 19), compatibility analysis, padding baseline."""

from .advisor import LayoutPlan, plan_layout
from .compatibility import (
    CompatibilityReport,
    all_compatible,
    analyze_compatibility,
    classify_pair,
)
from .greedy import (
    PartitionAssignment,
    PartitionedLayout,
    greedy_memory_layout,
    max_strip_elements,
    partitioned_layout_from_decls,
)
from .padding import (
    padded_layout,
    padding_overhead_bytes,
    padding_sweep,
)

__all__ = [
    "CompatibilityReport",
    "LayoutPlan",
    "PartitionAssignment",
    "PartitionedLayout",
    "all_compatible",
    "analyze_compatibility",
    "classify_pair",
    "greedy_memory_layout",
    "max_strip_elements",
    "padded_layout",
    "padding_overhead_bytes",
    "padding_sweep",
    "partitioned_layout_from_decls",
    "plan_layout",
]
