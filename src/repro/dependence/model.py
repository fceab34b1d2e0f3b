"""Dependence model (paper Sec. 2.1 and Appendix Defs. 3/4).

Inter-loop dependences are classified as flow, anti or output, carry an
integer distance vector over the fused loop dimensions, and are *uniform*
when that distance is the same for all iterations.  Shift-and-peel consumes
only uniform distances; non-uniform relations are represented explicitly so
the driver can refuse to transform (rather than silently miscompile).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..ir.access import ArrayRef


class DepKind(enum.Enum):
    """Flow (true), anti, or output dependence."""

    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def classify(source_is_write: bool, sink_is_write: bool) -> DepKind:
    if source_is_write and sink_is_write:
        return DepKind.OUTPUT
    if source_is_write:
        return DepKind.FLOW
    if sink_is_write:
        return DepKind.ANTI
    raise ValueError("read-read pairs are reuse, not dependence")


@dataclass(frozen=True)
class Dependence:
    """A uniform inter-loop dependence ``S_src(i) delta S_dst(i + d)``.

    ``src``/``dst`` index loop nests within the analyzed sequence
    (``src < dst`` — sources always precede sinks in an admissible
    sequence).  ``distance`` is the per-fused-dimension distance ``d``:
    positive = forward (potentially serializing), negative = backward
    (fusion-preventing), zero = loop-independent after fusion.
    """

    src: int
    dst: int
    kind: DepKind
    array: str
    distance: tuple[int, ...]
    src_ref: ArrayRef
    dst_ref: ArrayRef

    def __post_init__(self) -> None:
        if self.src >= self.dst:
            raise ValueError("inter-loop dependences must flow forward in the sequence")

    @property
    def is_backward(self) -> bool:
        """Fusion-preventing: first nonzero distance component negative."""
        for d in self.distance:
            if d < 0:
                return True
            if d > 0:
                return False
        return False

    @property
    def is_forward(self) -> bool:
        for d in self.distance:
            if d > 0:
                return True
            if d < 0:
                return False
        return False

    def direction(self) -> tuple[int, ...]:
        """Sign vector of the distance (the paper's sig(d))."""
        return tuple((d > 0) - (d < 0) for d in self.distance)

    def __str__(self) -> str:
        return (
            f"{self.kind} {self.array}: L{self.src + 1}({self.src_ref}) -> "
            f"L{self.dst + 1}({self.dst_ref}) d={self.distance}"
        )


class NonUniformDependenceError(ValueError):
    """Raised when a dependence between candidate nests is not uniform in the
    fused dimensions (shift-and-peel is then inapplicable, Sec. 3.3)."""

    def __init__(self, array: str, src: int, dst: int, reason: str):
        super().__init__(
            f"non-uniform dependence on {array!r} between L{src + 1} and "
            f"L{dst + 1}: {reason}"
        )
        self.array = array
        self.src = src
        self.dst = dst
        self.reason = reason


@dataclass(frozen=True)
class DependenceSummary:
    """All uniform dependences of a sequence plus bookkeeping counters."""

    deps: tuple[Dependence, ...]
    fused_vars: tuple[str, ...]
    pairs_tested: int = 0
    independent_pairs: int = 0

    def between(self, src: int, dst: int) -> tuple[Dependence, ...]:
        return tuple(d for d in self.deps if d.src == src and d.dst == dst)

    def backward(self) -> tuple[Dependence, ...]:
        return tuple(d for d in self.deps if d.is_backward)

    def forward(self) -> tuple[Dependence, ...]:
        return tuple(d for d in self.deps if d.is_forward)

    def edge_count(self) -> int:
        return len(self.deps)
