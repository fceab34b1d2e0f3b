"""Intra-array padding: the conventional baseline cache partitioning is
compared against (paper Sec. 4, Figs. 18/20).

Padding grows the innermost array dimension by a handful of elements to
perturb the mapping of data into the cache.  It helps against
self-conflicts when extents are powers of two, but its effect on
*cross*-conflicts among many arrays is erratic — which is exactly what the
padding-sweep experiments demonstrate.
"""

from __future__ import annotations

from typing import Sequence

from ..machine.memory import MemoryLayout, contiguous_layout


def padded_layout(
    arrays: Sequence[tuple[str, Sequence[int]]],
    pad_elems: int,
    elem_size: int = 8,
    base: int = 0,
) -> MemoryLayout:
    """Contiguous layout with every array's innermost dimension padded by
    ``pad_elems`` elements."""
    return contiguous_layout(
        arrays, elem_size=elem_size, pad_inner=pad_elems, base=base
    )


def padding_sweep(pad_max: int = 21, step: int = 2) -> list[int]:
    """The padding amounts swept in Figs. 18/20: 1, 3, 5, ..., 21."""
    return list(range(1, pad_max + 1, step))


def padding_overhead_bytes(
    arrays: Sequence[tuple[str, Sequence[int]]], pad_elems: int, elem_size: int = 8
) -> int:
    """Memory wasted by padding: pad columns times the product of the outer
    dimensions, summed over arrays."""
    total = 0
    for _, shape in arrays:
        outer = 1
        for extent in shape[:-1]:
            outer *= int(extent)
        total += outer * pad_elems * elem_size
    return total
