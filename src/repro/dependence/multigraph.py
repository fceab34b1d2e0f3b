"""Dependence-chain multigraphs and their reductions (paper Figs. 9/10).

One vertex per loop nest, one edge per uniform inter-loop dependence,
weighted by its distance in a chosen fused dimension.  The multigraph is
reduced to a simple *chain graph* by keeping, per vertex pair, the minimum
edge weight (for deriving shifts) or the maximum (for deriving peels); both
reductions preserve the structure of the dependence chains (Sec. 3.3).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .model import DependenceSummary


@dataclass(frozen=True)
class Edge:
    """A weighted edge ``src -> dst`` of a dependence-chain (multi)graph."""

    src: int
    dst: int
    weight: int
    label: str = ""

    def __str__(self) -> str:
        tag = f" [{self.label}]" if self.label else ""
        return f"L{self.src + 1} -({self.weight})-> L{self.dst + 1}{tag}"


@dataclass(frozen=True)
class ChainGraph:
    """A simple acyclic graph (one edge per ordered vertex pair)."""

    num_vertices: int
    edges: tuple[Edge, ...]

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.src == v)

    def topological_order(self) -> range:
        """Vertices in topological order.  Edges always point from earlier
        to later nests, so program order *is* a topological order (the paper
        notes no sort is needed)."""
        return range(self.num_vertices)


@dataclass(frozen=True)
class DependenceChainMultigraph:
    """The multigraph of Fig. 9(b)/10(a): possibly multiple edges per pair."""

    num_vertices: int
    edges: tuple[Edge, ...]

    @staticmethod
    def from_summary(
        summary: DependenceSummary, dim: int = 0, num_vertices: int | None = None
    ) -> "DependenceChainMultigraph":
        nv = num_vertices
        if nv is None:
            nv = 1 + max(
                (max(d.src, d.dst) for d in summary.deps), default=0
            )
        edges = tuple(
            Edge(d.src, d.dst, d.distance[dim], label=f"{d.kind}:{d.array}")
            for d in summary.deps
        )
        return DependenceChainMultigraph(nv, edges)

    def edge_count(self) -> int:
        return len(self.edges)

    def between(self, src: int, dst: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.src == src and e.dst == dst)

    def _reduce(self, pick) -> ChainGraph:
        grouped: dict[tuple[int, int], list[int]] = defaultdict(list)
        for e in self.edges:
            grouped[(e.src, e.dst)].append(e.weight)
        reduced = tuple(
            Edge(src, dst, pick(weights))
            for (src, dst), weights in sorted(grouped.items())
        )
        return ChainGraph(self.num_vertices, reduced)

    def reduce_min(self) -> ChainGraph:
        """Per-pair minimum weight: the reduction used to derive *shifts*
        (negative minima dictate how far the sink nest must be shifted)."""
        return self._reduce(min)

    def reduce_max(self) -> ChainGraph:
        """Per-pair maximum weight: the reduction used to derive *peels*."""
        return self._reduce(max)

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.edges)


def multigraphs_per_dim(
    summary: DependenceSummary, num_vertices: int
) -> list[DependenceChainMultigraph]:
    """One multigraph per fused dimension, outermost first (the technique is
    applied dimension by dimension, working inward — Sec. 3.3)."""
    return [
        DependenceChainMultigraph.from_summary(summary, dim, num_vertices)
        for dim in range(len(summary.fused_vars))
    ]
