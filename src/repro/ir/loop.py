"""Loop nests: the unit of the program model (paper Fig. 2).

A :class:`LoopNest` is a perfect nest of loops (outermost first) around a
straight-line body of assignments.  Loops carry inclusive integer bounds
with step 1 (Def. 1 of the paper) expressed as affine functions of symbolic
parameters, and a ``parallel`` flag (``doall`` vs ``do``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from .expr import Affine, as_affine
from .stmt import Assign


@dataclass(frozen=True)
class Loop:
    """One loop level: ``do[all] var = lower, upper``."""

    var: str
    lower: Affine
    upper: Affine
    parallel: bool = True

    @staticmethod
    def make(
        var: str,
        lower: "Affine | int | str",
        upper: "Affine | int | str",
        parallel: bool = True,
    ) -> "Loop":
        return Loop(var, as_affine(lower), as_affine(upper), parallel)

    def trip_count(self, params: Mapping[str, int]) -> int:
        return max(0, self.upper.eval(params) - self.lower.eval(params) + 1)

    def bounds(self, params: Mapping[str, int]) -> tuple[int, int]:
        return self.lower.eval(params), self.upper.eval(params)

    def __str__(self) -> str:
        kw = "doall" if self.parallel else "do"
        return f"{kw} {self.var} = {self.lower}, {self.upper}"


@dataclass(frozen=True)
class LoopNest:
    """A perfect loop nest with a straight-line body.

    ``loops`` is ordered outermost-first.  ``name`` identifies the nest in
    diagnostics and in the dependence-chain graphs (``L1``, ``L2``, ...).
    """

    loops: tuple[Loop, ...]
    body: tuple[Assign, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.loops:
            raise ValueError("loop nest must have at least one loop")
        if not self.body:
            raise ValueError("loop nest must have a non-empty body")
        seen: set[str] = set()
        for lp in self.loops:
            if lp.var in seen:
                raise ValueError(f"duplicate loop variable {lp.var!r}")
            seen.add(lp.var)

    # -- structural queries -------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(lp.var for lp in self.loops)

    def loop(self, var: str) -> Loop:
        for lp in self.loops:
            if lp.var == var:
                return lp
        raise KeyError(var)

    def arrays_read(self) -> set[str]:
        return {r.array for st in self.body for r in st.reads()}

    def arrays_written(self) -> set[str]:
        return {r.array for st in self.body for r in st.writes()}

    def arrays(self) -> set[str]:
        return self.arrays_read() | self.arrays_written()

    def refs(self):
        for st in self.body:
            yield from st.refs()

    def parallel_depth(self) -> int:
        """Number of leading parallel loops (``k`` in the paper's model)."""
        count = 0
        for lp in self.loops:
            if not lp.parallel:
                break
            count += 1
        return count

    # -- transformation helpers ----------------------------------------------

    def rename_loop_vars(self, mapping: Mapping[str, str]) -> "LoopNest":
        loops = tuple(
            Loop(
                mapping.get(lp.var, lp.var),
                lp.lower.rename(mapping),
                lp.upper.rename(mapping),
                lp.parallel,
            )
            for lp in self.loops
        )
        body = tuple(st.rename_vars(mapping) for st in self.body)
        return LoopNest(loops, body, self.name)

    def with_name(self, name: str) -> "LoopNest":
        return replace(self, name=name)

    # -- enumeration -----------------------------------------------------------

    def iteration_space(self, params: Mapping[str, int]) -> Iterator[tuple[int, ...]]:
        """Yield iteration vectors in lexicographic execution order."""
        ranges = [
            range(lp.lower.eval(params), lp.upper.eval(params) + 1)
            for lp in self.loops
        ]
        return itertools.product(*ranges)

    def iteration_count(self, params: Mapping[str, int]) -> int:
        total = 1
        for lp in self.loops:
            total *= lp.trip_count(params)
        return total

    def __str__(self) -> str:
        from .printer import format_nest

        return format_nest(self)
