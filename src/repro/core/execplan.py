"""Fused/peeled iteration sets per processor (Appendix Def. 5, Fig. 16).

Given a :class:`~repro.core.derive.ShiftPeelPlan`, a concrete problem size
and a processor grid, this module computes for every processor:

* the *fused* iteration box of each nest — original iterations executed
  inside the fused loop by that processor, and
* the *peeled* rectangles of each nest — boundary iterations executed after
  the single barrier, grouped per processor exactly as in Sec. 3.4 (the
  shifted tail of the own block plus the head peeled from the adjacent
  block, so each group is dependence-closed).

Semantics of shifting: a nest with shift ``s`` executes original iteration
``i`` at fused position ``t = i + s`` (it lags the first nest), which makes
every backward dependence of distance ``-s`` loop-independent.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from .derive import ShiftPeelPlan
from .legality import check_legality, domain_hull
from .schedule import BlockSchedule, GridSchedule, factor_grid

Range = tuple[int, int]  # inclusive (lo, hi); empty when hi < lo


def range_empty(r: Range) -> bool:
    return r[1] < r[0]


def range_len(r: Range) -> int:
    return max(0, r[1] - r[0] + 1)


def clamp(r: Range, lo: int, hi: int) -> Range:
    return (max(r[0], lo), min(r[1], hi))


@dataclass(frozen=True)
class PeeledRect:
    """One rectangle of peeled iterations of nest ``nest_idx``."""

    nest_idx: int
    ranges: tuple[Range, ...]

    def is_empty(self) -> bool:
        return any(range_empty(r) for r in self.ranges)

    def iteration_count(self) -> int:
        total = 1
        for r in self.ranges:
            total *= range_len(r)
        return total

    def iterations(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(r[0], r[1] + 1) for r in self.ranges))


@dataclass(frozen=True)
class ProcessorPlan:
    """Work assigned to one processor of the grid."""

    coord: tuple[int, ...]
    block: tuple[Range, ...]  # fused-position block owned (Def. 5)
    fused: tuple[tuple[Range, ...], ...]  # per nest: fused box (original iters)
    peeled: tuple[PeeledRect, ...]

    def fused_count(self, nest_idx: int) -> int:
        total = 1
        for r in self.fused[nest_idx]:
            total *= range_len(r)
        return total

    def peeled_count(self) -> int:
        return sum(rect.iteration_count() for rect in self.peeled)


@dataclass(frozen=True)
class ExecutionPlan:
    """The complete parallel execution structure of a fused sequence."""

    plan: ShiftPeelPlan
    params: dict[str, int]
    grid: GridSchedule
    processors: tuple[ProcessorPlan, ...]

    @property
    def num_procs(self) -> int:
        return self.grid.num_procs

    def processor(self, coord: Sequence[int]) -> ProcessorPlan:
        return self.processors[self.grid.flat_index(coord)]

    def total_peeled(self) -> int:
        return sum(p.peeled_count() for p in self.processors)

    def total_fused(self) -> int:
        return sum(
            p.fused_count(k)
            for p in self.processors
            for k in range(self.plan.num_nests)
        )

    @cached_property
    def peel_deps(self) -> tuple[tuple[int, ...], ...]:
        """:func:`~repro.core.syncdeps.peel_predecessors` of this plan,
        computed once: both emitters embed it in every module they render
        (the plan is frozen, so the answer cannot change)."""
        from .syncdeps import peel_predecessors

        return peel_predecessors(self)

    def signature(self, strip: Optional[int] = None) -> str:
        """Structural sha256 of everything execution depends on.

        Two plans share a signature exactly when they execute identically:
        the kernel IR (loop bounds, ``doall`` flags, statement bodies), the
        bound parameters, the derived shifts/peels, the processor grid and
        every processor's concrete fused boxes and peeled rectangles, plus
        the ``strip`` setting.  This is the key of the jit plan cache
        (:mod:`repro.runtime.plancache`): a cache hit replays generated
        code, so any structural difference — including hand-mutated
        processor boxes, as the degenerate-range tests build — must change
        the digest.
        """
        digest = hashlib.sha256()

        def feed(text: str) -> None:
            digest.update(text.encode())
            digest.update(b"\x1f")

        feed("repro-plan-signature-v1")
        plan = self.plan
        for k, nest in enumerate(plan.seq):
            feed(f"nest {k}")
            for lp in nest.loops:
                feed(f"loop {lp.var} {lp.lower} {lp.upper} {int(lp.parallel)}")
            for st in nest.body:
                feed(f"stmt {st}")
        feed(f"depth {plan.depth}")
        for dim in plan.dims:
            feed(f"dim {dim.var} shifts={dim.shifts} peels={dim.peels}")
        for name, value in sorted(self.params.items()):
            feed(f"param {name}={value}")
        feed(f"grid {self.grid.grid_shape}")
        for proc in self.processors:
            feed(f"proc {proc.coord} block={proc.block}")
            for box in proc.fused:
                feed(f"fused {box}")
            for rect in proc.peeled:
                feed(f"peel {rect.nest_idx} {rect.ranges}")
        feed(f"strip {strip}")
        return digest.hexdigest()


def _nest_bounds(plan: ShiftPeelPlan, params, nest_idx: int, dim: int) -> Range:
    lp = plan.seq[nest_idx].loops[dim]
    return lp.lower.eval(params), lp.upper.eval(params)


def _fused_range(
    plan: ShiftPeelPlan,
    params,
    sched: BlockSchedule,
    p: int,
    nest_idx: int,
    dim: int,
) -> Range:
    """Original iterations of nest ``nest_idx`` executed in the fused loop by
    block ``p`` along dimension ``dim``."""
    lo_k, hi_k = _nest_bounds(plan, params, nest_idx, dim)
    shift = plan.shift(nest_idx, dim)
    gpeel = plan.peel(nest_idx, dim)
    start = lo_k if p == 1 else max(lo_k, sched.istart(p) + gpeel)
    end = hi_k if p == sched.num_blocks else min(hi_k, sched.iend(p) - shift)
    return (start, end)


def _peel_range(
    plan: ShiftPeelPlan,
    params,
    sched: BlockSchedule,
    p: int,
    nest_idx: int,
    dim: int,
) -> Range:
    """Boundary iterations peeled between blocks ``p`` and ``p+1``
    (assigned to processor ``p``, Sec. 3.4); empty for the last block."""
    if p == sched.num_blocks:
        return (0, -1)
    lo_k, hi_k = _nest_bounds(plan, params, nest_idx, dim)
    shift = plan.shift(nest_idx, dim)
    gpeel = plan.peel(nest_idx, dim)
    return clamp((sched.iend(p) + 1 - shift, sched.iend(p) + gpeel), lo_k, hi_k)


def build_execution_plan(
    plan: ShiftPeelPlan,
    params: Mapping[str, int],
    num_procs: int = 1,
    grid_shape: Optional[Sequence[int]] = None,
    validate: bool = True,
) -> ExecutionPlan:
    """Compute per-processor fused boxes and peeled rectangles.

    ``grid_shape`` defaults to a near-square factorization of ``num_procs``
    over the fused dimensions.
    """
    params = dict(params)
    if grid_shape is None:
        grid_shape = factor_grid(num_procs, plan.depth)
    if validate:
        check_legality(plan, params, grid_shape).raise_if_bad()

    schedules = []
    for dim in range(plan.depth):
        lo, hi = domain_hull(plan, params, dim)
        schedules.append(BlockSchedule(lo, hi, grid_shape[dim]))
    grid = GridSchedule(tuple(schedules))

    procs: list[ProcessorPlan] = []
    nnests = plan.num_nests
    for coord in grid.coords():
        fused_boxes: list[tuple[Range, ...]] = []
        peeled: list[PeeledRect] = []
        for k in range(nnests):
            fbox = tuple(
                _fused_range(plan, params, schedules[d], coord[d], k, d)
                for d in range(plan.depth)
            )
            # Inner (non-fused) dimensions execute their full range.
            for d in range(plan.depth, plan.seq[k].depth):
                fbox = fbox + (_nest_bounds(plan, params, k, d),)
            fused_boxes.append(fbox)

            # Peeled rectangles: for pivot dimension d, dims before d take
            # the fused range, dim d the peel range, dims after d the union
            # (fused + peel) range — Fig. 16's decomposition.
            for d in range(plan.depth):
                ranges: list[Range] = []
                empty = False
                for d2 in range(plan.depth):
                    f = _fused_range(plan, params, schedules[d2], coord[d2], k, d2)
                    e = _peel_range(plan, params, schedules[d2], coord[d2], k, d2)
                    if d2 < d:
                        r = f
                    elif d2 == d:
                        r = e
                    else:
                        if range_empty(e):
                            r = f
                        elif range_empty(f):
                            r = e
                        else:
                            r = (min(f[0], e[0]), max(f[1], e[1]))
                    if range_empty(r):
                        empty = True
                        break
                    ranges.append(r)
                if empty:
                    continue
                for d2 in range(plan.depth, plan.seq[k].depth):
                    ranges.append(_nest_bounds(plan, params, k, d2))
                peeled.append(PeeledRect(k, tuple(ranges)))
        block = tuple(
            schedules[d].block(coord[d]) for d in range(plan.depth)
        )
        procs.append(
            ProcessorPlan(
                coord=coord,
                block=block,
                fused=tuple(fused_boxes),
                peeled=tuple(peeled),
            )
        )
    return ExecutionPlan(
        plan=plan, params=params, grid=grid, processors=tuple(procs)
    )


def verify_coverage(exec_plan: ExecutionPlan) -> bool:
    """Check Theorem 1's first two conditions explicitly: every original
    iteration of every nest is executed exactly once across all fused boxes
    and peeled rectangles."""
    plan = exec_plan.plan
    params = exec_plan.params
    for k, nest in enumerate(plan.seq):
        expected = {}
        for ivec in nest.iteration_space(params):
            expected[ivec] = 0
        for proc in exec_plan.processors:
            for ivec in itertools.product(
                *(range(r[0], r[1] + 1) for r in proc.fused[k])
            ):
                if ivec not in expected:
                    return False
                expected[ivec] += 1
            for rect in proc.peeled:
                if rect.nest_idx != k:
                    continue
                for ivec in rect.iterations():
                    if ivec not in expected:
                        return False
                    expected[ivec] += 1
        if any(count != 1 for count in expected.values()):
            return False
    return True
