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
Box = tuple[Range, ...]  # one Range per nest dimension
Row = tuple[int, Box]  # (nest_idx, box): one unit of a processor's schedule


class StripError(ValueError):
    """A strip-mining width below 1: Fig. 12's tiles need a positive one."""


def check_strip(strip: Optional[int]) -> None:
    """Raise :class:`StripError` unless ``strip`` is None or at least 1."""
    if strip is not None and strip < 1:
        raise StripError(f"strip must be a positive integer, got {strip}")


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

    def tile_starts(self, proc: ProcessorPlan, strip: int) -> list[range]:
        """Origins of ``proc``'s position-space tiles (the control loops
        of Fig. 12), one ``range`` per fused dimension; the extent is the
        union over nests of the fused box shifted into position space.
        Every range is empty when the processor fuses nothing."""
        check_strip(strip)
        plan = self.plan
        starts = []
        for d in range(plan.depth):
            lo = hi = None
            for k, box in enumerate(proc.fused):
                flo, fhi = box[d]
                if fhi < flo:
                    continue
                s = plan.shift(k, d)
                lo = flo + s if lo is None else min(lo, flo + s)
                hi = fhi + s if hi is None else max(hi, fhi + s)
            if lo is None:
                return [range(0)] * plan.depth
            starts.append(range(lo, hi + 1, strip))
        return starts

    def rows(self, strip: Optional[int] = None
             ) -> tuple[tuple[tuple[Row, ...], tuple[Row, ...]], ...]:
        """The execution order of the plan: per processor, its
        :meth:`processor_rows`.  Every executor, both emitters and the
        simulator walk this one schedule."""
        return tuple(self.processor_rows(proc, strip)
                     for proc in self.processors)

    def processor_rows(self, proc: ProcessorPlan,
                       strip: Optional[int] = None
                       ) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
        """``proc``'s fused rows and peeled rows, each a ``(nest_idx, box)``.

        Fused rows are the whole per-nest boxes in sequence order when
        ``strip`` is None; otherwise Fig. 12's strip-mined order —
        position-space tiles (:meth:`tile_starts`) lexicographically, per
        tile each nest's original-iteration rectangle inside it (plus the
        full range of its non-fused inner dimensions) in sequence order.
        Peeled rows follow the Sec. 3.4 barrier point: the peeled
        rectangles, stable-sorted by nest.  Zero-volume boxes are not
        rows.  A ``strip`` below 1 raises :class:`StripError`.
        """
        plan = self.plan
        ndims = plan.depth
        if strip is None:
            fused = [(k, tuple(box)) for k, box in enumerate(proc.fused)]
        else:
            fused = []
            for tile in itertools.product(*self.tile_starts(proc, strip)):
                for k, fbox in enumerate(proc.fused):
                    box = []
                    for d in range(ndims):
                        s = plan.shift(k, d)
                        box.append((max(fbox[d][0], tile[d] - s),
                                    min(fbox[d][1], tile[d] + strip - 1 - s)))
                    box.extend((lo, hi) for lo, hi in fbox[ndims:])
                    fused.append((k, tuple(box)))
        peeled = [(rect.nest_idx, rect.ranges)
                  for rect in sorted(proc.peeled, key=lambda r: r.nest_idx)]
        return tuple(
            tuple(row for row in phase if all(lo <= hi for lo, hi in row[1]))
            for phase in (fused, peeled)
        )

    def signature(self, strip: Optional[int] = None) -> str:
        """Structural sha256 of everything execution depends on.

        Two plans share a signature exactly when they execute identically:
        the kernel IR (loop bounds, ``doall`` flags, statement bodies), the
        bound parameters, the derived shifts/peels, the processor grid and
        every processor's concrete fused boxes and peeled rectangles.  This
        is the key of the jit plan cache (:mod:`repro.runtime.plancache`):
        a cache hit replays generated code, so any structural difference —
        including hand-mutated processor boxes, as the degenerate-range
        tests build — must change the digest.

        The strip is run-time data, not part of any compiled artifact, so
        nothing in the package passes ``strip``; the parameter stays for
        callers that key a digest by it (the e2e benchmark passes None).
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
