"""Multiprocessor execution-time simulation.

Combines the per-processor address traces, the cache simulator and the
machine cost model into the measurements the paper reports: execution time
(hence speedup) and cache misses, for the unfused baseline and for the
shift-and-peel fused version.

Cost model (per processor)::

    cycles = refs * ref_cycles                       # useful work
           + overhead (strip-mining control, fused bound arithmetic)
           + misses * miss_penalty(P)                # local/remote mix
    T(P)   = max_p cycles_p + barriers * barrier_cycles(P)

The fused version pays strip/guard overhead and executes peeled iterations
after a barrier, but takes fewer misses (inter-nest reuse hits in cache)
and far fewer barriers — reproducing the crossovers of Figs. 22–25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..cachesim.cache import CacheStats, simulate
from ..core.execplan import ExecutionPlan
from ..core.schedule import BlockSchedule
from ..ir.sequence import LoopSequence
from .memory import MemoryLayout
from .specs import MachineSpec
from .trace import fused_proc_trace, unfused_proc_trace


@dataclass(frozen=True)
class RunMeasurement:
    """One simulated run: a (program version, machine, P) point."""

    version: str
    machine: str
    num_procs: int
    time_cycles: float
    misses: int
    refs: int
    barriers: int
    peeled_refs: int = 0

    def speedup_over(self, baseline: "RunMeasurement") -> float:
        """Speedup of this run relative to ``baseline`` (time ratio)."""
        return baseline.time_cycles / self.time_cycles


def _proc_misses(
    trace: np.ndarray, machine: MachineSpec, warm: bool
) -> CacheStats:
    """Misses of one processor's trace; with ``warm`` the steady-state pass
    is measured (the kernel is invoked repeatedly in the paper's timed
    runs): simulate the trace twice back to back — the doubled run's extra
    misses relative to the cold run are exactly the warm-pass misses."""
    cold = simulate(trace, machine.cache)
    if not warm or trace.size == 0:
        return cold
    doubled = simulate(np.concatenate((trace, trace)), machine.cache)
    return CacheStats(cold.accesses, doubled.misses - cold.misses)


def measure_unfused(
    seq: LoopSequence,
    params: Mapping[str, int],
    layout: MemoryLayout,
    machine: MachineSpec,
    num_procs: int,
    warm: bool = True,
    extra_barriers: int = 0,
) -> RunMeasurement:
    """Simulate the original sequence: each nest a parallel loop over
    blocks of its outermost dimension, a barrier after every nest."""
    lo = min(nest.loops[0].lower.eval(params) for nest in seq)
    hi = max(nest.loops[0].upper.eval(params) for nest in seq)
    nblocks = min(num_procs, hi - lo + 1)
    sched = BlockSchedule(lo, hi, nblocks)
    penalty = machine.miss_penalty(num_procs)

    worst = 0.0
    total_misses = 0
    total_refs = 0
    for p in range(1, nblocks + 1):
        trace = unfused_proc_trace(seq, params, layout, sched.block(p))
        stats = _proc_misses(trace, machine, warm)
        cycles = stats.accesses * machine.ref_cycles + stats.misses * penalty
        worst = max(worst, cycles)
        total_misses += stats.misses
        total_refs += stats.accesses
    barriers = len(seq) + extra_barriers
    time = worst + barriers * machine.barrier_cycles(num_procs)
    return RunMeasurement(
        version="unfused",
        machine=machine.name,
        num_procs=num_procs,
        time_cycles=time,
        misses=total_misses,
        refs=total_refs,
        barriers=barriers,
    )


def _tile_count(exec_plan: ExecutionPlan, proc, strip: int) -> int:
    """Fig. 12 control-loop trips of ``proc``: its position-space tiles."""
    return math.prod(map(len, exec_plan.tile_starts(proc, strip)))


def measure_fused(
    exec_plan: ExecutionPlan,
    layout: MemoryLayout,
    machine: MachineSpec,
    strip: int = 16,
    warm: bool = True,
    extra_barriers: int = 0,
) -> RunMeasurement:
    """Simulate the shift-and-peel fused version: strip-mined fused phase,
    one barrier, peeled phase (executed in parallel), final barrier."""
    num_procs = exec_plan.num_procs
    penalty = machine.miss_penalty(num_procs)
    nnests = exec_plan.plan.num_nests

    worst = 0.0
    total_misses = 0
    total_refs = 0
    total_peeled = 0
    for proc in exec_plan.processors:
        fused, peeled = fused_proc_trace(exec_plan, proc, layout, strip)
        trace = np.concatenate((fused, peeled))
        stats = _proc_misses(trace, machine, warm)
        ntiles = _tile_count(exec_plan, proc, strip)
        overhead = (
            machine.guard_overhead * stats.accesses
            + machine.loop_overhead * ntiles * nnests
        )
        cycles = stats.accesses * machine.ref_cycles + overhead + stats.misses * penalty
        worst = max(worst, cycles)
        total_misses += stats.misses
        total_refs += stats.accesses
        total_peeled += int(peeled.size)
    barriers = 2 + extra_barriers
    time = worst + barriers * machine.barrier_cycles(num_procs)
    return RunMeasurement(
        version="fused",
        machine=machine.name,
        num_procs=num_procs,
        time_cycles=time,
        misses=total_misses,
        refs=total_refs,
        barriers=barriers,
        peeled_refs=total_peeled,
    )


@dataclass(frozen=True)
class SpeedupPoint:
    """One processor-count sample of the fused-vs-unfused comparison."""

    num_procs: int
    speedup_unfused: float
    speedup_fused: float
    misses_unfused: int
    misses_fused: int

    @property
    def improvement(self) -> float:
        """Relative performance of fusion (paper Fig. 24's vertical axis)."""
        return self.speedup_fused / self.speedup_unfused


def speedup_series(
    build_exec_plan,
    seq: LoopSequence,
    params: Mapping[str, int],
    layout: MemoryLayout,
    machine: MachineSpec,
    proc_counts: Sequence[int],
    strip: int = 16,
    warm: bool = True,
) -> list[SpeedupPoint]:
    """Speedup/miss curves, both relative to the *unfused* version on one
    processor (the paper's normalization for Figs. 22/23)."""
    baseline = measure_unfused(seq, params, layout, machine, 1, warm)
    points: list[SpeedupPoint] = []
    for np_ in proc_counts:
        unfused = measure_unfused(seq, params, layout, machine, np_, warm)
        fused = measure_fused(
            build_exec_plan(np_), layout, machine, strip=strip, warm=warm
        )
        points.append(
            SpeedupPoint(
                num_procs=np_,
                speedup_unfused=unfused.speedup_over(baseline),
                speedup_fused=fused.speedup_over(baseline),
                misses_unfused=unfused.misses,
                misses_fused=fused.misses,
            )
        )
    return points
