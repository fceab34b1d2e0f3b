"""Simulated parallel execution of a fused sequence.

Executes an :class:`~repro.core.execplan.ExecutionPlan` the way the target
machine would: every processor runs its fused rows (strip-mined, nests
interleaved strip by strip), then a single barrier, then its peeled rows —
the schedule :meth:`~repro.core.execplan.ExecutionPlan.rows` defines for
every executor.  Because true multithreading would not make iteration
interleavings reproducible, parallelism is *simulated*: each processor's
work is a generator of single iterations, and a scheduler interleaves the
generators — round-robin, reversed, or adversarially at random.  Any legal
transformation must produce bit-identical results under every interleave,
which is exactly what the test suite asserts.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, MutableMapping, Optional, Sequence

import numpy as np

from ..core.execplan import ExecutionPlan, Row


WorkItem = tuple[int, tuple[int, ...]]  # (nest_idx, iteration vector)


def work_items(rows: Sequence[Row]) -> Iterator[WorkItem]:
    """Yield the iterations of one processor's rows (one phase of
    :meth:`~repro.core.execplan.ExecutionPlan.rows`): rows in order, each
    box's iterations lexicographically."""
    for k, box in rows:
        for ivec in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
            yield (k, ivec)


def _interleave(
    streams: list[Iterator[WorkItem]],
    mode: str,
    rng: Optional[np.random.Generator],
) -> Iterator[tuple[int, WorkItem]]:
    """Merge per-processor work streams into one global order."""
    live = {p: it for p, it in enumerate(streams)}
    if mode == "sequential":
        for p in sorted(live):
            for item in live[p]:
                yield (p, item)
        return
    if mode == "reversed":
        for p in sorted(live, reverse=True):
            for item in live[p]:
                yield (p, item)
        return
    if mode == "roundrobin":
        while live:
            for p in sorted(live):
                try:
                    yield (p, next(live[p]))
                except StopIteration:
                    del live[p]
        return
    if mode == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        keys = list(live)
        while keys:
            p = keys[int(rng.integers(len(keys)))]
            try:
                yield (p, next(live[p]))
            except StopIteration:
                keys.remove(p)
        return
    raise ValueError(f"unknown interleave mode {mode!r}")


def run_parallel(
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    interleave: str = "roundrobin",
    strip: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> dict[str, int]:
    """Execute the fused phase (interleaved), the barrier, then the peeled
    phase (interleaved).  Returns counters for sanity checks."""
    plan = exec_plan.plan
    nests = list(plan.seq)
    params = exec_plan.params
    env_base = dict(params)
    rows = exec_plan.rows(strip)

    fused_streams = [work_items(fused) for fused, _peeled in rows]
    executed = 0
    for _p, (k, ivec) in _interleave(fused_streams, interleave, rng):
        nest = nests[k]
        env = env_base
        for var, val in zip(nest.loop_vars, ivec):
            env[var] = val
        for st in nest.body:
            st.execute(env, arrays)
        executed += 1

    # ---- barrier (Sec. 3.4) ----
    peeled_streams = [work_items(peeled) for _fused, peeled in rows]
    peeled_count = 0
    for _p, (k, ivec) in _interleave(peeled_streams, interleave, rng):
        nest = nests[k]
        env = env_base
        for var, val in zip(nest.loop_vars, ivec):
            env[var] = val
        for st in nest.body:
            st.execute(env, arrays)
        peeled_count += 1

    return {"fused_iterations": executed, "peeled_iterations": peeled_count}


def run_unfused_parallel(
    seq,
    params: Mapping[str, int],
    arrays: MutableMapping[str, np.ndarray],
    num_procs: int,
    interleave: str = "roundrobin",
    rng: Optional[np.random.Generator] = None,
) -> dict[str, int]:
    """Baseline: each nest runs as its own parallel loop with a barrier
    between nests (the original program's execution on the machine)."""
    from ..core.schedule import BlockSchedule

    executed = 0
    for nest in seq:
        params_env = dict(params)
        lo, hi = nest.loops[0].bounds(params)
        nblocks = min(num_procs, max(1, hi - lo + 1))
        sched = BlockSchedule(lo, hi, nblocks)

        def proc_stream(p: int, nest=nest, sched=sched):
            blo, bhi = sched.block(p)
            ranges = [range(blo, bhi + 1)]
            for lp in nest.loops[1:]:
                ranges.append(range(lp.lower.eval(params), lp.upper.eval(params) + 1))
            for ivec in itertools.product(*ranges):
                yield (0, ivec)

        streams = [proc_stream(p) for p in range(1, nblocks + 1)]
        for _p, (_k, ivec) in _interleave(streams, interleave, rng):
            env = params_env
            for var, val in zip(nest.loop_vars, ivec):
                env[var] = val
            for st in nest.body:
                st.execute(env, arrays)
            executed += 1
        # barrier between nests
    return {"iterations": executed}
