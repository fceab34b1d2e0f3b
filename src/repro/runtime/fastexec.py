"""Fast execution backends: numpy-vectorized and multiprocess.

The reference executor (:mod:`repro.runtime.parallel`) interprets an
:class:`~repro.core.execplan.ExecutionPlan` one iteration at a time so the
test suite can interleave processors adversarially.  That makes it the
semantic oracle — and makes it thousands of times slower than the hardware.
This module lowers the *same* plan to whole-array numpy operations:

* :func:`run_vector` executes every processor's fused boxes (nest by nest,
  or strip-mined tile by tile when ``strip`` is given) and then its peeled
  rectangles as vectorized slice/fancy-index assignments.  Within one
  processor, executing nest ``k``'s whole fused box before nest ``k+1``'s
  satisfies every dependence the serial original admits (all of them point
  forward in sequence order), and the shift-and-peel construction keeps the
  fused phase free of cross-processor dependences (Theorem 1), so the
  result is bit-identical to the interpreter whenever the plan is legal.
  Loops marked sequential (``do`` rather than ``doall``) are honoured by
  iterating those dimensions scalarly in order; only ``doall`` dimensions
  whose variable addresses the written array injectively are vectorized.

* :func:`run_mp` runs the plan over real OS processes (one per hardware
  core by default, the simulated processors dealt round-robin) over
  ``multiprocessing.shared_memory`` buffers, with a real barrier between
  the fused and peeled phases — the measured-performance analogue of the
  simulated machine.  Worker failures are crash-safe: the parent polls
  the result queue while checking worker liveness, aborts the barrier on
  the first casualty and raises :class:`FastExecError` carrying the
  worker's traceback instead of hanging on a dead peer.

The shared-memory plumbing (:func:`export_arrays` / :func:`attach_arrays`
/ :func:`collect_worker_results`) is reused by the persistent-pool
``mpjit`` backend (:mod:`repro.runtime.pool`), which executes jit-compiled
per-processor entry points instead of interpreting boxes.

Both backends return the same counters as
:func:`~repro.runtime.parallel.run_parallel` so callers can sanity-check
iteration coverage across backends.
"""

from __future__ import annotations

import itertools
import os
import time
from functools import lru_cache
from typing import Mapping, MutableMapping, Optional, Sequence

import numpy as np

from ..core.execplan import ExecutionPlan, PeeledRect, ProcessorPlan
from ..ir.access import ArrayRef
from ..ir.loop import LoopNest
from ..ir.stmt import BinOp, Const, Expr, Load, UnaryOp
from .parallel import Box, fused_tile_boxes


class FastExecError(RuntimeError):
    """A plan or statement could not be executed by a fast backend."""


class EnvConfigError(ValueError):
    """An environment knob holds an invalid value.

    Raised at parse time with a message naming the variable, so a typo'd
    ``REPRO_SYNC_TIMEOUT=10s`` fails loudly in the parent before any
    worker is spawned instead of silently falling back (or exploding as
    an unhandled ``ValueError`` deep in the pool)."""


# ---------------------------------------------------------------------------
# Which dimensions of a nest may be vectorized?
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _order_free_dims(nest: LoopNest) -> tuple[int, ...]:
    """Dimensions that carry no intra-nest dependence.

    The exact distance solver decides this where it can: a dimension is
    order-free unless it *carries* a (lexicographically positive) uniform
    dependence, i.e. holds its first nonzero component.  Executing the
    remaining (carrying) dimensions scalarly in lexicographic order, with
    the order-free dimensions innermost, then satisfies every intra-nest
    dependence: the carrying dimension of each dependence is scalar, keeps
    its original relative position, and every dimension before it in the
    original order has a zero component.  When some intra-nest relation is
    not uniform the analysis is inconclusive and we fall back to the
    nest's ``doall`` flags (a flagged dimension never carries a
    dependence, so the same argument applies).
    """
    from ..dependence.analysis import carried_dependences
    from ..dependence.model import NonUniformDependenceError

    try:
        carried = carried_dependences(nest, strict=True)
    except NonUniformDependenceError:
        return tuple(d for d in range(nest.depth) if nest.loops[d].parallel)
    carrying = set()
    for _array, distance in carried:
        for d, component in enumerate(distance):
            if component != 0:
                if component > 0:  # lex-positive orientation of the pair
                    carrying.add(d)
                break
    return tuple(d for d in range(nest.depth) if d not in carrying)


@lru_cache(maxsize=None)
def vector_dims(nest: LoopNest) -> tuple[int, ...]:
    """Dimensions of ``nest`` that can execute as whole-array operations.

    A dimension qualifies when it carries no intra-nest dependence (see
    :func:`_order_free_dims`) *and* every statement's target has a witness
    subscript that depends on this dimension's variable and on no other
    candidate variable — which makes the write map injective over the
    vectorized dimensions, so a fancy-index store never writes one element
    twice.  Dimensions that fail the test simply fall back to ordered
    scalar iteration; correctness never depends on the answer, only speed
    does.
    """
    cands = list(_order_free_dims(nest))
    changed = True
    while changed:
        changed = False
        for d in list(cands):
            var = nest.loops[d].var
            others = [nest.loops[d2].var for d2 in cands if d2 != d]
            for st in nest.body:
                witness = any(
                    sub.coeff(var) != 0
                    and all(sub.coeff(o) == 0 for o in others)
                    for sub in st.target.subscripts
                )
                if not witness:
                    cands.remove(d)
                    changed = True
                    break
    return tuple(cands)


# ---------------------------------------------------------------------------
# Vectorized evaluation of one statement over a box.
# ---------------------------------------------------------------------------


class _BoxEnv:
    """Broadcasting context for one (box, vector-dims) combination.

    ``scalars`` maps parameters, sequential loop variables and *zeroed*
    vector variables to ints (used to evaluate the non-vector part of a
    subscript); ``grids`` lazily materializes ``np.arange`` index grids,
    one per vector dimension, shaped for mutual broadcasting.
    """

    def __init__(self, nest: LoopNest, box: Box, vdims: tuple[int, ...],
                 scalars: dict[str, int]):
        self.nest = nest
        self.box = box
        self.vdims = vdims
        self.rank_of = {d: r for r, d in enumerate(vdims)}
        self.shape = tuple(box[d][1] - box[d][0] + 1 for d in vdims)
        self.scalars = scalars
        self._grids: dict[int, np.ndarray] = {}

    def grid(self, d: int) -> np.ndarray:
        g = self._grids.get(d)
        if g is None:
            r = self.rank_of[d]
            lo, hi = self.box[d]
            shape = [1] * len(self.vdims)
            shape[r] = hi - lo + 1
            g = np.arange(lo, hi + 1).reshape(shape)
            self._grids[d] = g
        return g

    def var_dim(self, name: str) -> Optional[int]:
        for d in self.vdims:
            if self.nest.loops[d].var == name:
                return d
        return None


def _subscript_index(sub, env: _BoxEnv):
    """Evaluate one affine subscript to an int, a ``slice`` (unit-stride
    single vector variable) or an index grid, plus the vector dimension it
    spans (or None)."""
    vds = [(env.var_dim(v), c) for v, c in sub.coeffs if env.var_dim(v) is not None]
    if not vds:
        return sub.eval(env.scalars), None
    base = sub.eval(env.scalars)  # vector vars contribute 0 here
    if len(vds) == 1 and vds[0][1] == 1:
        d, _ = vds[0]
        lo, hi = env.box[d]
        return slice(base + lo, base + hi + 1), d
    # General affine over vector dims: broadcasted integer grid.
    idx = base
    for d, c in vds:
        idx = idx + c * env.grid(d)
    return idx, None


def _sliceable(parts) -> bool:
    """True when the subscript tuple indexes with pure basic slicing: no
    index grids, and no vector dimension spanned by two subscripts (the
    diagonal case, which basic slicing would turn into a cross product)."""
    if any(isinstance(val, np.ndarray) for val, _d in parts):
        return False
    present = [d for _val, d in parts if d is not None]
    return len(present) == len(set(present))


def _fancy_index(parts, ref: ArrayRef, env: _BoxEnv) -> tuple:
    """Rebuild the subscripts as broadcasted index grids (advanced
    indexing), converting any slices back into grids."""
    idx = []
    for (val, d), sub in zip(parts, ref.subscripts):
        if isinstance(val, slice):
            idx.append(sub.eval(env.scalars) + env.grid(d))
        else:
            idx.append(val)
    return tuple(idx)


def _load_box(ref: ArrayRef, env: _BoxEnv, arrays: Mapping[str, np.ndarray]):
    """Load ``ref`` over the box, broadcastable to ``env.shape``."""
    parts = [_subscript_index(s, env) for s in ref.subscripts]
    if not _sliceable(parts):
        return arrays[ref.array][_fancy_index(parts, ref, env)]
    view = arrays[ref.array][tuple(val for val, _d in parts)]
    ranks = [env.rank_of[d] for _val, d in parts if d is not None]
    perm = sorted(range(len(ranks)), key=lambda a: ranks[a])
    if perm != list(range(len(ranks))):
        view = view.transpose(perm)
    have = sorted(ranks)
    if len(have) < len(env.vdims):
        expander = tuple(
            slice(None) if r in have else np.newaxis
            for r in range(len(env.vdims))
        )
        view = view[expander]
    return view


def _store_box(ref: ArrayRef, value, env: _BoxEnv,
               arrays: MutableMapping[str, np.ndarray]) -> None:
    """Store ``value`` (scalar or broadcastable array) through ``ref``."""
    target = arrays[ref.array]
    if isinstance(value, np.ndarray) and np.may_share_memory(value, target):
        value = value.copy()
    parts = [_subscript_index(s, env) for s in ref.subscripts]
    if not _sliceable(parts):
        target[_fancy_index(parts, ref, env)] = value
        return
    ranks = [env.rank_of[d] for _val, d in parts if d is not None]
    if isinstance(value, np.ndarray) and value.ndim:
        value = np.broadcast_to(value, env.shape)
        value = value.transpose(ranks)
    target[tuple(val for val, _d in parts)] = value


def _eval_box(expr: Expr, env: _BoxEnv, arrays: Mapping[str, np.ndarray]):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Load):
        return _load_box(expr.ref, env, arrays)
    if isinstance(expr, BinOp):
        a = _eval_box(expr.left, env, arrays)
        b = _eval_box(expr.right, env, arrays)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return a / b
    if isinstance(expr, UnaryOp):
        return -_eval_box(expr.operand, env, arrays)
    raise FastExecError(f"cannot vectorize expression {expr!r}")


def exec_box(
    nest: LoopNest,
    box: Box,
    params: Mapping[str, int],
    arrays: MutableMapping[str, np.ndarray],
    vdims: Optional[tuple[int, ...]] = None,
) -> int:
    """Execute every iteration of ``nest`` inside ``box`` (inclusive
    ``(lo, hi)`` per dimension), vectorizing the ``doall`` dimensions and
    iterating the rest scalarly in lexicographic order.  Returns the number
    of iterations executed.  Bit-identical to per-iteration interpretation
    for any nest whose ``doall`` markings are truthful.

    ``vdims`` lets callers hoist the :func:`vector_dims` lookup out of
    per-box loops: the analysis is memoized, but even a cache hit hashes
    the whole nest structure, which dominates tiny strip-mined boxes."""
    if any(hi < lo for lo, hi in box):
        return 0
    if vdims is None:
        vdims = vector_dims(nest)
    sdims = [d for d in range(nest.depth) if d not in vdims]
    vec_count = 1
    for d in vdims:
        vec_count *= box[d][1] - box[d][0] + 1
    scalars = dict(params)
    for d in vdims:
        scalars[nest.loops[d].var] = 0
    env = _BoxEnv(nest, box, vdims, scalars)
    count = 0
    for svals in itertools.product(
        *(range(box[d][0], box[d][1] + 1) for d in sdims)
    ):
        for d, v in zip(sdims, svals):
            scalars[nest.loops[d].var] = v
        for st in nest.body:
            _store_box(st.target, _eval_box(st.rhs, env, arrays), env, arrays)
        count += vec_count
    return count


# ---------------------------------------------------------------------------
# The vector backend: whole plan, one process.
# ---------------------------------------------------------------------------


def _sorted_rects(proc: ProcessorPlan) -> list[PeeledRect]:
    order = sorted(range(len(proc.peeled)),
                   key=lambda r: proc.peeled[r].nest_idx)
    return [proc.peeled[r] for r in order]


def _run_proc_fused(
    proc: ProcessorPlan,
    plan,
    nests: Sequence[LoopNest],
    params: Mapping[str, int],
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int],
    nest_vdims: Optional[Sequence[tuple[int, ...]]] = None,
) -> int:
    if nest_vdims is None:
        nest_vdims = [vector_dims(nest) for nest in nests]
    count = 0
    if strip is None:
        for k, nest in enumerate(nests):
            count += exec_box(nest, tuple(proc.fused[k]), params, arrays,
                              vdims=nest_vdims[k])
    else:
        for k, box in fused_tile_boxes(proc, plan.depth, nests, plan.shift,
                                       strip):
            count += exec_box(nests[k], box, params, arrays,
                              vdims=nest_vdims[k])
    return count


def _run_proc_peeled(
    proc: ProcessorPlan,
    nests: Sequence[LoopNest],
    params: Mapping[str, int],
    arrays: MutableMapping[str, np.ndarray],
    nest_vdims: Optional[Sequence[tuple[int, ...]]] = None,
) -> int:
    if nest_vdims is None:
        nest_vdims = [vector_dims(nest) for nest in nests]
    count = 0
    for rect in _sorted_rects(proc):
        count += exec_box(nests[rect.nest_idx], rect.ranges, params, arrays,
                          vdims=nest_vdims[rect.nest_idx])
    return count


def run_vector(
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int] = None,
) -> dict[str, int]:
    """Vectorized execution of the fused phase, the barrier, then the
    peeled phase.  ``strip`` tiles the fused phase exactly like the
    interpreter (one vectorized box per tile per nest); ``None`` executes
    each processor's whole per-nest box in one shot (fastest)."""
    plan = exec_plan.plan
    nests = list(plan.seq)
    params = exec_plan.params
    # Hoisted per (nest, plan): the legality analysis is identical for
    # every box of a nest, so strip-mined runs must not redo it per tile.
    nest_vdims = [vector_dims(nest) for nest in nests]
    fused = 0
    for proc in exec_plan.processors:
        fused += _run_proc_fused(proc, plan, nests, params, arrays, strip,
                                 nest_vdims)
    # ---- barrier (Sec. 3.4) ----
    peeled = 0
    for proc in exec_plan.processors:
        peeled += _run_proc_peeled(proc, nests, params, arrays, nest_vdims)
    return {"fused_iterations": fused, "peeled_iterations": peeled}


# ---------------------------------------------------------------------------
# The mp backend: one OS process per simulated processor, shared memory.
# ---------------------------------------------------------------------------

#: Default backstop for a worker stuck waiting on peers (at the barrier,
#: or on a fused-done event in point-to-point mode).  The parent aborts
#: the sync as soon as it detects a failure, so in practice a crash
#: surfaces within a fraction of a second; this only bounds the truly
#: pathological case of a parent that died without cleaning up.
DEFAULT_SYNC_TIMEOUT = 600.0

#: Environment override (seconds) for the sync backstop.  The test suite
#: drops it sharply (tests/conftest.py) so sync-failure tests stay
#: time-bounded instead of relying on a 600 s ceiling.
ENV_SYNC_TIMEOUT = "REPRO_SYNC_TIMEOUT"


def sync_timeout() -> float:
    """The sync backstop in seconds: ``REPRO_SYNC_TIMEOUT`` when set,
    else :data:`DEFAULT_SYNC_TIMEOUT`.  Read at wait time so workers
    forked before the variable changed still honour it on their next run
    (fork shares the parent's environ).

    Raises :class:`EnvConfigError` naming the variable when it is set to
    something that is not a positive number; :func:`run_mp` and the pool
    validate eagerly so the error surfaces in the parent, not as a
    traceback shipped back from a worker."""
    raw = os.environ.get(ENV_SYNC_TIMEOUT)
    if raw is None or not raw.strip():
        return DEFAULT_SYNC_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise EnvConfigError(
            f"{ENV_SYNC_TIMEOUT} must be a number of seconds, got {raw!r}"
        ) from None
    if value <= 0:
        raise EnvConfigError(
            f"{ENV_SYNC_TIMEOUT} must be positive, got {raw!r}"
        )
    return value


#: How long the parent keeps draining the result queue after the first
#: failure, so the root-cause traceback wins over the peers' secondary
#: "barrier aborted" reports.
_FAILURE_DRAIN_SECONDS = 1.0

#: Poll interval while waiting on a fused-done event in point-to-point
#: mode; bounds how long a waiter takes to observe the abort flag after
#: a peer dies (the parent sets it on the first casualty).
_P2P_POLL_SECONDS = 0.05


class SyncAborted(RuntimeError):
    """Point-to-point sync released early: a peer failed, or a fused-done
    signal never arrived within the backstop.  The p2p analogue of
    :class:`threading.BrokenBarrierError`."""


class P2PSync:
    """Point-to-point fused-done signalling between SPMD workers.

    ``events[p]`` is set exactly once per run, when processor ``p``'s
    fused phase completes; a peeled phase then waits only on the events
    of its named predecessors (:func:`repro.core.syncdeps.peel_predecessors`)
    instead of on a global barrier.  One shared ``abort`` event releases
    every waiter on failure — :func:`collect_worker_results` calls
    ``.abort()`` on the first casualty exactly as it aborts a barrier.

    The events must be created by whoever spawns the worker processes
    (multiprocessing sync primitives travel only through ``Process``
    args / fork inheritance, never through queues).
    """

    def __init__(self, events: Sequence, abort_event) -> None:
        self.events = events
        self.abort_event = abort_event

    def abort(self) -> None:
        self.abort_event.set()

    def reset(self) -> None:
        """Clear the abort flag and every fused-done event.

        Used by in-place pool recovery after a failed run: the replaced
        workers must not observe a stale abort (or a dead peer's leftover
        signal) on their first healthy run."""
        self.abort_event.clear()
        for ev in self.events:
            ev.clear()

    def signal_fused_done(self, proc: int) -> None:
        self.events[proc].set()

    def wait_for(self, preds: Sequence[int],
                 timeout: Optional[float] = None) -> None:
        """Block until every processor in ``preds`` has signalled
        fused-done; raise :class:`SyncAborted` promptly on abort and
        after ``timeout`` (default :func:`sync_timeout`) as a backstop."""
        if timeout is None:
            timeout = sync_timeout()
        deadline = time.monotonic() + timeout
        for p in preds:
            ev = self.events[p]
            while not ev.wait(_P2P_POLL_SECONDS):
                if self.abort_event.is_set():
                    raise SyncAborted("a peer failed first")
                if time.monotonic() >= deadline:
                    self.abort_event.set()  # release the other waiters
                    raise SyncAborted(
                        f"no fused-done signal from processor {p} within "
                        f"{timeout:.0f}s"
                    )


def _resolve_workers(nprocs: int, max_workers: Optional[int]) -> int:
    """Worker count for ``nprocs`` simulated processors.

    ``max_workers=None`` caps at the machine's core count: one OS process
    per *hardware* core, never per simulated processor (a 56-processor
    plan on a 4-core host gets 4 workers, each running 14 processors'
    boxes in plan order)."""
    import os

    if max_workers is None:
        max_workers = os.cpu_count() or 1
    return max(1, min(nprocs, max_workers))


def export_arrays(arrays: Mapping[str, np.ndarray]):
    """Copy ``arrays`` into fresh shared-memory segments.

    Returns ``(segments, specs)`` where ``specs`` maps each array name to
    the picklable ``(shm_name, shape, dtype)`` triple a worker needs to
    attach."""
    from multiprocessing import shared_memory

    segments: dict[str, shared_memory.SharedMemory] = {}
    specs: dict[str, tuple] = {}
    try:
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
            segments[name] = seg
            specs[name] = (seg.name, arr.shape, arr.dtype.str)
    except BaseException:
        release_segments(segments)
        raise
    return segments, specs


def attach_arrays(specs: Mapping[str, tuple], segments: list):
    """Attach to the segments described by ``specs`` (worker side).

    Opened segments are appended to ``segments`` so the caller's cleanup
    sees everything that was opened even if a later attach fails."""
    from multiprocessing import shared_memory

    arrays: dict[str, np.ndarray] = {}
    for name, (shm_name, shape, dtype) in specs.items():
        seg = shared_memory.SharedMemory(name=shm_name)
        segments.append(seg)
        arrays[name] = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
    return arrays


def copy_back_arrays(arrays: MutableMapping[str, np.ndarray],
                     segments: Mapping) -> None:
    """Copy shared-memory contents back into the caller's arrays."""
    for name, arr in arrays.items():
        seg = segments[name]
        shared = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        arr[...] = shared
        del shared


def release_segments(segments: Mapping) -> None:
    """Close and unlink every owned segment; never raises."""
    for seg in segments.values():
        try:
            seg.close()
            seg.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


def collect_worker_results(queue, workers: Mapping[int, object], sync,
                           label: str) -> dict[int, tuple]:
    """Gather one ``(worker_id, ok, payload)`` message per worker.

    The queue is polled with a short timeout while checking worker
    liveness, so a worker that dies *before* its ``queue.put`` surfaces as
    a prompt :class:`FastExecError` instead of a 600 s sync hang.  On any
    failure ``sync.abort()`` is called (releasing the surviving peers —
    ``sync`` is a barrier, a :class:`P2PSync`, or anything else with an
    ``abort()``) and the queue is drained briefly so the root-cause
    traceback is reported in preference to the peers' secondary
    "barrier broken" / "sync aborted" notices.
    """
    from queue import Empty

    results: dict[int, tuple] = {}
    failures: list[str] = []
    pending = set(workers)
    suspect: dict[int, int] = {}
    deadline: Optional[float] = None

    def fail(message: str) -> None:
        nonlocal deadline
        sync.abort()
        failures.append(message)
        if deadline is None:
            deadline = time.monotonic() + _FAILURE_DRAIN_SECONDS

    while pending:
        if deadline is not None and time.monotonic() >= deadline:
            break
        try:
            wid, ok, payload = queue.get(timeout=0.05)
        except Empty:
            for w in sorted(pending):
                if workers[w].is_alive():
                    suspect.pop(w, None)
                    continue
                # A clean exit flushes the queue feeder before the
                # process dies, so give a just-died worker two more polls
                # for its result to surface before declaring it lost.
                suspect[w] = suspect.get(w, 0) + 1
                if suspect[w] >= 3:
                    pending.discard(w)
                    fail(f"{label} worker {w} died without reporting a "
                         f"result (exitcode {workers[w].exitcode})")
            continue
        pending.discard(wid)
        suspect.pop(wid, None)
        if ok:
            results[wid] = payload
        else:
            fail(f"{label} worker {wid} failed:\n{payload}")
    if failures:
        # Order the genuine tracebacks ahead of sync-abort fallout.
        def _secondary(m: str) -> bool:
            last = m.splitlines()[-1]
            return "barrier" in last or "sync aborted" in last

        failures.sort(key=lambda m: (_secondary(m), m))
        raise FastExecError(
            f"{label} execution failed ({len(failures)} worker "
            f"failure(s)):\n" + "\n".join(failures)
        )
    return results


def _mp_worker(worker_id: int, exec_plan: ExecutionPlan,
               proc_indices: Sequence[int], specs: dict, sync,
               strip: Optional[int], queue,
               deps: Optional[Sequence[Sequence[int]]]) -> None:
    """One SPMD worker.  ``sync`` is a barrier (``deps is None``) or a
    :class:`P2PSync` (``deps`` is the plan's predecessor map): with a
    barrier every worker waits for all peers between its phases; with
    p2p each processor signals fused-done individually and each peeled
    phase waits only on its named predecessors."""
    import threading
    import traceback

    segments: list = []
    arrays: dict[str, np.ndarray] = {}
    try:
        try:
            arrays = attach_arrays(specs, segments)
            plan = exec_plan.plan
            nests = list(plan.seq)
            params = exec_plan.params
            nest_vdims = [vector_dims(nest) for nest in nests]
            fused = 0
            for idx in proc_indices:
                fused += _run_proc_fused(exec_plan.processors[idx], plan,
                                         nests, params, arrays, strip,
                                         nest_vdims)
                if deps is not None:
                    sync.signal_fused_done(idx)
            if deps is None:
                sync.wait(timeout=sync_timeout())
            peeled = 0
            for idx in proc_indices:
                if deps is not None:
                    sync.wait_for(deps[idx])
                peeled += _run_proc_peeled(exec_plan.processors[idx], nests,
                                           params, arrays, nest_vdims)
            queue.put((worker_id, True, (fused, peeled)))
        except threading.BrokenBarrierError:
            queue.put((worker_id, False,
                       "barrier broken or aborted (a peer failed first, or "
                       f"no peer arrived within {sync_timeout():.0f}s)"))
        except SyncAborted as exc:
            queue.put((worker_id, False, f"p2p sync aborted ({exc})"))
        except BaseException:
            # Ship the real traceback to the parent, then release any
            # peers still parked at the sync.
            queue.put((worker_id, False, traceback.format_exc()))
            sync.abort()
    finally:
        del arrays
        for seg in segments:
            seg.close()


def run_mp(
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int] = None,
    max_workers: Optional[int] = None,
    sync: str = "p2p",
) -> dict[str, int]:
    """Execute the plan with OS processes over
    ``multiprocessing.shared_memory``.  ``sync="p2p"`` (the default)
    synchronizes the fused and peeled phases point-to-point: each
    processor's peeled phase waits only on the fused-done events of its
    predecessors (:func:`repro.core.syncdeps.peel_predecessors`);
    ``sync="barrier"`` keeps the paper's single global barrier.
    ``max_workers`` caps the worker count (default: the machine's core
    count); the simulated processors are dealt round-robin across
    workers (each worker still runs its processors' phases in plan
    order).

    Worker failures never hang the parent: the result queue is polled
    with liveness checks, a crashed or raising worker aborts the sync,
    and the resulting :class:`FastExecError` carries the worker's
    traceback.  Shared-memory segments are unlinked on every path."""
    import multiprocessing as mp

    if sync not in ("p2p", "barrier"):
        raise FastExecError(f"unknown sync mode {sync!r}")
    sync_timeout()  # validate REPRO_SYNC_TIMEOUT before spawning anything
    nprocs = len(exec_plan.processors)
    nworkers = _resolve_workers(nprocs, max_workers)
    if nworkers == 1:
        return run_vector(exec_plan, arrays, strip=strip)

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    segments: dict = {}
    workers: dict[int, object] = {}
    try:
        segments, specs = export_arrays(arrays)
        if sync == "p2p":
            deps = exec_plan.peel_deps
            sync_obj = P2PSync([ctx.Event() for _ in range(nprocs)],
                               ctx.Event())
        else:
            deps = None
            sync_obj = ctx.Barrier(nworkers)
        queue = ctx.Queue()
        assignment = [list(range(w, nprocs, nworkers)) for w in range(nworkers)]
        workers = {
            w: ctx.Process(
                target=_mp_worker,
                args=(w, exec_plan, assignment[w], specs, sync_obj, strip,
                      queue, deps),
            )
            for w in range(nworkers)
        }
        for w in workers.values():
            w.start()
        results = collect_worker_results(queue, workers, sync_obj, "mp")
        fused = sum(f for f, _ in results.values())
        peeled = sum(p for _, p in results.values())
        for w in workers.values():
            w.join(timeout=60)
        copy_back_arrays(arrays, segments)
        return {"fused_iterations": fused, "peeled_iterations": peeled}
    finally:
        for w in workers.values():
            if w.is_alive():
                w.terminate()
        for w in workers.values():
            w.join(timeout=5)
        release_segments(segments)
