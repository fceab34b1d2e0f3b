"""Persistent worker pool executing jit-compiled plans in parallel (mpjit).

The paper's execution model (Figs. 12/13) is SPMD: every processor runs
its *fused* boxes, hits one barrier, then runs its *peeled* boxes.  After
PR 1/PR 2 the two fast paths were split — ``jit`` ran compiled code
serially and ``mp`` ran real processes through the slow uncompiled per-box
interpreter.  This module closes the gap:

* a :class:`WorkerPool` of long-lived OS processes is spawned **once**
  (fork/spawn cost amortized across runs, exactly like the plan cache
  amortizes compilation) and reused by every subsequent ``mpjit``
  execution of the same worker count;
* each worker keeps an in-memory dict of compiled
  :class:`~repro.codegen.emitpy.JitModule` objects keyed by plan
  signature.  A warm worker recompiles nothing.  A cold worker loads the
  *generated source* from the on-disk plan cache by signature (the parent
  already emitted and persisted it) and pays one ``compile()`` — never an
  emission; the task carries the source inline as a last-resort fallback
  for non-persistent caches;
* one run is the paper's two-phase schedule: every worker calls
  ``run_fused(proc, arrays)`` for its assigned processors over the
  execution arena (:mod:`repro.runtime.arena`, one shared-memory segment
  a worker maps once and keeps until the parent names another),
  synchronizes, then calls ``run_peeled(proc, arrays)``.  The
  synchronization is point-to-point by default (``sync="p2p"``): each
  processor signals a preallocated "fused done" event as its fused phase
  completes, and each peeled phase waits only on the events of its named
  predecessors — the module's ``PEEL_DEPS`` map, derived by
  :func:`repro.core.syncdeps.peel_predecessors` — instead of on the
  slowest peer.  ``sync="barrier"`` keeps the paper's single global
  barrier (also the automatic fallback for plans with more processors
  than preallocated event slots).

Failure semantics match :func:`repro.runtime.fastexec.run_mp`: the parent
polls the result queue with liveness checks, aborts the sync (barrier
*and* p2p abort event) on the first casualty, and raises a
:class:`~repro.runtime.supervisor.ExecError` (a
:class:`~repro.runtime.fastexec.FastExecError` carrying a classified
:class:`~repro.runtime.supervisor.ExecFailure`) with the worker
traceback.  A failed run retires the execution arena (the retry runs on
a new segment, out of reach of a stalled worker) and poisons the pool; the
:class:`~repro.runtime.supervisor.PoolSupervisor` then repairs it in the
background — in place after a p2p failure (only the corpses are
re-forked, warm survivors keep their compiled modules), full respawn
after a barrier failure — so the caller's retry finds a healthy pool
without paying the spawn cost synchronously.

Deterministic fault injection (:mod:`repro.runtime.faults`) rides the
task tuple: the parent asks the active :class:`FaultPlan` for this
run's directives and ships them to the targeted workers, which crash /
sleep / withhold fused-done signals on command.  Production dispatch
with no active plan pays one ``None`` comparison.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from typing import MutableMapping, Optional, Sequence

import numpy as np

from ..core.execplan import ExecutionPlan
from . import arena
from .fastexec import (
    FastExecError,
    P2PSync,
    SyncAborted,
    _resolve_workers,
    collect_worker_results,
    sync_timeout,
)

#: Fused-done events preallocated per pool.  Multiprocessing sync
#: primitives travel only through ``Process`` args at spawn time (never
#: through queues), so the pool must allocate its event table up front;
#: plans with more processors than slots silently fall back to the
#: global barrier for that run (visible as ``last_sync`` in
#: :func:`pool_stats`).
P2P_EVENT_SLOTS = 128

#: Test-only failure injection: when set (before the pool is spawned, so
#: fork inheritance carries it into the workers), every worker calls it
#: with ``(worker_id, signature)`` ahead of the fused phase.  Production
#: code never sets it; chaos plans use the task-tuple directive channel
#: instead (no fork-inheritance requirement).
_test_worker_hook = None

#: First element of a control task (settle ack during in-place respawn);
#: never a valid plan signature.
_CONTROL = "__control__"


def _drain_queue(queue, seconds: float = 0.1) -> None:
    """Discard queued items until ``queue`` stays empty for ``seconds``
    (an mp queue's feeder thread can surface items a beat late)."""
    from queue import Empty

    deadline = time.monotonic() + seconds
    while True:
        try:
            queue.get(timeout=0.02)
        except (Empty, OSError, ValueError):
            if time.monotonic() >= deadline:
                return


def _apply_worker_fault(fault: Optional[dict]) -> None:
    """Crash or slow a worker per its injected directive (pre-fused)."""
    if fault is None:
        return
    action = fault.get("action")
    if action == "crash":
        os._exit(int(fault.get("exitcode", 97)))
    elif action == "slow":
        time.sleep(float(fault.get("seconds") or 0.05))


def _load_module(modules: dict, signature: str, cache_root: Optional[str],
                 source: str):
    """Resolve a compiled module inside a worker.

    Memory first (warm worker: nothing to do), then the on-disk plan
    cache by signature — a compiled native ``.so`` before the ``.py``
    source (one ``dlopen`` beats one ``compile()``, and every object
    for a signature is bit-identical by construction; workers never
    *compile* C, they only load what the parent cached) — then the
    inline source shipped with the task (non-persistent cache).
    Returns ``(module, 'memory'|'native'|'disk'|'inline')``.
    """
    module = modules.get(signature)
    if module is not None:
        return module, "memory"
    mode = "inline"
    if cache_root:
        from .plancache import PlanCache

        cache = PlanCache(root=cache_root)
        module = cache.peek_native(signature)
        if module is not None:
            mode = "native"
        else:
            module = cache.peek(signature)
            if module is not None:
                mode = "disk"
    if module is None:
        from ..codegen.emitpy import compile_source

        module = compile_source(source, expected_signature=signature)
    modules[signature] = module
    return module, mode


def _pool_worker(worker_id: int, task_queue, result_queue, barrier,
                 p2p: P2PSync) -> None:
    """One long-lived worker: loop over tasks until the ``None`` sentinel.

    Each task executes one plan's two-phase schedule for this worker's
    assigned processors, synchronizing through the global barrier or
    point-to-point per the task's sync mode.  Errors are shipped to the
    parent as formatted tracebacks; a failure releases the peers by
    aborting both primitives (whichever the peers are parked on).
    """
    import threading
    import traceback

    modules: dict = {}
    attachment = arena.Attachment()
    while True:
        task = task_queue.get()
        if task is None:
            break
        if task[0] == _CONTROL:
            # settle ack: by construction the worker is idle when it
            # answers (tasks are consumed in queue order)
            result_queue.put((worker_id, True, (_CONTROL, task[1])))
            continue
        (signature, cache_root, source, specs, proc_indices, sync_mode,
         fault) = task
        try:
            module, load_mode = _load_module(
                modules, signature, cache_root, source
            )
            arrays = attachment.views(specs)
            if _test_worker_hook is not None:
                _test_worker_hook(worker_id, signature)
            _apply_worker_fault(fault)
            stall = (fault if fault is not None
                     and fault.get("action") == "stall" else None)
            fused = 0
            if sync_mode == "p2p":
                for proc in proc_indices:
                    fused += module.run_fused(proc, arrays)
                    if stall is not None and (
                        stall.get("proc") is None
                        or stall.get("proc") == proc
                    ):
                        seconds = stall.get("seconds")
                        if seconds is None:
                            continue  # withhold the signal outright
                        time.sleep(float(seconds))
                    p2p.signal_fused_done(proc)
                deps = module.peel_deps
                peeled = 0
                for proc in proc_indices:
                    p2p.wait_for(deps[proc])
                    peeled += module.run_peeled(proc, arrays)
            else:
                for proc in proc_indices:
                    fused += module.run_fused(proc, arrays)
                if stall is not None:
                    time.sleep(float(stall.get("seconds")
                                     or sync_timeout() + 1.0))
                barrier.wait(timeout=sync_timeout())
                peeled = 0
                for proc in proc_indices:
                    peeled += module.run_peeled(proc, arrays)
            result_queue.put(
                (worker_id, True, (fused, peeled, load_mode))
            )
        except threading.BrokenBarrierError:
            result_queue.put((worker_id, False,
                              "barrier broken or aborted (a peer "
                              "failed first)"))
        except SyncAborted as exc:
            result_queue.put((worker_id, False,
                              f"p2p sync aborted ({exc})"))
        except BaseException:
            result_queue.put((worker_id, False, traceback.format_exc()))
            barrier.abort()
            p2p.abort()


class WorkerPool:
    """A fixed-size pool of persistent mpjit workers.

    The barrier is created with ``parties == nworkers`` and reused across
    runs (it resets after all parties pass); every run must therefore use
    every worker, which :func:`run_mpjit_module` guarantees by clamping
    the worker count to the processor count.  The p2p event table
    (:data:`P2P_EVENT_SLOTS` fused-done events plus one abort event) is
    preallocated at spawn time — sync primitives cannot travel through
    the task queues — and indexed by *processor*, so it is reused across
    runs of any plan that fits; the parent clears the used slots before
    each p2p dispatch (runs are strictly serialized, every worker has
    reported before the next dispatch).
    """

    def __init__(self, nworkers: int) -> None:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        t0 = time.perf_counter()
        self.nworkers = nworkers
        self.barrier = ctx.Barrier(nworkers)
        self.p2p = P2PSync([ctx.Event() for _ in range(P2P_EVENT_SLOTS)],
                           ctx.Event())
        self.result_queue = ctx.Queue()
        self.task_queues = [ctx.Queue() for _ in range(nworkers)]
        self.workers = {
            w: ctx.Process(
                target=_pool_worker,
                args=(w, self.task_queues[w], self.result_queue,
                      self.barrier, self.p2p),
                daemon=True,
            )
            for w in range(nworkers)
        }
        for proc in self.workers.values():
            proc.start()
        self.spawn_seconds = time.perf_counter() - t0
        self.runs = 0
        self.broken = False
        self.closed = False
        self.last_load_modes: tuple[str, ...] = ()
        self.last_sync: Optional[str] = None
        self._dirty_events = 0
        self._control_token = 0

    def healthy(self) -> bool:
        return not self.broken and all(
            proc.is_alive() for proc in self.workers.values()
        )

    def abort(self) -> None:
        """Release every waiter, whichever primitive it is parked on
        (:func:`collect_worker_results` calls this on the first
        casualty)."""
        self.barrier.abort()
        self.p2p.abort()

    def run_module(self, module, assignment: Sequence[Sequence[int]],
                   specs: tuple,
                   cache_root: Optional[str],
                   sync: str = "p2p") -> tuple[int, int]:
        """Submit one two-phase execution; returns (fused, peeled) totals.

        Any worker failure marks the pool broken (the shared sync
        primitives are aborted and cannot be reused) and re-raises
        promptly.
        """
        assert len(assignment) == self.nworkers
        if sync == "p2p" and module.nprocs > len(self.p2p.events):
            sync = "barrier"  # more processors than preallocated slots
        if sync == "p2p":
            for ev in self.p2p.events[:self._dirty_events]:
                ev.clear()
            self._dirty_events = module.nprocs
        self.runs += 1
        self.last_sync = sync
        from .faults import active_plan

        plan = active_plan()
        injected = (plan.take_worker_faults(self.nworkers)
                    if plan is not None else {})
        for w, procs in enumerate(assignment):
            self.task_queues[w].put(
                (module.signature, cache_root, module.source, specs,
                 tuple(procs), sync, injected.get(w))
            )
        try:
            results = collect_worker_results(
                self.result_queue, self.workers, self, "mpjit"
            )
        except FastExecError:
            self.broken = True
            raise
        self.last_load_modes = tuple(
            results[w][2] for w in sorted(results)
        )
        fused = sum(r[0] for r in results.values())
        peeled = sum(r[1] for r in results.values())
        return fused, peeled

    def respawn_dead(self, settle_seconds: float = 2.0) -> int:
        """Replace dead workers in place; returns how many were re-forked.

        Warm survivors keep their compiled-module caches and the
        existing queues / barrier / event table are reused — only the
        corpses pay a fork.  Safe only after a *p2p*-mode failure: a
        worker killed inside ``Barrier.wait`` can leave the barrier's
        internal lock held, so the supervisor routes barrier-mode
        casualties to a full teardown instead.

        The abort event stays set while every survivor is rendezvoused
        through a control ack — a survivor still draining the failed
        run's sync must observe the abort, report its stale failure and
        return to its task queue *before* the primitives are reset
        under it.  Raises :class:`FastExecError` when a survivor fails
        to settle within ``settle_seconds`` (caller falls back to a
        full respawn).
        """
        import multiprocessing as mp
        from queue import Empty

        if self.closed:
            raise FastExecError("cannot respawn into a closed pool")
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        dead = [w for w, p in self.workers.items() if not p.is_alive()]
        alive = [w for w in self.workers if w not in dead]
        self._control_token += 1
        token = self._control_token
        for w in alive:
            self.task_queues[w].put((_CONTROL, token))
        pending = set(alive)
        deadline = time.monotonic() + settle_seconds
        while pending:
            if time.monotonic() >= deadline:
                raise FastExecError(
                    f"workers {sorted(pending)} did not settle for "
                    "in-place respawn"
                )
            try:
                wid, ok, payload = self.result_queue.get(timeout=0.05)
            except (Empty, OSError, ValueError):
                continue
            if (ok and isinstance(payload, tuple)
                    and payload[0] == _CONTROL and payload[1] == token):
                pending.discard(wid)
            # anything else is stale fallout from the failed run
        for w in dead:
            self.workers[w].join(timeout=0.2)
            _drain_queue(self.task_queues[w])
        _drain_queue(self.result_queue, seconds=0.05)
        try:
            self.barrier.reset()
        except Exception:  # pragma: no cover - corpse held the lock
            raise FastExecError(
                "barrier could not be reset for in-place respawn"
            ) from None
        self.p2p.reset()
        self._dirty_events = 0
        for w in dead:
            proc = ctx.Process(
                target=_pool_worker,
                args=(w, self.task_queues[w], self.result_queue,
                      self.barrier, self.p2p),
                daemon=True,
            )
            proc.start()
            self.workers[w] = proc
        self.broken = False
        return len(dead)

    def shutdown(self) -> None:
        """Stop every worker (sentinel, then terminate stragglers).

        Idempotent: a second call returns immediately, so a daemon's
        SIGTERM drain path and the interpreter's atexit hook can both
        call it without double-closing queues or re-terminating
        already-reaped processes.
        """
        if self.closed:
            return
        self.closed = True
        for q in self.task_queues:
            try:
                q.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        deadline = time.monotonic() + 5.0
        for proc in self.workers.values():
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self.workers.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.workers.values():
            proc.join(timeout=5)
        for q in [self.result_queue, *self.task_queues]:
            try:
                q.close()
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        self.broken = True

    #: Explicit alias for daemon shutdown paths: ``pool.close()`` reads
    #: naturally next to file/socket teardown and is equally idempotent.
    close = shutdown


_pool: Optional[WorkerPool] = None
_spawns = 0

#: Guards ``_pool`` between the exec path and the supervisor's
#: background recovery thread (reentrant: recovery calls get_pool /
#: stop_pool while already holding it).
_lock = threading.RLock()


def get_pool(nworkers: int) -> WorkerPool:
    """The process-wide pool, (re)spawned when absent, resized or broken.

    Serialized against background recovery: a caller arriving while the
    supervisor is mid-respawn blocks briefly and then finds the healthy
    pool instead of racing it."""
    global _pool, _spawns
    with _lock:
        if _pool is not None and (
            _pool.nworkers != nworkers or not _pool.healthy()
        ):
            stop_pool()
        if _pool is None:
            _pool = WorkerPool(nworkers)
            _spawns += 1
        return _pool


def stop_pool() -> None:
    """Stop the process-wide pool's workers (no-op when there is none)."""
    global _pool
    with _lock:
        if _pool is not None:
            _pool.shutdown()
            _pool = None


def shutdown_pool() -> None:
    """Tear down the process-wide pool and retire the execution arena, so
    no worker and no shared-memory segment survives the call."""
    stop_pool()
    arena.retire_shared()


atexit.register(shutdown_pool)


def pool_stats() -> dict:
    """Observability for benchmarks and the CLI: spawn cost vs reuse."""
    from .supervisor import _supervisor

    respawns = _supervisor.respawns if _supervisor is not None else 0
    if _pool is None:
        return {"alive": False, "spawns": _spawns, "nworkers": 0,
                "runs": 0, "spawn_seconds": 0.0, "last_sync": None,
                "respawns": respawns}
    return {
        "alive": _pool.healthy(),
        "spawns": _spawns,
        "nworkers": _pool.nworkers,
        "runs": _pool.runs,
        "spawn_seconds": round(_pool.spawn_seconds, 6),
        "last_load_modes": list(_pool.last_load_modes),
        "last_sync": _pool.last_sync,
        "p2p_slots": P2P_EVENT_SLOTS,
        "respawns": respawns,
    }


def run_mpjit_module(
    module,
    arrays: MutableMapping[str, np.ndarray],
    max_workers: Optional[int] = None,
    cache_root: Optional[str] = None,
    sync: str = "p2p",
    specs: Optional[tuple] = None,
) -> dict[str, int]:
    """Execute a compiled :class:`JitModule` through the worker pool.

    ``sync="p2p"`` (default) synchronizes the phases point-to-point via
    the module's ``PEEL_DEPS`` map; ``sync="barrier"`` uses the global
    barrier.  The processors are dealt round-robin across
    ``min(nprocs, cores)`` workers (``max_workers`` overrides the core
    count).  With one worker the pool is bypassed entirely — the module
    runs serially in-process, which is bit-identical by construction.

    The workers see only execution-arena specs: ``arrays`` are arena
    views described by ``specs`` (what ``execute_prepared`` passes), or —
    with ``specs=None`` — the caller's own arrays, copied into the arena
    and back."""
    if sync not in ("p2p", "barrier"):
        raise FastExecError(f"unknown sync mode {sync!r}")
    # Validate the env knobs in the parent, before anything is spawned:
    # a typo'd REPRO_SYNC_TIMEOUT / REPRO_FAULTS raises EnvConfigError
    # naming the variable instead of a worker traceback.
    sync_timeout()
    from .faults import active_plan

    active_plan()
    nworkers = _resolve_workers(module.nprocs, max_workers)
    if nworkers == 1:
        return module.run(arrays)
    if specs is not None:
        return _dispatch(module, nworkers, specs, cache_root, sync)
    with arena.borrow() as space:
        views, specs = space.layout(tuple(
            (name, arr.shape, arr.dtype.str) for name, arr in arrays.items()))
        for name, arr in arrays.items():
            np.copyto(views[name], arr)
        stats = _dispatch(module, nworkers, specs, cache_root, sync)
        for name, arr in arrays.items():
            np.copyto(arr, views[name])
    return stats


def _dispatch(module, nworkers: int, specs: tuple, cache_root: Optional[str],
              sync: str) -> dict[str, int]:
    """One pool run over arena ``specs``; failures are classified and the
    pool handed to the supervisor."""
    nprocs = module.nprocs
    pool = None
    try:
        assignment = [
            tuple(range(w, nprocs, nworkers)) for w in range(nworkers)
        ]
        pool = get_pool(nworkers)
        fused, peeled = pool.run_module(
            module, assignment, specs, cache_root, sync=sync
        )
        return {"fused_iterations": fused, "peeled_iterations": peeled}
    except FastExecError as exc:
        # The shared sync primitives are aborted and the pool is marked
        # broken.  Classify the failure, quarantine the casualties, and
        # let the supervisor repair the pool in the background while the
        # caller decides whether to retry (possibly degraded).
        from .supervisor import ExecError, classify_failure, \
            default_supervisor

        failure = classify_failure(exc)
        supervisor = default_supervisor()
        supervisor.record_failure(failure, pool=pool)
        if pool is not None and not pool.healthy():
            supervisor.recover_in_background(pool, nworkers)
        if isinstance(exc, ExecError):
            raise
        raise ExecError(failure) from exc


def run_mpjit(
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int] = None,
    max_workers: Optional[int] = None,
    no_cache: bool = False,
    cache=None,
    sync: str = "p2p",
) -> dict[str, int]:
    """The ``mpjit`` backend: compiled code, real parallel processes.

    Compiles (or fetches from the plan cache) the jit module for
    ``exec_plan`` exactly like the ``jit`` backend, persists its source so
    cold workers can load it by signature, then executes the paper's
    two-phase schedule on the persistent pool."""
    if no_cache:
        from ..codegen.emitpy import compile_plan

        module = compile_plan(exec_plan, strip=strip)
        cache_root = None
    else:
        if cache is None:
            from .plancache import default_cache

            cache = default_cache()
        module = cache.get(exec_plan, strip=strip)
        cache_root = str(cache.root) if cache.persist else None
    return run_mpjit_module(module, arrays, max_workers=max_workers,
                            cache_root=cache_root, sync=sync)
