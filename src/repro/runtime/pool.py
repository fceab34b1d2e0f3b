"""mpjit: the paper's SPMD schedule on real parallel hardware.

The paper's execution model (Figs. 12/13) is SPMD: every processor runs
its *fused* boxes, synchronizes, then runs its *peeled* boxes.  The
paper's global barrier between the phases is replaced by point-to-point
sync: each processor signals "fused done", and each peeled phase waits
only on its named predecessors — the module's ``PEEL_DEPS`` map, derived
by :func:`repro.core.syncdeps.peel_predecessors`.  The plan cache picks
one of two engines per module, once
(:meth:`~repro.runtime.plancache.PlanCache.resolve`), and
:func:`run_modules` runs it:

* **threads** — when the plan cache holds the module's native (``cjit``)
  twin and the team library that walks it, one
  :meth:`~repro.codegen.emitc.CJitModule.run_team` call runs the schedule
  on the process-wide native team (threads that persist and park between
  runs, :func:`~repro.codegen.emitc.native_team`), over the caller's own
  arrays, with a release/acquire flag per processor (the
  compiler-generated producer/consumer sync of Liao et al.).  No IPC, no
  pickled tasks; ctypes releases the GIL for the call.
* **processes** — otherwise (nothing compiled yet, or no team library) a
  :class:`WorkerPool` of long-lived OS processes, spawned **once** and
  reused, runs the numpy :class:`~repro.codegen.emitpy.JitModule`.  Each
  worker keeps its compiled modules in memory by plan signature; a cold
  worker loads the generated source from the on-disk plan cache (the
  parent already persisted it) and pays one ``compile()``, with the
  source shipped in the task as a fallback for non-persistent caches.
  Workers call ``run_fused``/``run_peeled`` for their processors over the
  execution arena (:mod:`repro.runtime.arena`, one shared-memory segment
  a worker maps once) and signal through :class:`P2PSync` events.

Failure semantics: the parent polls the pool's result queue with liveness
checks (:func:`collect_worker_results`), sets the abort event on the
first casualty (releasing every waiter) and raises a
:class:`~repro.runtime.supervisor.ExecError` (a
:class:`~repro.runtime.fastexec.FastExecError` carrying a classified
:class:`~repro.runtime.supervisor.ExecFailure`) with the worker
traceback.  Failures are classified where they are detected: the parent
knows which workers died, and a worker ships its exception's kind with
its traceback.  A pool whose run failed is killed at once and dropped;
the next :func:`get_pool` spawns a fresh one, with new queues, events
and locks — a killed worker may have died holding any of them, so none
is reused.  A failed team run leaves nothing to replace: every team
thread is parked again before the call returns.

Deterministic fault injection (:mod:`repro.runtime.faults`) drives both
engines through the same :meth:`~repro.runtime.faults.FaultPlan.take_worker_faults`:
pool workers get their directive in the task tuple; a team gets ``slow``
and ``stall`` as a per-thread table, and a ``crash`` fails the run with
the classified failure a dead worker produces (a thread cannot die
alone).  Production dispatch with no active plan pays one ``None``
comparison.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import time
from typing import Mapping, MutableMapping, Optional, Sequence

import numpy as np

from ..codegen.emitc import (
    TEAM_SLOW,
    TEAM_STALL,
    CJitError,
    CJitModule,
    TeamSyncTimeout,
)
from ..core.execplan import check_strip
from . import arena
from .fastexec import EnvConfigError, FastExecError
from .faults import active_plan
from .supervisor import (
    INTERNAL,
    SYNC_TIMEOUT,
    WORKER_CRASH,
    ExecError,
    ExecFailure,
    classify_failure,
    default_supervisor,
)

#: Fused-done events preallocated per pool.  Multiprocessing sync
#: primitives travel only through ``Process`` args at spawn time (never
#: through queues), so the pool allocates its event table up front; a
#: plan with more processors than the table holds respawns the pool with
#: a table that fits (:func:`get_pool`, the same path as a resize).
P2P_EVENT_SLOTS = 128

#: Default backstop for a worker stuck waiting on a fused-done event.
#: The parent aborts the sync as soon as it detects a failure, so in
#: practice a crash surfaces within a fraction of a second; this only
#: bounds the truly pathological case of a parent that died without
#: cleaning up.
DEFAULT_SYNC_TIMEOUT = 600.0

#: Environment override (seconds) for the sync backstop.  The test suite
#: drops it sharply (tests/conftest.py) so sync-failure tests stay
#: time-bounded instead of relying on a 600 s ceiling.
ENV_SYNC_TIMEOUT = "REPRO_SYNC_TIMEOUT"

#: How long the parent keeps draining the result queue after the first
#: failure, so the root-cause traceback wins over the peers' secondary
#: "sync aborted" reports.
_FAILURE_DRAIN_SECONDS = 1.0

#: Poll interval while waiting on a fused-done event; bounds how long a
#: waiter takes to observe the abort flag after a peer dies (the parent
#: sets it on the first casualty).
_P2P_POLL_SECONDS = 0.05


def sync_timeout() -> float:
    """The sync backstop in seconds: ``REPRO_SYNC_TIMEOUT`` when set,
    else :data:`DEFAULT_SYNC_TIMEOUT`.  Read at wait time so workers
    forked before the variable changed still honour it on their next run
    (fork shares the parent's environ).

    Raises :class:`EnvConfigError` naming the variable when it is set to
    something that is not a positive, finite number; :func:`run_mpjit_module`
    validates eagerly so the error surfaces in the parent, not as a
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
    if not math.isfinite(value) or value <= 0:
        raise EnvConfigError(
            f"{ENV_SYNC_TIMEOUT} must be positive and finite, got {raw!r}"
        )
    return value


class SyncAborted(RuntimeError):
    """Point-to-point sync released early: a peer failed, or a fused-done
    signal never arrived within the backstop."""


class P2PSync:
    """Point-to-point fused-done signalling between SPMD workers.

    ``events[p]`` is set exactly once per run, when processor ``p``'s
    fused phase completes; a peeled phase then waits only on the events
    of its named predecessors (:func:`repro.core.syncdeps.peel_predecessors`)
    instead of on a global barrier.  One shared ``abort`` event releases
    every waiter on failure — :func:`collect_worker_results` calls
    ``.abort()`` on the first casualty.

    The events must be created by whoever spawns the worker processes
    (multiprocessing sync primitives travel only through ``Process``
    args / fork inheritance, never through queues).
    """

    def __init__(self, events: Sequence, abort_event) -> None:
        self.events = events
        self.abort_event = abort_event

    def abort(self) -> None:
        self.abort_event.set()

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


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    exposes one (``taskset``, cgroup cpusets), else the machine's core
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_workers(nprocs: int, max_workers: Optional[int]) -> int:
    """Worker count for ``nprocs`` simulated processors.

    ``max_workers=None`` caps at :func:`available_cpus`: one OS process
    per usable *hardware* core, never per simulated processor (a
    56-processor plan on a 4-core host gets 4 workers, each running 14
    processors' boxes in plan order)."""
    if max_workers is None:
        max_workers = available_cpus()
    return max(1, min(nprocs, max_workers))


def collect_worker_results(queue, workers: Mapping[int, object], sync,
                           label: str) -> dict[int, tuple]:
    """Gather one ``(worker_id, ok, payload)`` message per worker; a
    failed worker's payload is ``(kind, traceback)``.

    The queue is polled with a short timeout while checking worker
    liveness, so a worker that dies *before* its ``queue.put`` surfaces as
    a prompt failure instead of a 600 s sync hang.  On any failure
    ``sync.abort()`` is called (releasing the surviving peers) and the
    queue is drained briefly so the root-cause traceback is reported in
    preference to the peers' secondary "sync aborted" notices.

    Raises :class:`ExecError`: ``worker_crash`` naming the dead workers
    and their exit codes when any died, else the kind of the first
    genuine failure (``sync_timeout`` only when nothing else failed).
    """
    from queue import Empty

    results: dict[int, tuple] = {}
    failures: list[tuple[str, str]] = []
    dead: dict[int, Optional[int]] = {}
    pending = set(workers)
    suspect: dict[int, int] = {}
    deadline: Optional[float] = None

    def fail(kind: str, message: str) -> None:
        nonlocal deadline
        sync.abort()
        failures.append((kind, message))
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
                    dead[w] = workers[w].exitcode
                    fail(WORKER_CRASH,
                         f"{label} worker {w} died without reporting a "
                         f"result (exitcode {dead[w]})")
            continue
        pending.discard(wid)
        suspect.pop(wid, None)
        if ok:
            results[wid] = payload
        else:
            kind, text = payload
            fail(kind, f"{label} worker {wid} failed:\n{text}")
    if failures:
        # Order the genuine tracebacks ahead of sync-abort fallout.
        failures.sort(key=lambda f: (f[0] == SYNC_TIMEOUT, f[1]))
        raise ExecError(ExecFailure(
            kind=WORKER_CRASH if dead else failures[0][0],
            message=(f"{label} execution failed ({len(failures)} worker "
                     f"failure(s)):\n"
                     + "\n".join(message for _, message in failures)),
            workers=tuple(dead), exitcodes=tuple(dead.values()),
        ))
    return results


def _apply_worker_fault(fault: Optional[dict]) -> None:
    """Crash or slow a worker per its injected directive (pre-fused)."""
    if fault is None:
        return
    action = fault.get("action")
    if action == "crash":
        os._exit(int(fault.get("exitcode", 97)))
    elif action == "slow":
        time.sleep(float(fault.get("seconds", 0.05)))


def _load_module(modules: dict, signature: str, cache_root: Optional[str],
                 source: str):
    """Resolve a compiled numpy module inside a worker.

    Memory first (warm worker: nothing to do), then the ``.py`` source in
    the on-disk plan cache by signature, then the inline source shipped
    with the task (non-persistent cache).  Returns
    ``(module, 'memory'|'disk'|'inline')``.
    """
    module = modules.get(signature)
    if module is not None:
        return module, "memory"
    mode = "inline"
    if cache_root:
        from .plancache import PlanCache

        module = PlanCache(root=cache_root).peek(signature)
        if module is not None:
            mode = "disk"
    if module is None:
        from ..codegen.emitpy import compile_source

        module = compile_source(source, expected_signature=signature)
    modules[signature] = module
    return module, mode


def _pool_worker(worker_id: int, task_queue, result_queue,
                 p2p: P2PSync) -> None:
    """One long-lived worker: loop over tasks until the pool kills it.

    Each task executes one plan's two-phase schedule for this worker's
    assigned processors, signalling fused-done per processor and waiting
    on each peeled phase's predecessors.  Errors are shipped to the
    parent as ``(kind, traceback)``; a failure releases the peers by
    aborting the sync.
    """
    import traceback

    modules: dict = {}
    attachment = arena.Attachment()
    while True:
        task = task_queue.get()
        signature, cache_root, source, specs, proc_indices, fault = task
        try:
            module, load_mode = _load_module(
                modules, signature, cache_root, source
            )
            arrays = attachment.views(specs)
            _apply_worker_fault(fault)
            stall = (fault if fault is not None
                     and fault.get("action") == "stall" else None)
            fused = 0
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
            result_queue.put(
                (worker_id, True, (fused, peeled, load_mode))
            )
        except SyncAborted as exc:
            result_queue.put((worker_id, False,
                              (SYNC_TIMEOUT, f"p2p sync aborted ({exc})")))
        except BaseException as exc:
            result_queue.put((worker_id, False, (classify_failure(exc).kind,
                                                 traceback.format_exc())))
            p2p.abort()


class WorkerPool:
    """A fixed-size pool of persistent mpjit workers.

    The p2p event table (``slots`` fused-done events plus one abort
    event) is preallocated at spawn time — sync primitives cannot travel
    through the task queues — and indexed by *processor*, so it is
    reused across runs of any plan that fits; the parent clears the used
    slots before each dispatch (runs are strictly serialized, every
    worker has reported before the next dispatch).  A pool is never
    repaired: one whose run failed is shut down and replaced whole
    (:func:`_fail`, :func:`get_pool`).
    """

    def __init__(self, nworkers: int, slots: int) -> None:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        t0 = time.perf_counter()
        self.nworkers = nworkers
        self.p2p = P2PSync([ctx.Event() for _ in range(slots)], ctx.Event())
        self.result_queue = ctx.Queue()
        self.task_queues = [ctx.Queue() for _ in range(nworkers)]
        self.workers = {
            w: ctx.Process(
                target=_pool_worker,
                args=(w, self.task_queues[w], self.result_queue, self.p2p),
                daemon=True,
            )
            for w in range(nworkers)
        }
        for proc in self.workers.values():
            proc.start()
        self.spawn_seconds = time.perf_counter() - t0
        self.runs = 0
        self.closed = False
        self.last_load_modes: tuple[str, ...] = ()
        self._dirty_events = 0

    def run_module(self, module, assignment: Sequence[Sequence[int]],
                   specs: tuple, cache_root: Optional[str],
                   faults) -> tuple[int, int]:
        """Submit one two-phase execution; returns (fused, peeled) totals.
        ``faults`` is the active fault plan (None in production).  Any
        worker failure raises :class:`ExecError` promptly, and the pool
        must not run again."""
        assert len(assignment) == self.nworkers
        assert module.nprocs <= len(self.p2p.events)
        for ev in self.p2p.events[:self._dirty_events]:
            ev.clear()
        self._dirty_events = module.nprocs
        self.runs += 1
        injected = (faults.take_worker_faults(self.nworkers)
                    if faults is not None else {})
        for w, procs in enumerate(assignment):
            self.task_queues[w].put(
                (module.signature, cache_root, module.source, specs,
                 tuple(procs), injected.get(w))
            )
        results = collect_worker_results(
            self.result_queue, self.workers, self.p2p, "mpjit"
        )
        self.last_load_modes = tuple(
            results[w][2] for w in sorted(results)
        )
        fused = sum(r[0] for r in results.values())
        peeled = sum(r[1] for r in results.values())
        return fused, peeled

    def shutdown(self) -> None:
        """Kill every worker, reap it, then close the queues: one path
        for a healthy pool and a failed one.  ``SIGKILL``, because a
        worker forked from ``repro serve`` inherits the daemon's signal
        handlers, and a ``SIGTERM`` would start the daemon's drain
        instead of ending the worker.

        Idempotent: a second call returns immediately, so a daemon's
        SIGTERM drain path and the interpreter's atexit hook can both
        call it without double-closing queues or re-killing
        already-reaped processes.
        """
        if self.closed:
            return
        self.closed = True
        for proc in self.workers.values():
            proc.kill()
        for proc in self.workers.values():
            proc.join()
        for q in [self.result_queue, *self.task_queues]:
            q.close()

    #: Explicit alias for daemon shutdown paths: ``pool.close()`` reads
    #: naturally next to file/socket teardown and is equally idempotent.
    close = shutdown


_pool: Optional[WorkerPool] = None
_spawns = 0
#: Workers spawned to replace a failed pool; ``_replacing`` is set while
#: a failed pool's replacement is still to be spawned.
_respawns = 0
_replacing = False

#: The last parallel run's engine (``"threads"``/``"processes"``) and
#: thread or worker count, and the parallel runs of both engines since
#: :func:`stop_pool` (a failed pool's replacement does not reset them).
_last = {"engine": None, "size": 0, "runs": 0}
_last_lock = threading.Lock()


def get_pool(nworkers: int, nprocs: int = 0) -> WorkerPool:
    """The process-wide pool, spawned when absent (never started, stopped,
    or dropped after a failed run) and respawned when resized or holding
    fewer fused-done events than ``nprocs`` processors need (the
    respawned table holds ``max(P2P_EVENT_SLOTS, nprocs)``)."""
    global _pool, _spawns, _respawns, _replacing
    if _pool is not None and (
        _pool.nworkers != nworkers or len(_pool.p2p.events) < nprocs
    ):
        stop_pool()
    if _pool is None:
        _pool = WorkerPool(nworkers, max(P2P_EVENT_SLOTS, nprocs))
        _spawns += 1
        if _replacing:
            _respawns += nworkers
            _replacing = False
    return _pool


def stop_pool() -> None:
    """Stop the process-wide pool's workers (no-op when there is none)
    and restart the run counters."""
    global _pool, _replacing
    with _last_lock:
        _last.update(engine=None, size=0, runs=0)
    _replacing = False
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
    """Observability for benchmarks, the CLI and ``repro serve status``:
    the same keys whether or not a pool exists.

    ``engine`` is what the last parallel run used (``"threads"``,
    ``"processes"``, or None before any); ``nworkers`` is that run's
    thread or worker count (the live pool's size before any run), and
    ``runs`` counts the parallel runs of both engines since the pool was
    last stopped.  Single-worker runs execute serially and count nowhere.
    ``respawns`` counts the workers spawned to replace failed pools.
    """
    pool = _pool
    engine = _last["engine"]
    if engine is not None:
        nworkers = _last["size"]
    else:
        nworkers = pool.nworkers if pool is not None else 0
    runs = _last["runs"]
    return {
        "engine": engine,
        "alive": pool is not None and all(
            proc.is_alive() for proc in pool.workers.values()),
        "spawns": _spawns,
        "nworkers": nworkers,
        "runs": runs,
        "spawn_seconds": round(pool.spawn_seconds, 6) if pool else 0.0,
        "last_load_modes": (list(pool.last_load_modes)
                            if pool is not None and engine == "processes"
                            else []),
        "last_sync": "p2p" if runs else None,
        "p2p_slots": len(pool.p2p.events) if pool is not None else 0,
        "respawns": _respawns,
    }


def run_modules(
    backend: str,
    modules: Sequence,
    arrays: MutableMapping[str, np.ndarray],
    cache,
    strip: Optional[int] = None,
    specs: Optional[tuple] = None,
    max_workers: Optional[int] = None,
) -> dict[str, int]:
    """Run the modules ``cache`` resolved for ``backend``
    (:meth:`~repro.runtime.plancache.PlanCache.resolve`) over ``arrays``
    at ``strip`` in order and sum their counters: serially for
    ``jit``/``cjit``, each through :func:`run_mpjit_module` for
    ``mpjit``.  A strip below 1 raises
    :class:`~repro.core.execplan.StripError` before anything runs."""
    check_strip(strip)
    totals = {"fused_iterations": 0, "peeled_iterations": 0}
    for module in modules:
        if backend == "mpjit":
            stats = run_mpjit_module(module, arrays, strip=strip,
                                     max_workers=max_workers, cache=cache,
                                     specs=specs)
        else:
            stats = _run_serial(module, arrays, strip)
        for key in totals:
            totals[key] += stats.get(key, 0)
    return totals


def _run_serial(module, arrays: MutableMapping[str, np.ndarray],
                strip: Optional[int]) -> dict[str, int]:
    """``module`` in this thread.  A numpy module ignores ``strip``; a
    native one is one ``run_serial`` call into the team library, whose
    failure (a body's scratch allocation, say) is an ``internal`` one.
    No pool or team counter moves: this is not an mpjit team run."""
    if not isinstance(module, CJitModule):
        return module.run(arrays)
    try:
        return module.run(arrays, strip=strip)
    except CJitError as exc:
        raise ExecError(ExecFailure(
            kind=INTERNAL, message=f"native run failed: {exc}")) from exc


def run_mpjit_module(
    module,
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int] = None,
    max_workers: Optional[int] = None,
    cache=None,
    specs: Optional[tuple] = None,
) -> dict[str, int]:
    """Execute one compiled module on ``min(nprocs, available_cpus())``
    workers (``max_workers`` overrides the CPU count), processors dealt
    round-robin.

    A native :class:`~repro.codegen.emitc.CJitModule` (a twin the plan
    cache held) runs as one team of threads over ``arrays`` at ``strip``;
    a numpy
    :class:`~repro.codegen.emitpy.JitModule` runs on the worker pool,
    whose cold workers load it by signature from ``cache``'s directory
    when that persists, else from the source shipped in the task.  The
    pool sees only execution-arena specs: ``arrays`` are arena views
    described by ``specs`` (what ``execute_prepared`` passes), or — with
    ``specs=None`` — the caller's own arrays, copied into the arena and
    back.  With one worker either module runs serially in-process, which
    is bit-identical by construction."""
    # Read the env knobs once, before anything runs: a typo'd
    # REPRO_SYNC_TIMEOUT / REPRO_FAULTS raises EnvConfigError naming the
    # variable instead of a worker traceback.
    timeout = sync_timeout()
    faults = active_plan()
    nworkers = _resolve_workers(module.nprocs, max_workers)
    if nworkers == 1:
        return _run_serial(module, arrays, strip)
    if isinstance(module, CJitModule):
        return _run_team(module, arrays, nworkers, strip, timeout, faults)
    cache_root = (str(cache.root) if cache is not None and cache.persist
                  else None)
    if specs is not None:
        return _dispatch(module, nworkers, specs, cache_root, faults)
    with arena.borrow() as space:
        views, specs = space.layout(tuple(
            (name, arr.shape, arr.dtype.str) for name, arr in arrays.items()))
        for name, arr in arrays.items():
            np.copyto(views[name], arr)
        stats = _dispatch(module, nworkers, specs, cache_root, faults)
        for name, arr in arrays.items():
            np.copyto(arr, views[name])
    return stats


def _team_faults(injected: Mapping[int, dict], nthreads: int) -> list:
    """The ``run_team`` fault table for this run's ``slow``/``stall``
    directives: one ``(action, proc, usec)`` row per thread."""
    rows = [(0, 0, 0)] * nthreads
    for w, fault in injected.items():
        seconds = fault.get("seconds")
        if fault["action"] == "slow":
            rows[w] = (TEAM_SLOW, -1, round(
                1e6 * (0.05 if seconds is None else seconds)))
        elif fault["action"] == "stall":
            proc = fault.get("proc")
            rows[w] = (TEAM_STALL, -1 if proc is None else proc,
                       -1 if seconds is None else round(1e6 * seconds))
    return rows


def _run_team(module, arrays: MutableMapping[str, np.ndarray],
              nthreads: int, strip: Optional[int], timeout: float,
              faults) -> dict[str, int]:
    """One run on the process-wide native team (``faults``: the active
    fault plan or None); a failure is classified and recorded like a pool
    failure.  An injected ``crash`` fails the run as the ``worker_crash``
    a dead pool worker produces (a thread cannot die alone)."""
    injected = (faults.take_worker_faults(nthreads)
                if faults is not None else {})
    with _last_lock:
        _last.update(engine="threads", size=nthreads, runs=_last["runs"] + 1)
    crashed = {w: fault["exitcode"] for w, fault in sorted(injected.items())
               if fault["action"] == "crash"}
    if crashed:
        _fail(ExecError(ExecFailure(
            kind=WORKER_CRASH,
            message=f"mpjit team threads {list(crashed)} crashed (injected)",
            workers=tuple(crashed), exitcodes=tuple(crashed.values()))))
    try:
        return module.run_team(
            arrays, nthreads, strip=strip, timeout=timeout,
            faults=_team_faults(injected, nthreads) if injected else None)
    except CJitError as exc:
        _fail(ExecError(ExecFailure(
            kind=(SYNC_TIMEOUT if isinstance(exc, TeamSyncTimeout)
                  else INTERNAL),
            message=f"mpjit team run failed: {exc}")))


def _dispatch(module, nworkers: int, specs: tuple,
              cache_root: Optional[str], faults) -> dict[str, int]:
    """One pool run over arena ``specs`` (``faults``: the active fault
    plan or None); a failed run's pool is killed (:func:`_fail`)."""
    nprocs = module.nprocs
    pool = None
    try:
        assignment = [
            tuple(range(w, nprocs, nworkers)) for w in range(nworkers)
        ]
        pool = get_pool(nworkers, nprocs)
        with _last_lock:
            _last.update(engine="processes", size=nworkers,
                         runs=_last["runs"] + 1)
        fused, peeled = pool.run_module(module, assignment, specs,
                                        cache_root, faults)
        return {"fused_iterations": fused, "peeled_iterations": peeled}
    except FastExecError as exc:
        _fail(exc, pool)


def _fail(exc: FastExecError, pool: Optional[WorkerPool] = None):
    """Classify ``exc`` and record it, kill ``pool`` (the one the failed
    run used, if any) so the next :func:`get_pool` spawns a fresh one,
    then raise ``exc`` as an ``ExecError``."""
    global _pool, _replacing
    failure = classify_failure(exc)
    default_supervisor().record_failure(failure, pool=pool)
    if pool is not None:
        if _pool is pool:
            _pool, _replacing = None, True
        pool.shutdown()
    if isinstance(exc, ExecError):
        raise exc
    raise ExecError(failure) from exc
