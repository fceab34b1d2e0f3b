"""Worker-crash safety for the mpjit worker pool.

A parallel runtime is only production-grade if a dead worker surfaces as
a prompt, informative error instead of a 600 s sync hang.  These tests
inject failures into one worker — a Python exception (the traceback must
travel to the parent) and a hard ``os._exit`` (the liveness poll must
notice) — and assert that the run raises
:class:`~repro.runtime.fastexec.FastExecError` well under 10 seconds,
leaks no shared-memory segments and leaves no live child processes.
Failure injection relies on ``fork`` start-method inheritance (the
monkeypatched module state is visible in the forked worker), so the
crash tests skip on platforms without ``fork``.
"""

import multiprocessing as mp
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import build_execution_plan, derive_shift_peel
from repro.ir import Affine, Loop, LoopNest, LoopSequence, assign, load
from repro.runtime import pool as pool_mod
from repro.runtime.backend import get_backend, run_compiled
from repro.runtime.fastexec import EnvConfigError, FastExecError
from repro.runtime.pool import (
    P2PSync,
    SyncAborted,
    _resolve_workers,
    pool_stats,
    shutdown_pool,
    sync_timeout,
)

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="crash injection relies on fork inheritance",
)

CRASH_BUDGET_SECONDS = 10.0

#: The registry's mpjit runner over a plan and the caller's arrays.
mpjit = get_backend("mpjit").run


def _plan(n=25, procs=3):
    i = Affine.var("i")
    nsym = Affine.var("n")
    seq = LoopSequence(
        (
            LoopNest((Loop.make("i", 2, nsym - 1),),
                     (assign("a", i, load("b", i)),), name="L1"),
            LoopNest((Loop.make("i", 2, nsym - 1),),
                     (assign("c", i, load("a", i + 1) + load("a", i - 1)),),
                     name="L2"),
        ),
        name="chain",
    )
    plan = derive_shift_peel(seq, ("n",))
    return build_execution_plan(plan, {"n": n}, num_procs=procs)


def _arrays(size=26, seed=11):
    rng = np.random.default_rng(seed)
    return {name: rng.random(size) + 0.5 for name in "abc"}


def _shm_entries():
    """Names of live POSIX shared-memory segments (Linux); None elsewhere."""
    base = Path("/dev/shm")
    if not base.is_dir():
        return None
    return {p.name for p in base.iterdir()}


def _wrap_worker_modules(monkeypatch, **entry_points):
    """Make every module a pool worker loads call ``entry_points[name](
    module, *args)`` in place of its own entry point ``name``.  Patched
    before the pool forks, so the workers inherit it."""
    real = pool_mod._load_module

    class Wrapped:
        def __init__(self, inner):
            self.inner = inner

        def __getattr__(self, name):
            if name in entry_points:
                return lambda *args: entry_points[name](self.inner, *args)
            return getattr(self.inner, name)

    def loader(*args):
        module, mode = real(*args)
        return Wrapped(module), mode

    monkeypatch.setattr(pool_mod, "_load_module", loader)
    return lambda: monkeypatch.setattr(pool_mod, "_load_module", real)


def _raise_in_fused(exc):
    """A ``run_fused`` stand-in raising ``exc`` ahead of the fused phase."""
    def boom(module, proc, arrays):
        raise exc
    return boom


def _exit_in_fused(exitcode):
    """A ``run_fused`` stand-in killing its worker with ``exitcode``."""
    return lambda module, proc, arrays: os._exit(exitcode)


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Crash tests must not inherit (or leave behind) a live pool: a
    patched worker loader is captured at fork time, and a poisoned sync
    must not leak into the next test."""
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.fixture
def leak_check():
    """Assert no new shm segments and no new child processes survive."""
    shm_before = _shm_entries()
    children_before = set(mp.active_children())
    yield
    # A healthy pool deliberately outlives the run; retire it before
    # checking so only *unexpected* survivors count as leaks.
    shutdown_pool()
    leftover = set(mp.active_children()) - children_before
    assert not leftover, f"live child processes leaked: {leftover}"
    if shm_before is not None:
        leaked = _shm_entries() - shm_before
        assert not leaked, f"shared-memory segments leaked: {leaked}"


class TestSyncTimeoutEnv:
    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(pool_mod.ENV_SYNC_TIMEOUT, "42.5")
        assert sync_timeout() == 42.5

    def test_garbage_and_nonpositive_raise_naming_the_variable(
        self, monkeypatch
    ):
        """A typo'd knob must fail loudly at parse time — a silent
        fall-back to 600 s turns a config error into a mystery hang."""
        for bad in ("abc", "1h", "-3", "0"):
            monkeypatch.setenv(pool_mod.ENV_SYNC_TIMEOUT, bad)
            with pytest.raises(EnvConfigError,
                               match=pool_mod.ENV_SYNC_TIMEOUT):
                sync_timeout()

    def test_unset_and_blank_fall_back(self, monkeypatch):
        monkeypatch.setenv(pool_mod.ENV_SYNC_TIMEOUT, "")
        assert sync_timeout() == pool_mod.DEFAULT_SYNC_TIMEOUT
        monkeypatch.delenv(pool_mod.ENV_SYNC_TIMEOUT)
        assert sync_timeout() == pool_mod.DEFAULT_SYNC_TIMEOUT

    @needs_fork
    def test_bad_env_rejected_before_any_fork(self, monkeypatch):
        """mpjit validates the knob in the parent — the error names the
        variable instead of surfacing as a worker traceback."""
        monkeypatch.setenv(pool_mod.ENV_SYNC_TIMEOUT, "soon")
        with pytest.raises(EnvConfigError,
                           match=pool_mod.ENV_SYNC_TIMEOUT):
            mpjit(_plan(), _arrays(), max_workers=2)
        assert pool_stats()["alive"] is False  # nothing was spawned

    def test_pytest_suite_runs_bounded(self):
        """The conftest fixture must keep the backstop in seconds, not
        minutes, for every test in this suite."""
        assert sync_timeout() <= 15


class TestP2PSyncUnit:
    """Deterministic unit checks of the event protocol — no processes."""

    def _sync(self, nprocs=3):
        ctx = mp.get_context()
        return P2PSync([ctx.Event() for _ in range(nprocs)], ctx.Event())

    def test_wait_returns_once_preds_signalled(self):
        sync = self._sync()
        sync.signal_fused_done(0)
        sync.signal_fused_done(2)
        sync.wait_for((0, 2))  # must not block
        sync.wait_for(())      # no predecessors: immediate

    def test_abort_releases_waiter_promptly(self):
        """A waiter parked on a never-signalled event must observe the
        abort within the poll interval — the sub-0.2 s failure budget."""
        sync = self._sync()
        sync.abort()
        t0 = time.monotonic()
        with pytest.raises(SyncAborted, match="a peer failed first"):
            sync.wait_for((1,))
        assert time.monotonic() - t0 < 0.2

    def test_timeout_raises_and_aborts_peers(self):
        sync = self._sync()
        with pytest.raises(SyncAborted, match="no fused-done signal"):
            sync.wait_for((1,), timeout=0.15)
        # the timed-out waiter released everyone else
        assert sync.abort_event.is_set()

    def test_no_sync_option_remains(self):
        """Point-to-point is the only phase sync: no execution surface
        takes a ``sync`` option any more."""
        import inspect

        from repro.runtime.benchmarking import measure_kernel
        from repro.runtime.execute import execute_prepared, execute_resilient
        from repro.serve.client import ServeClient
        from repro.serve.loadgen import run_loadgen
        from repro.serve.protocol import CONFIG_FIELDS, ExecKey

        for fn in (run_compiled, pool_mod.run_mpjit_module,
                   pool_mod.WorkerPool.run_module, execute_prepared,
                   execute_resilient, measure_kernel, ServeClient.exec,
                   run_loadgen):
            assert "sync" not in inspect.signature(fn).parameters, fn
        assert "sync" not in CONFIG_FIELDS
        assert "sync" not in ExecKey.__dataclass_fields__


class TestWorkerCount:
    def test_default_worker_count_capped_by_cores(self, monkeypatch):
        """A 56-processor plan must not fork 56 processes on a small host."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        assert _resolve_workers(56, None) == 4
        assert _resolve_workers(2, None) == 2
        # An explicit request still wins (tests use it to force the pool).
        assert _resolve_workers(56, 8) == 8
        assert _resolve_workers(3, 8) == 3
        assert _resolve_workers(3, 0) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_workers(56, None) == 1

    def test_default_worker_count_follows_cpu_affinity(self, monkeypatch):
        """Under ``taskset -c 0`` one worker resolves, however many cores
        the machine has: two workers would poll for one CPU."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert pool_mod.available_cpus() == 1
        assert _resolve_workers(4, None) == 1


class TestMpjitCrashSafety:
    @needs_fork
    def test_worker_exception_ships_traceback(self, monkeypatch,
                                              leak_check):
        from repro.runtime.supervisor import default_supervisor

        _wrap_worker_modules(monkeypatch, run_fused=_raise_in_fused(
            ValueError("injected-mpjit-boom")))
        t0 = time.monotonic()
        with pytest.raises(FastExecError) as excinfo:
            mpjit(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        message = str(excinfo.value)
        assert "injected-mpjit-boom" in message
        assert "Traceback" in message
        # The poisoned pool is repaired off the hot path, not abandoned.
        default_supervisor().wait(timeout=10.0)
        assert pool_stats()["alive"] is True

    @needs_fork
    def test_worker_hard_crash_detected_and_classified(self, monkeypatch,
                                                       leak_check):
        from repro.runtime.supervisor import ExecError, default_supervisor

        _wrap_worker_modules(monkeypatch, run_fused=_exit_in_fused(23))
        t0 = time.monotonic()
        with pytest.raises(ExecError) as excinfo:
            mpjit(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        assert "died without reporting" in str(excinfo.value)
        failure = excinfo.value.failure
        assert failure.kind == "worker_crash"
        assert failure.retryable is True
        assert 23 in failure.exitcodes
        supervisor = default_supervisor()
        supervisor.wait(timeout=10.0)
        assert pool_stats()["alive"] is True
        stats = supervisor.stats()
        assert stats["recoveries"] >= 1
        assert stats["failures"].get("worker_crash", 0) >= 1
        assert any(q["exitcode"] == 23 for q in stats["quarantined"])

    @needs_fork
    def test_peel_phase_exception_after_barrier(self, monkeypatch,
                                                leak_check):
        """An exception in a peeled phase — after the fused-done sync —
        still ships its traceback."""
        def boom(module, proc, arrays):
            raise RuntimeError("injected-peel-boom")

        _wrap_worker_modules(monkeypatch, run_peeled=boom)
        t0 = time.monotonic()
        with pytest.raises(FastExecError, match="injected-peel-boom"):
            mpjit(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS

    @needs_fork
    def test_pool_recovers_after_crash(self, monkeypatch, leak_check):
        """A failed run poisons the pool; after the supervisor's repair
        (or an explicit teardown) the next run must produce correct
        results.  The explicit shutdown here also discards the repaired
        workers, which inherited the patched loader at fork time."""
        from repro.runtime.supervisor import default_supervisor

        restore = _wrap_worker_modules(
            monkeypatch, run_fused=_raise_in_fused(ValueError("poison")))
        with pytest.raises(FastExecError):
            mpjit(_plan(), _arrays(), max_workers=2)
        restore()
        default_supervisor().wait(timeout=10.0)
        shutdown_pool()

        ep = _plan()
        base = _arrays()
        from repro.runtime import run_parallel

        ref = {k: v.copy() for k, v in base.items()}
        expected = run_parallel(ep, ref)
        got = {k: v.copy() for k, v in base.items()}
        stats = mpjit(ep, got, max_workers=2)
        assert stats == {
            "fused_iterations": expected["fused_iterations"],
            "peeled_iterations": expected["peeled_iterations"],
        }
        for name in ref:
            assert np.array_equal(ref[name], got[name]), name
        assert pool_stats()["alive"] is True


class TestP2PCrashPropagation:
    """Crashes on the point-to-point path: a worker dying *before* it
    signals fused-done must fail its dependents promptly (via the parent
    liveness poll + abort event), release shared memory and poison the
    pool — never strand a waiter until the timeout backstop."""

    @needs_fork
    def test_mpjit_partial_fused_crash_releases_waiters(self, monkeypatch,
                                                        leak_check):
        """Worker 0 (procs 0 and 2) dies after signalling proc 0 but
        before proc 2; worker 1's peeled phase waits on proc 2's event
        and must be released by the abort, not the 600 s backstop."""
        calls = {"n": 0}

        def flaky(module, proc, arrays):
            calls["n"] += 1  # per-process state: fork copies it at zero
            if calls["n"] == 2:
                os._exit(29)
            return module.run_fused(proc, arrays)

        _wrap_worker_modules(monkeypatch, run_fused=flaky)
        t0 = time.monotonic()
        with pytest.raises(FastExecError) as excinfo:
            mpjit(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        assert "died without reporting" in str(excinfo.value)
        assert "exitcode 29" in str(excinfo.value)

    @needs_fork
    def test_mpjit_crash_before_fused_done_repaired_in_place(
        self, leak_check
    ):
        """A pool worker dying before any fused-done signal: dependents
        fail fast, the supervisor re-forks only the corpse (warm
        survivors keep their modules — ``spawns`` does not move, and
        ``respawns`` counts the one dead worker), and the next run
        produces the reference bits."""
        from repro.runtime import faults
        from repro.runtime.supervisor import ExecError, default_supervisor

        mpjit(_plan(), _arrays(), max_workers=2)  # warm
        spawns_before = pool_stats()["spawns"]
        faults.install_plan(faults.FaultPlan.parse(
            "crash@run=1:worker=0:exitcode=37", source="test"))
        t0 = time.monotonic()
        with pytest.raises(ExecError) as excinfo:
            mpjit(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        assert "died without reporting" in str(excinfo.value)
        assert excinfo.value.failure.kind == "worker_crash"
        faults.install_plan(None)
        supervisor = default_supervisor()
        supervisor.wait(timeout=10.0)
        stats = pool_stats()
        assert stats["alive"] is True
        assert stats["spawns"] == spawns_before  # in-place, not teardown
        assert stats["respawns"] == 1  # only the corpse was re-forked

        ep = _plan()
        base = _arrays()
        from repro.runtime import run_parallel

        ref = {k: v.copy() for k, v in base.items()}
        run_parallel(ep, ref)
        got = {k: v.copy() for k, v in base.items()}
        mpjit(ep, got, max_workers=2)
        assert pool_stats()["last_sync"] == "p2p"
        for name in ref:
            assert np.array_equal(ref[name], got[name]), name

    @needs_fork
    def test_mpjit_exception_during_p2p_ships_traceback(self, monkeypatch,
                                                        leak_check):
        from repro.runtime.supervisor import default_supervisor

        def boom(module, proc, arrays):
            if proc == 1:  # worker 1's only processor of three
                raise ValueError("injected-p2p-boom")
            return module.run_fused(proc, arrays)

        _wrap_worker_modules(monkeypatch, run_fused=boom)
        t0 = time.monotonic()
        with pytest.raises(FastExecError) as excinfo:
            mpjit(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        message = str(excinfo.value)
        assert "injected-p2p-boom" in message
        assert "Traceback" in message
        default_supervisor().wait(timeout=10.0)
        assert pool_stats()["alive"] is True


class TestP2PEventTable:
    def test_plan_larger_than_event_table_grows_the_pool(
        self, monkeypatch, leak_check
    ):
        """A plan with more processors than the pool's fused-done events
        respawns the pool with a table that fits — one extra spawn, still
        point-to-point, still the reference bits."""
        monkeypatch.setattr(pool_mod, "P2P_EVENT_SLOTS", 2)
        mpjit(_plan(procs=2), _arrays(), max_workers=2)
        spawns = pool_stats()["spawns"]
        assert pool_stats()["p2p_slots"] == 2
        ep = _plan(procs=3)
        base = _arrays()
        from repro.runtime import run_parallel

        ref = {k: v.copy() for k, v in base.items()}
        run_parallel(ep, ref)
        for _ in range(2):
            got = {k: v.copy() for k, v in base.items()}
            mpjit(ep, got, max_workers=2)
            for name in ref:
                assert np.array_equal(ref[name], got[name]), name
        stats = pool_stats()
        assert stats["last_sync"] == "p2p"
        assert stats["p2p_slots"] == 3
        assert stats["spawns"] == spawns + 1

    def test_pool_stats_report_sync_and_slots(self, leak_check):
        mpjit(_plan(), _arrays(), max_workers=2)
        stats = pool_stats()
        assert stats["last_sync"] == "p2p"
        assert stats["p2p_slots"] == pool_mod.P2P_EVENT_SLOTS


class TestPoolLifecycle:
    def test_pool_spawned_once_across_runs(self, leak_check):
        """The fork/spawn cost is paid once and amortized: repeated mpjit
        runs reuse the same workers, and a warm worker re-executes from
        its in-memory module (recompiling nothing)."""
        ep = _plan()
        spawns_before = pool_stats()["spawns"]
        for _ in range(3):
            mpjit(ep, _arrays(), max_workers=2)
        stats = pool_stats()
        assert stats["alive"] is True
        assert stats["spawns"] == spawns_before + 1
        assert stats["runs"] == 3
        assert stats["nworkers"] == 2
        # First run: workers load the parent-persisted source from the
        # on-disk plan cache; afterwards it is memory-resident.
        assert stats["last_load_modes"] == ["memory", "memory"]

    def test_single_worker_bypasses_pool(self, leak_check):
        """With one resolved worker the compiled module runs serially
        in-process — no pool, no shared memory."""
        mpjit(_plan(procs=2), _arrays(), max_workers=1)
        assert pool_stats()["alive"] is False

    def test_worker_loads_from_disk_cache_when_cold(self, leak_check):
        """A cold worker fetches the generated source from the on-disk
        plan cache by signature (one compile, no emission)."""
        mpjit(_plan(), _arrays(), max_workers=2)
        assert pool_stats()["last_load_modes"] == ["disk", "disk"]

    def test_success_leaves_no_shm(self):
        before = _shm_entries()
        if before is None:
            pytest.skip("no /dev/shm on this platform")
        mpjit(_plan(), _arrays(), max_workers=2)
        shutdown_pool()
        assert _shm_entries() - before == set()

    def test_shutdown_is_idempotent(self, leak_check):
        """A daemon's SIGTERM drain and the atexit hook may both reach
        the pool: the second (and third) close must be a silent no-op,
        not a double-close of queues or re-terminate of reaped workers."""
        mpjit(_plan(), _arrays(), max_workers=2)
        pool = pool_mod._pool
        assert pool is not None and not pool.closed
        pool.close()          # the explicit daemon-facing alias
        assert pool.closed
        pool.close()          # second call: no-op
        pool.shutdown()       # and via the original name too
        assert all(not p.is_alive() for p in pool.workers.values())
        # The module-level teardown is equally reentrant, including
        # after the pool object itself was already closed.
        shutdown_pool()
        shutdown_pool()
        assert pool_stats()["alive"] is False

    def test_pool_respawns_after_close(self, leak_check):
        """Closing the pool must not poison the process: the next run
        transparently spawns a fresh pool."""
        mpjit(_plan(), _arrays(), max_workers=2)
        spawns = pool_stats()["spawns"]
        shutdown_pool()
        counters = mpjit(_plan(), _arrays(), max_workers=2)
        assert counters["fused_iterations"] > 0
        assert pool_stats()["spawns"] == spawns + 1
        assert pool_stats()["alive"] is True
