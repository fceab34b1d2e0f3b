"""The native SPMD thread team: ``run_team`` in every compiled object and
the ``mpjit`` engine it becomes when a plan's ``.so`` is cached.

Each team run creates its threads for the call; per-processor
release/acquire flags replace the pool's events.  These tests hold the
team to the interpreter's bits over the differential matrix, run it
oversubscribed and from concurrent Python threads, drive the ``slow`` /
``stall`` / ``crash`` fault directives through it, and pin the engine
choice: a cached twin runs on threads, a cold plan stays on the pool and
compiles nothing.
"""

import os
import subprocess
import threading
import time

import numpy as np
import pytest

from conftest import copy_arrays, kernel_plans

from repro.codegen import emitc
from repro.kernels import all_kernels
from repro.runtime import checksum, get_backend
from repro.runtime import pool as pool_mod
from repro.runtime.execute import (
    execute_prepared,
    execute_resilient,
    prepare_kernel,
)
from repro.runtime.plancache import default_cache
from repro.runtime.pool import pool_stats, shutdown_pool

pytestmark = pytest.mark.skipif(emitc.find_compiler() is None,
                                reason="no C compiler")

KERNEL_NAMES = sorted(info.name for info in all_kernels())


@pytest.fixture(autouse=True)
def _fresh_engines():
    shutdown_pool()
    yield
    shutdown_pool()


def _setup(kernel, n, procs):
    program, params, plans = kernel_plans(kernel, n, procs)
    if not plans:
        pytest.skip(f"{kernel}: no sequence legal at n={n}")
    rng = np.random.default_rng(3)
    base = {d.name: rng.random(d.concrete_shape(params)) + 1.0
            for d in program.arrays}
    return base, plans


def _interp(kernel, n, procs):
    prep = prepare_kernel(kernel, n=n, procs=procs, backend="vector",
                          need_plans=True)
    return execute_prepared(prep, "interp")[2]


def _jacobi_native(n=33, procs=4):
    """A compiled jacobi plan and fresh seeded arrays for it."""
    prep = prepare_kernel("jacobi", n=n, procs=procs, backend="cjit")
    assert prep.native_modules is not None, prep.native_reason
    return prep.native_modules[0], prep


class TestBitIdentity:
    @pytest.mark.slow
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("procs", [1, 2, 3, 4, 6])
    def test_team_matches_interp_every_grid_strip_and_team_size(
            self, kernel, procs):
        """7 kernels x procs {1,2,3,4,6} x strip {None,1,4} x threads
        {2,3}: bits and iteration counts of the interpreter."""
        base, plans = _setup(kernel, 21 if kernel == "filter" else 13, procs)
        ref = copy_arrays(base)
        want = {"fused_iterations": 0, "peeled_iterations": 0}
        for ep in plans:
            counts = get_backend("interp").run(ep, ref)
            for key in want:
                want[key] += counts[key]
        for strip in (None, 1, 4):
            modules = [emitc.compile_plan_native(ep, strip=strip)
                       for ep in plans]
            for nthreads in (2, 3):
                got = copy_arrays(base)
                totals = {"fused_iterations": 0, "peeled_iterations": 0}
                for module in modules:
                    counts = module.run_team(got, nthreads, timeout=10)
                    for key in totals:
                        totals[key] += counts[key]
                for name in ref:
                    assert np.array_equal(ref[name], got[name]), (
                        kernel, procs, strip, nthreads, name)
                assert totals == want, (kernel, procs, strip, nthreads)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity control")
    def test_oversubscribed_team_finishes(self):
        """Four threads on (at most) two CPUs: a waiter yields, so a
        descheduled producer still gets to signal."""
        module, prep = _jacobi_native(n=65, procs=6)
        ref = prep.alloc()
        module.run(ref)
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, sorted(mask)[:2])
        try:
            t0 = time.monotonic()
            for _ in range(20):
                got = prep.alloc()
                module.run_team(got, 4, timeout=10)
                assert checksum(got) == checksum(ref)
            assert time.monotonic() - t0 < 10
        finally:
            os.sched_setaffinity(0, mask)

    def test_concurrent_calls_on_one_object(self):
        """Flags live on each call's stack: two Python threads driving
        one ``.so`` over their own arrays both get the reference bits."""
        module, prep = _jacobi_native()
        ref = prep.alloc()
        module.run(ref)
        want = checksum(ref)
        digests, errors = [], []

        def worker():
            try:
                for _ in range(25):
                    arrays = prep.alloc()
                    module.run_team(arrays, 2, timeout=10)
                    digests.append(checksum(arrays))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert digests == [want] * 50


class TestFaults:
    """``take_worker_faults`` drives the team like the pool."""

    def _prep(self):
        _jacobi_native()  # compile the twin
        prep = prepare_kernel("jacobi", n=33, procs=4, backend="mpjit")
        assert prep.native_modules is not None
        return prep

    def test_stall_times_out_as_sync_timeout(self, monkeypatch):
        from repro.runtime import faults
        from repro.runtime.supervisor import ExecError

        monkeypatch.setenv(pool_mod.ENV_SYNC_TIMEOUT, "1")
        prep = self._prep()
        faults.install_plan(faults.FaultPlan.parse("stall@run=1",
                                                   source="test"))
        t0 = time.monotonic()
        with pytest.raises(ExecError) as excinfo:
            execute_prepared(prep, "mpjit", max_workers=2)
        elapsed = time.monotonic() - t0
        assert 0.9 <= elapsed < 4.0
        assert excinfo.value.failure.kind == "sync_timeout"
        assert pool_stats()["engine"] == "threads"
        # the next run is healthy: nothing to repair after a team run
        assert execute_prepared(prep, "mpjit", max_workers=2)[2] == \
            _interp("jacobi", 33, 4)

    def test_slow_and_delayed_stall_keep_the_digest(self):
        from repro.runtime import faults

        prep = self._prep()
        want = _interp("jacobi", 33, 4)
        faults.install_plan(faults.FaultPlan.parse(
            "slow@run=1:seconds=0.05;stall@run=2:worker=1:seconds=0.05",
            source="test"))
        for _ in range(3):
            assert execute_prepared(prep, "mpjit", max_workers=2)[2] == want
        fired = [c["fired"] for c in faults.active_plan().describe()["clauses"]]
        assert fired == [1, 1]

    def test_crash_degrades_to_jit_with_the_same_digest(self):
        """A thread cannot die alone: an injected crash fails the team
        run with the failure a dead worker produces, and the ladder
        steps down to jit.  No process dies."""
        import multiprocessing as mp

        from repro.runtime import faults
        from repro.runtime.supervisor import default_supervisor

        prep = self._prep()
        faults.install_plan(faults.FaultPlan.parse(
            "crash@run=1:exitcode=41", source="test"))
        _s, _c, digest, recovery = execute_resilient(prep, "mpjit",
                                                     max_workers=2)
        assert digest == _interp("jacobi", 33, 4)
        assert recovery["backend_used"] == "jit"
        assert recovery["degraded"] is True
        assert recovery["attempts"] == [{"backend": "mpjit",
                                         "kind": "worker_crash"}]
        last = default_supervisor().stats()["last_failure"]
        assert last == {"kind": "worker_crash", "workers": [0],
                        "exitcodes": [41]}
        assert not mp.active_children()
        assert pool_stats()["alive"] is False


class TestEngineChoice:
    def test_cold_mpjit_prep_compiles_nothing_and_uses_the_pool(
            self, monkeypatch):
        def no_cc(*args, **kwargs):
            raise AssertionError("mpjit ran the C compiler")

        monkeypatch.setattr(emitc, "compile_c", no_cc)
        prep = prepare_kernel("jacobi", n=33, procs=4, backend="mpjit")
        assert prep.native_modules is None
        assert prep.cache_stats["native_misses"] == 0
        assert execute_prepared(prep, "mpjit", max_workers=2)[2] == \
            _interp("jacobi", 33, 4)
        stats = pool_stats()
        assert stats["engine"] == "processes"
        assert stats["last_load_modes"] == ["disk", "disk"]

    def test_twin_compiled_after_the_prep_is_found_in_memory(self):
        prep = prepare_kernel("jacobi", n=33, procs=4, backend="mpjit")
        execute_prepared(prep, "mpjit", max_workers=2)
        assert pool_stats()["engine"] == "processes"
        _jacobi_native()
        runs = pool_stats()["runs"]
        assert execute_prepared(prep, "mpjit", max_workers=2)[2] == \
            _interp("jacobi", 33, 4)
        stats = pool_stats()
        assert stats["engine"] == "threads"
        assert stats["nworkers"] == 2
        assert stats["runs"] == runs + 1
        assert stats["last_sync"] == "p2p"
        assert stats["last_load_modes"] == []

    def test_registry_run_uses_a_twin_on_disk(self):
        """``run_mpjit`` finds a ``.so`` another process compiled: the
        fresh cache instance has nothing in memory."""
        from repro.runtime import plancache

        ep = kernel_plans("ll18", 33, 4)[2][0]
        get_backend("cjit").run(ep, _setup("ll18", 33, 4)[0])
        plancache.reset_default_cache()
        base = _setup("ll18", 33, 4)[0]
        ref, got = copy_arrays(base), copy_arrays(base)
        get_backend("interp").run(ep, ref)
        get_backend("mpjit").run(ep, got, max_workers=3)
        assert checksum(got) == checksum(ref)
        stats = pool_stats()
        assert (stats["engine"], stats["nworkers"]) == ("threads", 3)
        assert default_cache().stats.native_disk_hits == 1

    def test_pool_stats_have_one_shape(self):
        keys = set(pool_stats())
        assert pool_stats()["engine"] is None
        prep = prepare_kernel("jacobi", n=33, procs=4, backend="mpjit")
        execute_prepared(prep, "mpjit", max_workers=2)
        assert set(pool_stats()) == keys
        _jacobi_native()
        execute_prepared(prep, "mpjit", max_workers=2)
        assert set(pool_stats()) == keys
        shutdown_pool()
        assert set(pool_stats()) == keys
        assert pool_stats()["runs"] == 0

    def test_exec_record_reports_the_engine(self):
        from repro.runtime.benchmarking import measure_kernel

        cold = measure_kernel("ll18", "mpjit", n=33, procs=4, repeat=1,
                              max_workers=2)
        assert cold["engine"] == "processes"
        measure_kernel("ll18", "cjit", n=33, procs=4, repeat=1)
        warm = measure_kernel("ll18", "mpjit", n=33, procs=4, repeat=2,
                              max_workers=2)
        assert warm["engine"] == "threads"
        assert warm["pool_workers"] == 2
        assert [s["pool_runs"] for s in warm["samples"]] == [1, 1]
        assert warm["checksum"] == cold["checksum"]


class TestStaleObjects:
    def test_object_without_run_team_rejected_and_recompiled(self):
        """An object built before the team (codegen v4: the plan TU
        alone) — or one claiming the current version without
        ``run_team`` — is never loaded; ``get_native`` quarantines and
        recompiles it."""
        cache = default_cache()
        ep = kernel_plans("jacobi", 33, 4)[2][0]
        sig = ep.signature()
        so = cache.native_path(sig, emitc.compiler_fingerprint())
        so.parent.mkdir(parents=True, exist_ok=True)
        current = f"REPRO_CODEGEN_VERSION = {emitc.CODEGEN_VERSION};"
        source = emitc.emit_plan_c_source(ep)
        assert current in source
        c_path = so.with_suffix(".old.c")
        cc = emitc.find_compiler()
        for version, match in ((emitc.CODEGEN_VERSION - 1, "codegen v4"),
                               (emitc.CODEGEN_VERSION, "run_team")):
            c_path.write_text(source.replace(
                current, f"REPRO_CODEGEN_VERSION = {version};"))
            old = so.with_suffix(f".v{version}.so")
            subprocess.run([cc, *emitc.CFLAGS, "-o", str(old), str(c_path)],
                           check=True)
            with pytest.raises(emitc.CJitCompileError, match=match):
                emitc.load_native(old, expected_signature=sig)
        os.replace(old, so)
        module, reason = cache.get_native(ep)
        assert module is not None and reason is None
        assert cache.stats.native_quarantined == 1
        assert cache.stats.native_misses == 1
        base = _setup("jacobi", 33, 4)[0]
        ref, got = copy_arrays(base), copy_arrays(base)
        module.run(ref)
        module.run_team(got, 2, timeout=10)
        assert checksum(got) == checksum(ref)
