"""The native SPMD thread team: one process-wide library
(``emitc.TEAM_SOURCE``) and the ``mpjit`` engine it becomes when a plan's
``.so`` is cached.

The team's threads persist: created on first use, grown to the largest
team asked for, parked between runs; per-processor release/acquire flags
replace the pool's events.  These tests hold the team to the
interpreter's bits over the differential matrix, grow it, fork it, watch
it park, run it oversubscribed and from concurrent Python threads, drive
the ``slow`` / ``stall`` / ``crash`` fault directives through it, pin the
engine choice (a cached twin runs on threads, a cold plan stays on the
pool and compiles nothing) and the library's cache key.
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
        """7 kernels x procs {1,2,3,4,6} x strip {None,1,2,3,4,7,n} x
        threads {2,3}, one object per plan for every strip: bits and
        iteration counts of the interpreter."""
        n = 21 if kernel == "filter" else 13
        base, plans = _setup(kernel, n, procs)
        ref = copy_arrays(base)
        want = {"fused_iterations": 0, "peeled_iterations": 0}
        for ep in plans:
            counts = get_backend("interp").run(ep, ref)
            for key in want:
                want[key] += counts[key]
        modules = [emitc.compile_plan_native(ep) for ep in plans]
        for strip in (None, 1, 2, 3, 4, 7, n):
            for nthreads in (2, 3):
                got = copy_arrays(base)
                totals = {"fused_iterations": 0, "peeled_iterations": 0}
                for module in modules:
                    counts = module.run_team(got, nthreads, strip=strip,
                                             timeout=10)
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
        """Runs are serialised on the one team: two Python threads
        driving one ``.so`` over their own arrays both get the reference
        bits."""
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


def _team_cpu_ns() -> int:
    """CPU time the team's worker threads have used, in ns (Linux
    ``schedstat``; the threads are named ``repro-team``)."""
    total = 0
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/comm") as fh:
                if fh.read().strip() != "repro-team":
                    continue
            with open(f"/proc/self/task/{task}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except OSError:
            continue  # the task is gone
    return total


_GROWTH_SCRIPT = """
import sys
sys.setswitchinterval(1e-6)
from repro.codegen import emitc
from repro.runtime import checksum
from repro.runtime.execute import prepare_kernel

prep = prepare_kernel("jacobi", n=33, procs=6, backend="cjit")
module = prep.native_modules[0]
assert module.nprocs >= 4, module.nprocs
ref = prep.alloc()
module.run(ref)
want = checksum(ref)
assert emitc.team_workers() == 0
grown = 0
for nthreads in (2, 3, 4, 2, 4):
    for _ in range(30):
        got = prep.alloc()
        module.run_team(got, nthreads, timeout=10)
        assert checksum(got) == want, nthreads
    grown = max(grown, nthreads - 1)
    assert emitc.team_workers() == grown, (nthreads, emitc.team_workers())
print("ok")
"""


_NO_THREADS_SCRIPT = """
import resource
from repro.codegen import emitc
from repro.runtime import checksum
from repro.runtime.execute import prepare_kernel

prep = prepare_kernel("jacobi", n=33, procs=4, backend="cjit")
module = prep.native_modules[0]
ref = prep.alloc()
module.run(ref)
got = prep.alloc()
emitc.native_team()
# leave 4 MiB of address space: no room for a thread's 8 MiB stack
with open("/proc/self/statm") as fh:
    size = int(fh.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (4 << 20), hard))
module.run_team(got, 2, timeout=10)
assert emitc.team_workers() == 0
assert checksum(got) == checksum(ref)
print("ok")
"""


def _run_script(script: str) -> None:
    """Run ``script`` in a fresh interpreter (a fresh team) and require
    that it prints ``ok``."""
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


class TestLifecycle:
    """The process-wide team: grown on demand, parked between runs,
    rebuilt after ``fork``, one run at a time."""

    def test_team_grows_across_calls_and_stays_bit_identical(self):
        """2 -> 3 -> 4 threads (then down and up again) in a fresh
        process under a 1 us switch interval: every run gives the serial
        bits, so a thread created for a run never misses that run."""
        _run_script(_GROWTH_SCRIPT)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs Linux /proc")
    def test_a_team_that_cannot_grow_runs_serially(self):
        """No address space for a thread stack: ``pthread_create`` fails,
        and the run is serial with the same bits."""
        _run_script(_NO_THREADS_SCRIPT)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_builds_a_fresh_team(self):
        """A child forked after a team run inherits no threads: its first
        run builds a team and gives the parent's digest."""
        module, prep = _jacobi_native()
        arrays = prep.alloc()
        module.run_team(arrays, 2, timeout=10)
        want = checksum(arrays)
        assert emitc.team_workers() >= 1
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by exit code
            code = 1
            try:
                fresh = emitc.team_workers() == 0
                got = prep.alloc()
                module.run_team(got, 2, timeout=10)
                if fresh and checksum(got) == want \
                        and emitc.team_workers() >= 1:
                    code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's team run hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
        # the parent's team is untouched
        again = prep.alloc()
        module.run_team(again, 2, timeout=10)
        assert checksum(again) == want

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs Linux /proc task stats")
    def test_idle_workers_park(self):
        """After a run plus the bounded spin, the team's threads sleep:
        their CPU time stops growing."""
        module, prep = _jacobi_native(n=65, procs=4)
        arrays = prep.alloc()
        for _ in range(20):
            module.run_team(arrays, 3, timeout=10)
        assert _team_cpu_ns() > 0
        time.sleep(0.1)
        before = _team_cpu_ns()
        time.sleep(0.3)
        assert _team_cpu_ns() - before < 5_000_000  # 5 ms of 300

    def test_two_objects_run_concurrently(self):
        """Two Python threads drive two different objects at once; runs
        take turns on the one team and both keep their bits."""
        jobs = []
        for kernel in ("jacobi", "ll18"):
            prep = prepare_kernel(kernel, n=33, procs=4, backend="cjit")
            module = prep.native_modules[0]
            ref = prep.alloc()
            module.run(ref)
            jobs.append((module, prep, checksum(ref)))
        errors, digests = [], [[], []]

        def worker(k):
            module, prep, _want = jobs[k]
            try:
                for _ in range(25):
                    arrays = prep.alloc()
                    module.run_team(arrays, 2, timeout=10)
                    digests[k].append(checksum(arrays))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        assert [set(d) for d in digests] == [{want} for _m, _p, want in jobs]
        assert [len(d) for d in digests] == [25, 25]


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
        workers = emitc.team_workers()
        assert workers >= 1
        # the next run on the same persistent team is healthy: nothing to
        # repair, no thread replaced
        assert execute_prepared(prep, "mpjit", max_workers=2)[2] == \
            _interp("jacobi", 33, 4)
        assert emitc.team_workers() == workers

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sync_timeout_is_a_config_error(self, bad,
                                                       monkeypatch):
        """A non-finite backstop is refused before the team runs, as the
        config error naming the variable (not a ``ValueError`` or
        ``OverflowError`` from the deadline arithmetic)."""
        from repro.runtime.fastexec import EnvConfigError

        prep = self._prep()
        with monkeypatch.context() as env:
            env.setenv(pool_mod.ENV_SYNC_TIMEOUT, bad)
            with pytest.raises(EnvConfigError,
                               match=pool_mod.ENV_SYNC_TIMEOUT):
                execute_prepared(prep, "mpjit", max_workers=2)
        assert execute_prepared(prep, "mpjit", max_workers=2)[2] == \
            _interp("jacobi", 33, 4)

    def test_explicit_zero_seconds_is_no_delay(self):
        """``slow@…:seconds=0`` is no delay in the team's fault table;
        only an absent ``seconds`` defaults to 50 ms."""
        from repro.runtime.faults import FaultPlan

        plan = FaultPlan.parse("slow@run=1:seconds=0;slow@run=1:worker=1")
        assert pool_mod._team_faults(plan.take_worker_faults(3), 3) == [
            (emitc.TEAM_SLOW, -1, 0), (emitc.TEAM_SLOW, -1, 50000),
            (0, 0, 0)]

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
            raise AssertionError("the C compiler ran")

        # every compile starts here: a cjit prep on the same patch trips it
        monkeypatch.setattr(emitc, "start_compile", no_cc)
        prep = prepare_kernel("jacobi", n=33, procs=4, backend="mpjit")
        assert prep.native_modules is None
        assert prep.cache_stats["native_misses"] == 0
        assert execute_prepared(prep, "mpjit", max_workers=2)[2] == \
            _interp("jacobi", 33, 4)
        stats = pool_stats()
        assert stats["engine"] == "processes"
        assert stats["last_load_modes"] == ["disk", "disk"]
        with pytest.raises(AssertionError, match="the C compiler ran"):
            prepare_kernel("jacobi", n=33, procs=4, backend="cjit")

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
        """The registry's mpjit finds a ``.so`` another process compiled: the
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
    def test_v4_and_v5_objects_rejected_by_version_and_recompiled(self):
        """Objects of older codegens are never loaded: v4 (the plan TU
        alone) and v5 (the per-call team linked in, modelled here by a
        ``run_team`` symbol) fail on their version; ``get_native``
        quarantines one at the cache path and recompiles it."""
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
        for version, extra in ((4, ""),
                               (5, "\nlong run_team(void) { return 0; }\n")):
            c_path.write_text(source.replace(
                current, f"REPRO_CODEGEN_VERSION = {version};") + extra)
            old = so.with_suffix(f".v{version}.so")
            subprocess.run([cc, *emitc.CFLAGS, "-o", str(old), str(c_path)],
                           check=True)
            with pytest.raises(emitc.CJitCompileError,
                               match=f"codegen v{version}, expected "
                                     f"v{emitc.CODEGEN_VERSION}"):
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



class TestTeamLibrary:
    def test_team_library_is_keyed_by_compiler_fingerprint(
            self, tmp_path, monkeypatch):
        """A library built under one compiler fingerprint is never loaded
        for another: the new fingerprint builds its own file."""
        cc = emitc.find_compiler()
        old_name = emitc.team_file_name(cc)
        emitc.load_team(tmp_path, cc)
        monkeypatch.setitem(emitc._identities, cc, "another cc 1.0")
        new_name = emitc.team_file_name(cc)
        assert new_name != old_name
        assert new_name.startswith(f"team.{emitc.compiler_fingerprint(cc)}.")
        lib = emitc.load_team(tmp_path, cc)
        assert os.path.basename(lib._name) == new_name
        assert sorted(p.name for p in tmp_path.glob("team.*.so")) == \
            sorted([old_name, new_name])

    def test_an_unloadable_team_library_is_rebuilt(self, tmp_path):
        cc = emitc.find_compiler()
        path = tmp_path / emitc.team_file_name(cc)
        path.write_bytes(b"not an ELF object")
        lib = emitc.load_team(tmp_path, cc)
        assert lib.team_workers() == 0
        assert path.stat().st_size > 1000

    def test_unwritable_cache_builds_in_a_temp_dir(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        lib = emitc.load_team(blocker, emitc.find_compiler())
        assert lib.team_workers() == 0
        assert blocker.is_file()

    def test_plan_compiles_neither_build_nor_count_the_team(self, monkeypatch):
        """The team is built at the first team run, never inside a plan
        compile, and no plan-cache counter sees it."""
        calls = []
        start_compile = emitc.start_compile
        monkeypatch.setattr(emitc, "start_compile",
                            lambda *a, **kw: calls.append(a[0]) or
                            start_compile(*a, **kw))
        cache = default_cache()
        ep = kernel_plans("jacobi", 33, 4)[2][0]
        cache.get_native(ep)
        assert calls == [emitc.emit_plan_c_source(ep)]
        assert not list(cache.version_dir.glob("team.*.so"))
        before = cache.stats.as_dict()
        emitc.load_team(cache.team_dir(), emitc.find_compiler())
        assert cache.stats.as_dict() == before
        assert list(cache.version_dir.glob("team.*.so"))
        # the team build passed the same choke point
        assert calls[1:] == [emitc.TEAM_SOURCE]
