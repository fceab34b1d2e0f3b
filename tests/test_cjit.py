"""The native tier: C emission, the ``.so`` cache, fallback, quarantine.

Bit-identity of the compiled C against the interpreter is the
equivalence suite's job (``test_backend_equivalence.py`` sweeps ``cjit``
with every other backend); this file covers what is *specific* to the
native tier — the compiler discovery and fingerprinting, the
signature+fingerprint ``.so`` cache levels, the pool worker's
native-before-source resolution, the jit fallback when no compiler
exists (checksums must not move, the counter must), and the quarantine
coupling: a corrupt ``.py`` source takes its ``.so``/``.c`` siblings
with it, and a corrupt ``.so`` is never re-dlopened — and the shape of
the translation unit itself: one body per (nest, hazard verdict), the
schedule in tables, so processors do not grow the code and one object
serves every strip.
"""

import os
import stat
import tempfile
import time
import weakref

import numpy as np
import pytest

from conftest import copy_arrays, kernel_plans

from repro.codegen import emitc
from repro.core import build_execution_plan, derive_shift_peel
from repro.core.execplan import PeeledRect
from repro.ir import Affine, Loop, LoopNest, LoopSequence, assign, load
from repro.runtime.backend import checksum, get_backend
from repro.runtime.execute import execute_prepared, prepare_kernel
from repro.runtime.plancache import CacheStats, PlanCache, default_cache

HAVE_CC = emitc.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


@pytest.fixture(autouse=True)
def _fresh_fallback_counters():
    emitc.reset_fallback_stats()
    yield
    emitc.reset_fallback_stats()


def _chain(scale=2.0):
    i = Affine.var("i")
    n = Affine.var("n")
    return LoopSequence(
        (
            LoopNest((Loop.make("i", 2, n - 1),),
                     (assign("a", i, load("b", i) * scale),), name="L1"),
            LoopNest((Loop.make("i", 2, n - 1),),
                     (assign("c", i, load("a", i + 1) + load("a", i - 1)),),
                     name="L2"),
        ),
        name="chain",
    )


def _plan(procs=2, n=17, scale=2.0):
    plan = derive_shift_peel(_chain(scale), ("n",))
    return build_execution_plan(plan, {"n": n}, num_procs=procs)


def _arrays(size=18, seed=0):
    rng = np.random.default_rng(seed)
    return {name: rng.random(size) + 0.5 for name in "abc"}


#: Stub compiler prologue: answer ``--version``, log this process's pid
#: to ``$STUB_PIDS`` (when set), then shift up to ``-o <object>``.
_STUB_HEAD = ('[ "$1" = --version ] && { echo stub cc 1.0; exit 0; }\n'
              '[ -n "$STUB_PIDS" ] && echo $$ >> "$STUB_PIDS"\n'
              'while [ "$1" != "-o" ]; do shift; done\n')
#: ... a compiler that writes part of its object and then hangs
_HANGS = _STUB_HEAD + 'echo partial > "$2"\nexec sleep 5'
#: ... one that writes part of its object and then fails
_FAILS = _STUB_HEAD + 'echo partial > "$2"\necho boom >&2\nexit 3'


def _stub_compiler(tmp_path, body):
    stub = tmp_path / "stubcc"
    stub.write_text(f"#!/bin/sh\n{body}\n")
    stub.chmod(stub.stat().st_mode | stat.S_IXUSR)
    return str(stub)


def _alive(pid: int) -> bool:
    """Whether ``pid`` still exists (a zombie, unreaped, counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestCompilerDiscovery:
    def test_env_var_pins_and_disables(self, monkeypatch):
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        assert emitc.find_compiler() is None
        assert emitc.compiler_fingerprint() is None

    @needs_cc
    def test_fingerprint_stable_and_flag_sensitive(self):
        fp = emitc.compiler_fingerprint()
        assert fp and fp == emitc.compiler_fingerprint()
        assert len(fp) == 12 and all(c in "0123456789abcdef" for c in fp)


@needs_cc
class TestNativeModule:
    def test_source_exports_module_metadata(self):
        ep = _plan()
        source = emitc.emit_plan_c_source(ep)
        for symbol in ("REPRO_SIGNATURE", "REPRO_CODEGEN_VERSION",
                       "REPRO_NPROCS", "REPRO_PEEL_DEPS",
                       "run_fused", "run_peeled"):
            assert symbol in source
        assert ep.signature() in source

    def test_compiled_module_matches_jit_bitwise(self):
        ep = _plan()
        native = emitc.compile_plan_native(ep)
        jit = default_cache().get(ep)
        assert native.nprocs == jit.nprocs
        assert native.peel_deps == jit.peel_deps
        base = _arrays()
        got, ref = copy_arrays(base), copy_arrays(base)
        stats = native.run(got)
        ref_stats = jit.run(ref)
        assert stats == ref_stats
        assert checksum(got) == checksum(ref)

    def test_out_of_range_proc_rejected(self):
        native = emitc.compile_plan_native(_plan())
        with pytest.raises(emitc.CJitError, match="run_fused"):
            native.run_fused(native.nprocs + 3, _arrays())


def _parity_nest_plan():
    """One processor running ``a[2i] = a[2i+1] + b[i]`` over a 3-iteration
    fused box and a 1-iteration peeled rectangle.

    The statement reads the array it writes; only the GCD test proves the
    iterations independent.  The emitter's interval analysis cannot, so a
    multi-iteration box stores through the scratch buffer — but a single
    iteration is trivially disjoint from itself and stores directly: one
    nest, two hazard verdicts in one plan."""
    import dataclasses

    i, n = Affine.var("i"), Affine.var("n")
    seq = LoopSequence(
        (
            LoopNest((Loop.make("i", 1, n - 1),),
                     (assign("a", 2 * i, load("a", 2 * i + 1) + load("b", i)),),
                     name="L1"),
            LoopNest((Loop.make("i", 1, n - 1),),
                     (assign("c", i, load("a", 2 * i) + load("a", 2 * i - 2)),),
                     name="L2"),
        ),
        name="parity",
    )
    ep = build_execution_plan(derive_shift_peel(seq, ("n",)), {"n": 12},
                              num_procs=1)
    proc = dataclasses.replace(
        ep.processors[0],
        fused=(((1, 3),), ((1, 2),)),
        peeled=(PeeledRect(0, ((4, 4),)), PeeledRect(1, ((3, 4),))),
    )
    return dataclasses.replace(ep, processors=(proc,))


@needs_cc
class TestScheduleAsData:
    """Bodies are code, the schedule is data (ISSUE 16)."""

    @pytest.mark.parametrize("kernel", ["jacobi", "ll18", "calc", "filter"])
    def test_code_size_independent_of_processor_count(self, kernel):
        sizes = {}
        for procs in (2, 8):
            # n=129: the smallest benchmark-like size at which all four
            # kernels are legal on 8 processors (filter stops at 5 at n=65)
            _, _, plans = kernel_plans(kernel, 129, procs)
            assert [len(ep.processors) for ep in plans] == [procs]
            source = emitc.emit_plan_c_source(plans[0])
            sizes[procs] = len(source)
            # no kernel here has a self-overlapping statement: one verdict
            # (all direct) per nest, so one body per nest
            assert source.count("static int nest_") == len(plans[0].plan.seq)
        assert sizes[8] <= 1.25 * sizes[2], sizes

    def test_strip_tiles_are_rows_not_code(self):
        """jacobi n=511 at strip=8 is 8192 tiles: walked over the
        whole-box table at run time, so the one object has the same two
        bodies and no tile in its source, and the tiled run stores the
        whole-box run's bits."""
        _, params, (ep,) = kernel_plans("jacobi", 511, 4)
        native = emitc.compile_plan_native(ep)
        assert native.source.count("static int nest_") == 2
        assert len(native.source) < 10_000  # no per-tile rows: 3.5 KB
        rng = np.random.default_rng(7)
        base = {name: rng.random((512, 512)) + 1.0 for name in "ab"}
        got, ref = copy_arrays(base), copy_arrays(base)
        assert native.run(got, strip=8) == native.run(ref)
        assert checksum(got) == checksum(ref)

    def test_hazard_verdict_differing_between_boxes_emits_both_bodies(self):
        ep = _parity_nest_plan()
        source = emitc.emit_plan_c_source(ep)
        assert "static int nest_0_1(" in source  # buffered: the 3-wide box
        assert "static int nest_0_0(" in source  # direct: the 1-wide rect
        assert source.count("static int nest_") == 3
        rng = np.random.default_rng(4)
        base = {"a": rng.random(24) + 0.5, "b": rng.random(12) + 0.5,
                "c": rng.random(12) + 0.5}
        ref = copy_arrays(base)
        ref_counts = get_backend("interp").run(ep, ref)
        native = emitc.compile_plan_native(ep)
        for strip in (None, 1, 2):
            got = copy_arrays(base)
            counts = native.run(got, strip=strip)
            assert counts == ref_counts
            assert checksum(got) == checksum(ref), strip

    def test_direct_stores_run_unit_stride(self):
        """jacobi loops ``j`` outer / ``i`` inner over row-major
        ``a[i, j]``: the direct stores put ``j`` (the last subscript)
        innermost."""
        _, _, (ep,) = kernel_plans("jacobi", 21, 2)
        body = emitc.emit_plan_c_source(ep).split("static int nest_0_0")[1]
        assert body.index("long v_i =") < body.index("long v_j =")

    def test_run_marshals_once(self, monkeypatch):
        native = emitc.compile_plan_native(_plan(procs=3))
        calls = []
        marshal = emitc.CJitModule._marshal
        monkeypatch.setattr(
            emitc.CJitModule, "_marshal",
            lambda self, arrays: calls.append(1) or marshal(self, arrays))
        arrays = _arrays()
        native.run(arrays)
        assert len(calls) == 1
        native.run_fused(0, arrays)  # the pool's entry points still marshal
        native.run_peeled(0, arrays)
        assert len(calls) == 3

    def test_peel_predecessors_computed_once_per_plan(self, monkeypatch):
        from repro.codegen.emitpy import emit_plan_source
        from repro.core import syncdeps

        calls = []
        pure = syncdeps.peel_predecessors
        monkeypatch.setattr(
            syncdeps, "peel_predecessors",
            lambda ep: calls.append(1) or pure(ep))
        ep = _plan(procs=3)
        py_source = emit_plan_source(ep)
        emitc.emit_plan_c_source(ep)
        emitc.emit_plan_c_source(ep)
        assert len(calls) == 1
        assert repr(pure(ep)) in py_source and ep.peel_deps == pure(ep)


def _body_nests(source: str) -> list[int]:
    """The nest of each entry of a unit's ``BODIES`` table."""
    names = source.split("BODIES[])(")[1].split("{")[1].split("}")[0]
    return [int(name.split("_")[1]) for name in names.split(", ")]


@needs_cc
class TestTiledWalk:
    """The team library tiles a unit's whole-box fused table at run time
    (``run_tiled``); one object per plan serves every strip."""

    @pytest.mark.parametrize("case", ["fig9", "fig13", "jacobi"])
    def test_walk_visits_rows_of_every_strip(self, case, request):
        """A fake body table of ctypes callbacks records each ``(nest,
        box)`` the walk hands out: exactly ``rows(strip)``'s fused rows,
        in order, for every processor, with the fused count returned."""
        import ctypes

        if case == "jacobi":
            plans = [kernel_plans("jacobi", 33, 4)[2][0]]
        else:
            plan = derive_shift_peel(request.getfixturevalue(
                f"{case}_sequence"), ("n",))
            plans = [build_execution_plan(plan, {"n": 40}, num_procs=procs)
                     for procs in (1, 3)]
        body_type = ctypes.CFUNCTYPE(
            ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.POINTER(ctypes.c_long))
        seen = []

        def recorder(nest, depth):
            def body(_arrays, _dims, b):
                seen.append((nest, tuple((b[2 * d], b[2 * d + 1])
                                         for d in range(depth))))
                return 0
            return body_type(body)

        team = emitc.native_team()
        for ep in plans:
            native = emitc.compile_plan_native(ep)
            bodies = [recorder(k, ep.plan.seq[k].depth)
                      for k in _body_nests(native.source)]
            table = (ctypes.c_void_p * len(bodies))(
                *(ctypes.cast(body, ctypes.c_void_p) for body in bodies))
            plan = emitc._TeamPlan.from_buffer_copy(native._plan)
            plan.bodies = ctypes.addressof(table)
            for p, proc in enumerate(ep.processors):
                for strip in (1, 2, 4, 7):
                    seen.clear()
                    count = team.run_tiled(ctypes.byref(plan), p, strip,
                                           None, None)
                    want = ep.processor_rows(proc, strip)[0]
                    assert seen == list(want), (case, p, strip)
                    assert count == native.fused_counts[p]

    def test_out_of_range_processor_fails(self):
        import ctypes

        native = emitc.compile_plan_native(_plan(procs=2))
        team = emitc.native_team()
        for proc in (-1, 2):
            assert team.run_tiled(ctypes.byref(native._plan), proc, 2,
                                  None, None) == -1

    def test_cached_object_without_compiler_degrades_to_jit(
            self, monkeypatch):
        """A cached ``.so`` runs whole boxes without a compiler, but a
        run at a strip needs the team library and cannot build it: an
        ``internal`` failure that degrades to ``jit`` with the same
        bits."""
        from repro.runtime.execute import execute_resilient
        from repro.runtime.supervisor import ExecError

        prep = prepare_kernel("jacobi", n=33, procs=2, backend="cjit")
        assert prep.native_modules is not None
        _, _, whole = execute_prepared(prep, "cjit")
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        monkeypatch.setattr(emitc, "_team_lib", None)
        with pytest.raises(ExecError) as info:
            execute_prepared(prep, "cjit", strip=4)
        assert info.value.failure.kind == "internal"
        _, _, digest, recovery = execute_resilient(prep, "cjit", strip=4)
        assert digest == whole
        assert recovery["backend_used"] == "jit"
        assert recovery["attempts"] == [{"backend": "cjit",
                                         "kind": "internal"}]

    def test_serial_run_at_a_strip_is_no_team_run(self, monkeypatch):
        """A serial cjit run at a strip walks tiles in the team library,
        but neither it nor its failure counts as an mpjit team run."""
        from repro.runtime.pool import pool_stats
        from repro.runtime.supervisor import ExecError, default_supervisor

        prep = prepare_kernel("jacobi", n=33, procs=2, backend="cjit")
        before = pool_stats(), default_supervisor().stats()
        execute_prepared(prep, "cjit", strip=4)
        monkeypatch.setattr(emitc, "_team_lib", None)
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        with pytest.raises(ExecError):
            execute_prepared(prep, "cjit", strip=4)
        assert (pool_stats(), default_supervisor().stats()) == before

    def test_strip_sweep_compiles_once_per_plan(self):
        """jacobi n=511: a prepare and runs at strips None, 4 and 16 (and
        the same sweep through the backend registry) compile one numpy
        module and one ``.so`` per plan, and leave one of each on
        disk."""
        cache = default_cache()
        prep = prepare_kernel("jacobi", n=511, procs=4, backend="cjit")
        digests = {execute_prepared(prep, "cjit", strip=strip)[2]
                   for strip in (None, 4, 16)}
        for strip in (None, 4, 16):
            for backend in ("jit", "cjit", "mpjit"):
                extra = {"max_workers": 2} if backend == "mpjit" else {}
                arrays = prep.alloc()
                get_backend(backend).run(prep.plans[0], arrays, strip=strip,
                                         **extra)
                digests.add(checksum(arrays))
        assert len(digests) == 1
        assert cache.stats.misses == len(prep.plans) == 1
        assert cache.stats.native_misses == 1
        plan_objects = [path for path in cache.version_dir.glob("*.so")
                        if not path.name.startswith("team.")]
        assert len(list(cache.version_dir.glob("*.py"))) == 1
        assert len(plan_objects) == 1


@needs_cc
class TestArgumentMemo:
    """``_marshal`` memoizes on the array objects (weakly) plus each
    one's shape, strides and dtype; anything else is a miss that
    re-validates."""

    def test_in_place_shape_and_dtype_changes_miss(self):
        native = emitc.compile_plan_native(_plan())
        arrays = _arrays()
        native.run(arrays)
        memo = native._args_cache
        native.run(arrays)
        assert native._args_cache is memo  # a hit
        arrays["a"].shape = (3, 6)
        with pytest.raises(emitc.CJitError, match="rank 2"):
            native.run(arrays)
        arrays["a"].shape = (18,)
        native.run(arrays)  # as memoized again
        arrays["b"].dtype = np.int64
        with pytest.raises(emitc.CJitError, match="float64"):
            native.run(arrays)

    def test_new_array_at_a_dead_arrays_id_misses(self):
        """An id-keyed memo would hand the dead array's pointer to C;
        the weak reference is dead, so the new array is marshalled."""
        native = emitc.compile_plan_native(_plan())
        base = _arrays()
        ref = copy_arrays(base)
        native.run(ref)
        arrays = copy_arrays(base)
        native.run(arrays)
        big = np.zeros(64)
        dead = id(arrays["c"])
        del arrays["c"]  # the only reference: the array dies
        keep = []
        for _ in range(1000):
            view = big[8:26]
            if id(view) == dead:
                break
            keep.append(view)
        else:
            pytest.skip("the allocator never reused the dead array's id")
        view[:] = base["c"]
        arrays["c"] = view
        native.run(arrays)
        assert np.array_equal(view, ref["c"])

    def test_memo_does_not_keep_a_deleted_view_alive(self):
        native = emitc.compile_plan_native(_plan())
        arrays = {name: arr[:] for name, arr in _arrays().items()}
        native.run(arrays)
        view = weakref.ref(arrays["a"])
        del arrays
        assert view() is None


class TestCompileFlags:
    """What a compile hands the compiler: exactly :data:`emitc.CFLAGS`,
    read at call time, as the fingerprint reads it."""

    def test_compiler_argv_carries_exactly_cflags(self, tmp_path,
                                                  monkeypatch):
        argv = tmp_path / "argv"
        stub = _stub_compiler(
            tmp_path, f'printf "%s\\n" "$@" > "{argv}"\n' + _STUB_HEAD
            + 'echo object > "$2"')
        so = tmp_path / "objs" / "sig.so"
        for flags in (emitc.CFLAGS, ("-O0", "-shared", "-fPIC", "-DREBOUND")):
            monkeypatch.setattr(emitc, "CFLAGS", flags)
            assert emitc.compile_c("int x;", so, compiler=stub) == so
            got = argv.read_text().splitlines()
            assert got[:-3] == list(flags)
            assert got[-3] == "-o" and got[-1].endswith(".c")
            assert so.read_text() == "object\n"

    def test_fingerprint_follows_cflags(self, tmp_path, monkeypatch):
        stub = _stub_compiler(tmp_path, _STUB_HEAD)
        before = emitc.compiler_fingerprint(stub)
        monkeypatch.setattr(emitc, "CFLAGS", emitc.CFLAGS + ("-DREBOUND",))
        assert emitc.compiler_fingerprint(stub) != before
        monkeypatch.undo()
        assert emitc.compiler_fingerprint(stub) == before

    def test_flags_keep_bit_identity(self):
        """No contraction into fused multiply-adds, no fast math, no
        machine-specific code: the bits may not depend on the target."""
        flags = emitc.CFLAGS
        assert [f for f in flags if f.startswith("-ffp-contract")] == \
            ["-ffp-contract=off"]
        assert "-ffast-math" not in flags and "-Ofast" not in flags
        assert not [f for f in flags if f.startswith("-march")]


@needs_cc
class TestCompileCleanup:
    def test_timeout_leaves_no_temporary_object(self, tmp_path, monkeypatch):
        """A compiler that writes its output and then hangs past
        ``COMPILE_TIMEOUT`` must not leave ``<sig>.sotmp<pid>`` behind."""
        monkeypatch.setattr(emitc, "COMPILE_TIMEOUT", 0.2)
        stub = _stub_compiler(tmp_path, _HANGS)
        out = tmp_path / "objs"
        with pytest.raises(emitc.CJitCompileError, match="failed to run"):
            emitc.compile_c("int x;", out / "sig.so", compiler=stub)
        assert os.listdir(out) == []

    def test_unrunnable_and_failing_compilers_leave_nothing(self, tmp_path):
        out = tmp_path / "objs"
        with pytest.raises(emitc.CJitCompileError, match="failed to run"):
            emitc.compile_c("int x;", out / "sig.so",
                            compiler=str(tmp_path / "missing-cc"))
        failing = _stub_compiler(tmp_path, _FAILS)
        with pytest.raises(emitc.CJitCompileError, match="exited 3: boom"):
            emitc.compile_c("int x;", out / "sig.so", compiler=failing)
        assert os.listdir(out) == []

    @pytest.mark.parametrize("persist", [True, False])
    @pytest.mark.parametrize("body", [_HANGS, _FAILS],
                             ids=["timeout", "failing"])
    def test_failed_native_miss_leaves_nothing(self, tmp_path, monkeypatch,
                                               body, persist):
        """A plan compile that times out or fails leaves no
        ``.sotmp``, no scratch ``.c`` and no live compiler, and
        ``get_native`` reports it as the blocking compile did."""
        monkeypatch.setattr(emitc, "COMPILE_TIMEOUT", 0.2)
        pids = tmp_path / "pids"
        monkeypatch.setenv("STUB_PIDS", str(pids))
        stub = _stub_compiler(tmp_path, body)
        monkeypatch.setenv(emitc.ENV_CC, stub)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        cache = PlanCache(root=tmp_path / "cache", persist=persist)
        module, reason = cache.get_native(_plan())
        assert module is None
        if body is _HANGS:
            assert reason.startswith(f"{stub} failed to run: Command '[")
            assert reason.endswith("' timed out after 0.2 seconds")
        else:
            assert reason == f"{stub} exited 3: boom"
        assert cache.stats.native_misses == 1
        left = sorted(p.name for p in (tmp_path / "cache").rglob("*"))
        # only the persisted source, kept for post-mortem
        assert left == (sorted([f"v{emitc.CODEGEN_VERSION}",
                                f"{_plan().signature()}.c"]) if persist
                        else [])
        assert os.listdir(scratch) == []
        started = [int(pid) for pid in pids.read_text().split()]
        assert len(started) == 1
        assert not [pid for pid in started if _alive(pid)]

    def test_batch_failure_cancels_every_started_compile(self, tmp_path,
                                                         monkeypatch):
        """A multi-sequence miss starts its compiles together; the first
        failure ends it, kills the ones started after it and counts as
        the sequential misses did: one miss, then the fallback."""
        import repro.runtime.pool as pool

        monkeypatch.setattr(pool, "available_cpus", lambda: 3)
        monkeypatch.setattr(emitc, "COMPILE_TIMEOUT", 0.5)
        pids = tmp_path / "pids"
        monkeypatch.setenv("STUB_PIDS", str(pids))
        monkeypatch.setenv(emitc.ENV_CC, _stub_compiler(tmp_path, _HANGS))
        plans = kernel_plans("hydro2d", 33, 2)[2]
        assert len(plans) == 3
        cache = PlanCache(root=tmp_path / "cache")
        modules, natives, reason = cache.resolve("cjit", plans)
        assert natives is None and "timed out" in reason
        assert len(modules) == 3
        assert cache.stats.native_misses == 1
        assert emitc.fallback_stats()["count"] == 1
        started = [int(pid) for pid in pids.read_text().split()]
        assert len(started) == 3
        assert not [pid for pid in started if _alive(pid)]
        assert not list((tmp_path / "cache").rglob("*.sotmp*"))


@needs_cc
class TestNativeCacheLevels:
    def test_miss_then_memory_then_disk_hit(self):
        cache = default_cache()
        ep = _plan()
        module, reason = cache.get_native(ep)
        assert module is not None and reason is None
        assert cache.stats.native_misses == 1
        assert cache.stats.native_compile_seconds > 0
        fp = emitc.compiler_fingerprint()
        assert cache.native_path(module.signature, fp).exists()
        assert cache.c_source_path(module.signature).exists()
        again, _ = cache.get_native(ep)
        assert again is module
        assert cache.stats.native_memory_hits == 1
        # a fresh instance (a fresh process, in effect) dlopens the .so
        fresh = PlanCache(root=cache.root)
        loaded, reason = fresh.get_native(ep)
        assert loaded is not None and reason is None
        assert fresh.stats.native_disk_hits == 1
        assert fresh.stats.native_misses == 0
        base = _arrays()
        a, b = copy_arrays(base), copy_arrays(base)
        loaded.run(a)
        module.run(b)
        assert checksum(a) == checksum(b)

    def test_corrupt_so_quarantined_never_redlopened(self):
        """The .so is built with :func:`emitc.compile_c` directly — not
        through ``get_native`` — so this process never dlopens the intact
        object (glibc dedupes dlopen by pathname, which would mask the
        corruption with the stale-but-valid mapping)."""
        cache = default_cache()
        ep = _plan()
        sig = ep.signature()
        fp = emitc.compiler_fingerprint()
        so = cache.native_path(sig, fp)
        so.parent.mkdir(parents=True, exist_ok=True)
        emitc.compile_c(emitc.emit_plan_c_source(ep), so)
        so.write_bytes(b"this is not an ELF shared object")
        fresh = PlanCache(root=cache.root)
        assert fresh.peek_native(sig) is None
        assert fresh.stats.native_quarantined == 1
        bad = so.parent / (so.name + ".bad")
        assert bad.exists() and not so.exists()
        # the next get_native recompiles instead of trusting the corpse
        recompiled, reason = fresh.get_native(ep)
        assert recompiled is not None and reason is None
        assert fresh.stats.native_misses == 1

    def test_v3_object_rejected_as_stale_and_recompiled(self):
        """An object of the previous codegen (per-processor bodies, no
        ``run_plan``) sitting at the cache path is never loaded as v4."""
        cache = default_cache()
        ep = _plan()
        sig = ep.signature()
        so = cache.native_path(sig, emitc.compiler_fingerprint())
        v4 = f"REPRO_CODEGEN_VERSION = {emitc.CODEGEN_VERSION};"
        source = emitc.emit_plan_c_source(ep)
        assert v4 in source
        emitc.compile_c(source.replace(v4, "REPRO_CODEGEN_VERSION = 3;"), so)
        with pytest.raises(emitc.CJitCompileError, match="codegen v3"):
            emitc.load_native(so, expected_signature=sig)
        module, reason = cache.get_native(ep)
        assert module is not None and reason is None
        assert cache.stats.native_quarantined == 1
        assert cache.stats.native_misses == 1
        assert (so.parent / (so.name + ".bad")).exists()
        got, ref = _arrays(), _arrays()
        module.run(got)
        cache.get(ep).run(ref)
        assert checksum(got) == checksum(ref)

    def test_py_quarantine_takes_native_siblings(self):
        """Satellite: a corrupt ``.py`` source quarantines its ``.so``
        and ``.c`` siblings too — whatever corrupted the source cannot
        be assumed to have spared the objects next to it."""
        cache = default_cache()
        ep = _plan()
        module, _ = cache.get_native(ep)
        sig = module.signature
        fp = emitc.compiler_fingerprint()
        cache.source_path(sig).write_text("def broken(", encoding="utf-8")
        fresh = PlanCache(root=cache.root)
        assert fresh.peek(sig) is None
        assert fresh.stats.quarantined == 1
        assert fresh.stats.native_quarantined >= 1
        assert not cache.source_path(sig).exists()
        assert not cache.native_path(sig, fp).exists()
        assert not cache.c_source_path(sig).exists()
        so = cache.native_path(sig, fp)
        assert (so.parent / (so.name + ".bad")).exists()
        assert cache.source_path(sig).with_suffix(".bad").exists()
        # and the quarantined .so is invisible to later native lookups
        assert fresh.peek_native(sig) is None

    def test_pool_worker_loads_numpy_source_even_with_native_twin(self):
        """The pool only runs numpy modules: a cached ``.so`` for the
        signature is the thread team's, never a worker's."""
        from repro.runtime.pool import _load_module

        cache = default_cache()
        ep = _plan()
        module, _ = cache.get_native(ep)
        jit = cache.get(ep)  # .py source also on disk
        loaded, mode = _load_module({}, jit.signature, str(cache.root),
                                    jit.source)
        assert mode == "disk"
        assert not hasattr(loaded, "run_team")
        base = _arrays()
        a, b = copy_arrays(base), copy_arrays(base)
        loaded.run(a)
        module.run(b)
        assert checksum(a) == checksum(b)


_COUNTS = [k for k, v in CacheStats().as_dict().items() if isinstance(v, int)]


@needs_cc
class TestNativeBatch:
    """A cold multi-sequence cjit miss starts its compiles together and
    builds the numpy modules while they run; it compiles each distinct
    signature once and counts what one ``get_native`` per plan counts."""

    @staticmethod
    def _sequential_counts(root, plans):
        cache = PlanCache(root=root)
        for ep in plans:
            cache.get(ep)
        for ep in plans:
            cache.get_native(ep)
        return {k: cache.stats.as_dict()[k] for k in _COUNTS}

    @pytest.mark.parametrize("kernel,n", [("hydro2d", 33), ("spem", 17)])
    def test_multi_sequence_miss(self, kernel, n, tmp_path, monkeypatch):
        from repro.codegen import emitpy

        started, events = [], []
        start_compile = emitc.start_compile
        monkeypatch.setattr(emitc, "start_compile", lambda *a, **kw:
                            started.append(a[1]) or events.append("cc")
                            or start_compile(*a, **kw))
        compile_source = emitpy.compile_source
        monkeypatch.setattr(emitpy, "compile_source", lambda *a, **kw:
                            events.append("numpy")
                            or compile_source(*a, **kw))
        cache = PlanCache(root=tmp_path / "batch")
        prep = prepare_kernel(kernel, n=n, procs=2, backend="cjit",
                              cache=cache)
        assert prep.native_modules is not None
        signatures = [ep.signature() for ep in prep.plans]
        assert len(started) == len(set(signatures)) == len(set(started))
        # cc is running before the first numpy module is built
        assert events[0] == "cc" and "numpy" in events
        counts = {k: prep.cache_stats[k] for k in _COUNTS}
        assert counts == self._sequential_counts(tmp_path / "seq",
                                                 prep.plans)
        assert counts["native_misses"] == len(set(signatures))
        assert execute_prepared(prep, "cjit")[2] == execute_prepared(
            prepare_kernel(kernel, n=n, procs=2, backend="vector",
                           need_plans=True), "interp")[2]

    def test_a_repeated_plan_compiles_once(self, tmp_path, monkeypatch):
        started = []
        start_compile = emitc.start_compile
        monkeypatch.setattr(emitc, "start_compile", lambda *a, **kw:
                            started.append(a[1]) or start_compile(*a, **kw))
        one, two = _plan(), _plan(scale=3.0)
        plans = [one, two, one]
        cache = PlanCache(root=tmp_path / "batch")
        modules, natives, reason = cache.resolve("cjit", plans)
        assert reason is None and natives[0] is natives[2]
        assert len(started) == 2
        # warm: every plan a lookup, nothing started
        assert PlanCache(root=tmp_path / "batch").resolve(
            "cjit", plans)[2] is None
        assert len(started) == 2
        counts = {k: cache.stats.as_dict()[k] for k in _COUNTS}
        assert counts == self._sequential_counts(tmp_path / "seq", plans)
        assert counts["native_misses"] == 2
        assert counts["native_memory_hits"] == 1



class TestFallback:
    def test_no_compiler_backend_falls_back_bit_identical(self, monkeypatch):
        """The headline no-compiler contract: same bits as jit, one note,
        a counted fallback — never an exception."""
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        ep = _plan()
        base = _arrays()
        got, ref = copy_arrays(base), copy_arrays(base)
        counts = get_backend("cjit").run(ep, got)
        ref_counts = get_backend("jit").run(ep, ref)
        assert counts == ref_counts
        assert checksum(got) == checksum(ref)
        stats = emitc.fallback_stats()
        assert stats["count"] == 1
        assert "no C compiler" in stats["last_reason"]

    def test_fallback_note_printed_once_counted_always(self, monkeypatch,
                                                       capsys):
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        ep = _plan()
        for _ in range(3):
            get_backend("cjit").run(ep, _arrays())
        err = capsys.readouterr().err
        assert err.count("cjit: falling back to jit") == 1
        assert emitc.fallback_stats()["count"] == 3

    def test_no_cache_path_falls_back_too(self, monkeypatch):
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        ep = _plan()
        base = _arrays()
        got, ref = copy_arrays(base), copy_arrays(base)
        get_backend("cjit").run(ep, got, cache=PlanCache(persist=False))
        get_backend("jit").run(ep, ref, cache=PlanCache(persist=False))
        assert checksum(got) == checksum(ref)
        assert emitc.fallback_stats()["count"] == 1


class TestBenchIntegration:
    def test_measure_kernel_records_native_tier(self):
        from repro.runtime.benchmarking import measure_kernel

        record = measure_kernel("jacobi", "cjit", n=21, procs=2, repeat=2)
        ref = measure_kernel("jacobi", "jit", n=21, procs=2, repeat=2)
        assert record["checksum"] == ref["checksum"]
        assert record["cjit"]["native"] is HAVE_CC
        assert "cache" in record
        if HAVE_CC:
            assert record["cjit"]["compiler_fingerprint"] \
                == emitc.compiler_fingerprint()
            assert record["cache"]["native_misses"] >= 1
        else:
            assert record["cjit"]["fallback_reason"]

    def test_record_names_the_strip_that_ran(self):
        """Native code (``cjit``, then the ``mpjit`` team over its cached
        twin) and the plan walkers run the requested strip; a numpy
        module runs whole boxes, and the record says None."""
        from repro.runtime.benchmarking import measure_kernel

        native = 4 if HAVE_CC else None
        want = {"jit": None, "cjit": native, "mpjit": native, "vector": 4,
                "interp": 4}
        got = {backend: measure_kernel("jacobi", backend, n=21, procs=2,
                                       strip=4, repeat=1, max_workers=2)
               for backend in want}
        assert {b: r["strip"] for b, r in got.items()} == want
        assert len({r["checksum"] for r in got.values()}) == 1

    def test_interp_without_strip_walks_whole_boxes(self, monkeypatch):
        """``strip=None`` means whole boxes on the interpreter too, so its
        record's ``"strip": None`` names what ran."""
        import dataclasses

        from repro.runtime import backend, parallel
        from repro.runtime.benchmarking import measure_kernel

        ran = []

        def spy(*args, strip, **kwargs):
            ran.append(strip)
            return parallel.run_parallel(*args, strip=strip, **kwargs)

        monkeypatch.setitem(backend._REGISTRY, "interp", dataclasses.replace(
            backend.get_backend("interp"), runner=spy))
        record = measure_kernel("jacobi", "interp", n=21, procs=2, repeat=1)
        assert ran == [None] and record["strip"] is None
        ref = measure_kernel("jacobi", "jit", n=21, procs=2, repeat=1)
        assert record["checksum"] == ref["checksum"]

    def test_measure_kernel_no_compiler_identical_checksum(self, monkeypatch):
        from repro.runtime.benchmarking import measure_kernel

        ref = measure_kernel("jacobi", "jit", n=21, procs=2, repeat=2)
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        record = measure_kernel("jacobi", "cjit", n=21, procs=2, repeat=2)
        assert record["checksum"] == ref["checksum"]
        assert record["cjit"]["native"] is False
        assert "no C compiler" in record["cjit"]["fallback_reason"]
        assert emitc.fallback_stats()["count"] >= 1

    @needs_cc
    def test_warm_alias_reuses_cached_so(self):
        """Second prepare in the same cache: program alias plus cached
        ``.so`` — no planning, no compiling, native modules live."""
        from repro.runtime.execute import (
            execute_prepared,
            prepare_kernel,
        )

        prepare_kernel("jacobi", n=21, procs=2, backend="cjit")
        prep = prepare_kernel("jacobi", n=21, procs=2, backend="cjit")
        assert prep.plans == [] and prep.native_modules
        assert prep.cache_stats.get("native_misses", 0) == 0
        _, counters, digest = execute_prepared(prep, "cjit")
        ref = prepare_kernel("jacobi", n=21, procs=2, backend="jit")
        _, ref_counters, ref_digest = execute_prepared(ref, "jit")
        assert digest == ref_digest and counters == ref_counters


class TestCliNarration:
    def test_exec_reports_native_tier(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["exec", "jacobi", "--backend", "cjit", "--n", "21",
                       "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "native tier:" in out
        if HAVE_CC:
            assert "native tier: live" in out
        else:
            assert "fell back to jit" in out

    def test_exec_no_compiler_notes_fallback(self, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        rc = cli_main(["exec", "jacobi", "--backend", "cjit", "--n", "21",
                       "--repeat", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "native tier: fell back to jit" in captured.out
        assert "no C compiler" in captured.out
