"""Plan-signature and plan-cache correctness.

The jit backend is only sound if the cache key changes whenever execution
could differ: different shapes, processor counts, strip sizes, kernel
bodies and even hand-mutated processor boxes must all produce distinct
signatures, while an identical plan built twice must produce the same one.
On-disk entries are never trusted: corrupt or stale files are discarded
and regenerated.  Finally, the whole point of the cache is measured here —
a warm ``repro exec`` spends (essentially) nothing planning or compiling.
"""

import dataclasses

import numpy as np
import pytest

from conftest import copy_arrays

from repro.codegen.emitc import find_compiler
from repro.codegen.emitpy import JitCompileError, compile_plan, compile_source
from repro.core import build_execution_plan, derive_shift_peel, max_processors
from repro.ir import Affine, Loop, LoopNest, LoopSequence, assign, load
from repro.kernels import get_kernel
from repro.runtime.backend import checksum, get_backend
from repro.runtime.benchmarking import measure_kernel
from repro.runtime.plancache import (
    PlanCache,
    default_cache,
    program_signature,
)


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


def _chain_plan(n=13, procs=2, scale=2.0):
    seq = _chain(scale)
    plan = derive_shift_peel(seq, ("n",))
    return build_execution_plan(plan, {"n": n}, num_procs=procs)


def _kernel_plan(kernel="jacobi", n=13, procs=2):
    info = get_kernel(kernel)
    program = info.program()
    seq = program.sequences[0]
    plan = derive_shift_peel(seq, tuple(program.params), seq.fusable_depth())
    params = {p: n for p in program.params}
    legal = max_processors(plan, params)[0]
    return build_execution_plan(plan, params, num_procs=min(procs, legal))


class TestPlanSignature:
    def test_identical_plans_share_a_signature(self):
        assert _chain_plan().signature() == _chain_plan().signature()

    def test_shape_procs_strip_all_distinguish(self):
        base = _kernel_plan(n=13, procs=2)
        signatures = {
            base.signature(),
            base.signature(strip=3),
            base.signature(strip=4),
            _kernel_plan(n=21, procs=2).signature(),
            _kernel_plan(n=13, procs=3).signature(),
        }
        assert len(signatures) == 5

    def test_mutated_kernel_body_invalidates(self):
        assert (_chain_plan(scale=2.0).signature()
                != _chain_plan(scale=3.0).signature())

    def test_mutated_processor_boxes_invalidate(self):
        """Degenerate-range tests shrink boxes via dataclasses.replace; a
        cache keyed only on the source program would serve stale code."""
        ep = _chain_plan(n=9, procs=1)
        proc = ep.processors[0]
        shrunk = dataclasses.replace(
            proc, fused=tuple(((5, 4),) for _ in proc.fused)
        )
        mutated = dataclasses.replace(ep, processors=(shrunk,))
        assert ep.signature() != mutated.signature()


class TestProgramSignature:
    def test_sensitivity(self):
        program = get_kernel("jacobi").program()
        base = program_signature(program, {"n": 13}, 2, None)
        assert base == program_signature(program, {"n": 13}, 2, None)
        assert base != program_signature(program, {"n": 21}, 2, None)
        assert base != program_signature(program, {"n": 13}, 3, None)
        assert base != program_signature(program, {"n": 13}, 2, 3)

    def test_different_kernels_differ(self):
        params = {"n": 13}
        assert (program_signature(get_kernel("jacobi").program(), params, 2, None)
                != program_signature(get_kernel("ll18").program(), params, 2, None))


class TestPlanCacheLevels:
    def test_memory_then_disk_hits(self, tmp_path):
        cache = PlanCache(root=tmp_path / "c")
        ep = _chain_plan()
        module = cache.get(ep)
        assert cache.stats.misses == 1
        assert cache.get(ep) is module
        assert cache.stats.memory_hits == 1
        cache.clear_memory()
        again = cache.get(ep)
        assert cache.stats.disk_hits == 1
        assert again.signature == module.signature
        assert again.source == module.source

    def test_lru_eviction(self, tmp_path):
        cache = PlanCache(root=tmp_path / "c", memory_slots=2)
        for n in (9, 11, 13):
            cache.get(_chain_plan(n=n))
        assert cache.stats.evictions == 1
        assert len(cache._memory) == 2

    def test_corrupt_disk_entry_regenerated(self, tmp_path):
        cache = PlanCache(root=tmp_path / "c")
        ep = _chain_plan()
        module = cache.get(ep)
        path = cache.source_path(module.signature)
        path.write_text("this is not python (")
        cache.clear_memory()
        fresh = cache.get(ep)
        assert fresh.source == module.source
        assert path.read_text() == module.source  # rewritten, not trusted

    def test_stale_signature_entry_ignored(self, tmp_path):
        """A file whose embedded SIGNATURE disagrees with its name (e.g. a
        hand-edited or wrongly copied entry) is dropped and regenerated."""
        cache = PlanCache(root=tmp_path / "c")
        victim = cache.get(_chain_plan(n=9))
        other = cache.get(_chain_plan(n=13))
        path = cache.source_path(victim.signature)
        path.write_text(other.source)  # embedded SIGNATURE now mismatches
        cache.clear_memory()
        assert cache.peek(victim.signature) is None
        assert not path.exists()
        regenerated = cache.get(_chain_plan(n=9))
        assert regenerated.source == victim.source

    def test_compile_source_rejects_missing_signature(self):
        with pytest.raises(JitCompileError):
            compile_source("import numpy as np\ndef run(arrays):\n    pass\n")

    @pytest.mark.parametrize("edit", ["lost_processor", "body_out_of_range",
                                      "negative_body"])
    def test_garbled_row_table_quarantined(self, tmp_path, edit):
        """A hand-edited cached module whose row table lost a processor,
        or names a body outside ``BODIES``, is still valid Python:
        ``compile_source`` must refuse it, so the disk load quarantines
        it and recompiles, and the run's checksum is unchanged."""
        cache = PlanCache(root=tmp_path / "c")
        ep = _chain_plan(n=17, procs=2)
        module = cache.get(ep)
        rng = np.random.default_rng(0)
        base = {name: rng.random(18) + 0.5 for name in "abc"}
        want = copy_arrays(base)
        module.run(want)
        lines = module.source.split("\n")
        table = lines.index("FUSED_ROWS = (")
        if edit == "lost_processor":
            del lines[table + 2]
        else:
            index = "7" if edit == "body_out_of_range" else "-1"
            assert lines[table + 1].startswith("    ((0, ")
            lines[table + 1] = lines[table + 1].replace(
                "((0, ", f"(({index}, ", 1)
        garbled = "\n".join(lines)
        with pytest.raises(JitCompileError, match="FUSED_ROWS"):
            compile_source(garbled, expected_signature=module.signature)
        path = cache.source_path(module.signature)
        path.write_text(garbled)
        cache.clear_memory()
        fresh = cache.get(ep)
        assert cache.stats.quarantined == 1
        assert path.with_suffix(".bad").read_text() == garbled
        assert fresh.source == module.source
        assert path.read_text() == module.source
        got = copy_arrays(base)
        fresh.run(got)
        assert checksum(got) == checksum(want)

    def test_alias_roundtrip(self, tmp_path):
        cache = PlanCache(root=tmp_path / "c")
        ep = _chain_plan()
        module = cache.get(ep)
        assert cache.lookup_alias("somekey") is None
        assert cache.stats.alias_misses == 1
        cache.link_alias("somekey", [module.signature])
        cache.clear_memory()
        modules = cache.lookup_alias("somekey")
        assert modules is not None and len(modules) == 1
        assert modules[0].signature == module.signature
        assert cache.stats.alias_hits == 1

    def test_alias_with_missing_plan_entry_misses(self, tmp_path):
        cache = PlanCache(root=tmp_path / "c")
        cache.link_alias("dangling", ["0" * 64])
        assert cache.lookup_alias("dangling") is None

    def test_non_persistent_cache_reads_no_alias(self, tmp_path,
                                                 monkeypatch):
        """An alias on disk under a ``persist=False`` cache's root is never
        read (nor counted as a miss): that cache links no aliases."""
        from pathlib import Path

        disk = PlanCache(root=tmp_path / "c")
        module = disk.get(_chain_plan())
        disk.link_alias("planted", [module.signature])
        assert disk.alias_path("planted").exists()
        reads = []
        real = Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda path, *a, **k: (
            reads.append(path), real(path, *a, **k))[1])
        memory = PlanCache(root=tmp_path / "c", persist=False)
        assert memory.lookup_alias("planted") is None
        assert reads == []
        assert memory.stats.alias_misses == 0

    def test_default_cache_honours_env(self, tmp_path):
        # conftest's autouse fixture points REPRO_JIT_CACHE_DIR at tmp_path.
        assert str(default_cache().root).startswith(str(tmp_path))


class TestJitExecutionThroughCache:
    def _arrays(self):
        rng = np.random.default_rng(11)
        return {name: rng.random(14) + 0.5 for name in "abc"}

    def test_cached_and_fresh_results_identical(self):
        ep = _chain_plan()
        base = self._arrays()
        jit = get_backend("jit")
        via_cache = copy_arrays(base)
        jit.run(ep, via_cache)
        again = copy_arrays(base)
        jit.run(ep, again)  # memory hit this time
        no_cache = copy_arrays(base)
        jit.run(ep, no_cache, cache=PlanCache(persist=False))
        vector = copy_arrays(base)
        get_backend("vector").run(ep, vector)
        assert checksum(via_cache) == checksum(again)
        assert checksum(via_cache) == checksum(no_cache)
        assert checksum(via_cache) == checksum(vector)

    def test_no_cache_touches_no_files(self, tmp_path):
        ep = _chain_plan()
        get_backend("jit").run(ep, self._arrays(),
                               cache=PlanCache(persist=False))
        cache_root = tmp_path / "jit-cache"
        assert not cache_root.exists() or not any(cache_root.rglob("*.py"))

    def test_compile_plan_counts_match_module_constants(self):
        ep = _chain_plan(n=17, procs=2)
        module = compile_plan(ep)
        rng = np.random.default_rng(0)
        stats = module.run({name: rng.random(18) + 0.5 for name in "abc"})
        assert stats["fused_iterations"] > 0
        assert stats["peeled_iterations"] > 0


class TestWarmExecOverhead:
    def test_warm_run_spends_under_5_percent_planning(self):
        """The acceptance bar for the cache: a warm ``repro exec`` must
        spend less than 5 % of its wall clock planning + compiling."""
        measure_kernel("jacobi", "jit", n=33, procs=2, repeat=2)  # cold
        warm = measure_kernel("jacobi", "jit", n=33, procs=2, repeat=2)
        overhead = warm["plan_seconds"] + warm["compile_seconds"]
        assert warm["cache"]["alias_hits"] == 1
        assert overhead == 0.0  # the alias hit skips planning entirely
        assert overhead < 0.05 * warm["total_seconds"]

    def test_cold_then_warm_checksums_match(self):
        cold = measure_kernel("ll18", "jit", n=17, procs=2, repeat=1)
        warm = measure_kernel("ll18", "jit", n=17, procs=2, repeat=1)
        assert cold["checksum"] == warm["checksum"]
        assert warm["plan_seconds"] == 0.0


class TestNoCacheRecord:
    """``repro exec --no-cache`` (``measure_kernel(use_cache=False)``):
    one cold compile into a fresh in-memory cache, reported under
    ``compile_seconds``; the repeats run what it compiled and nothing is
    written to the cache directory."""

    def _record(self, backend, repeat=3, **kw):
        return measure_kernel("jacobi", backend, n=65, procs=4,
                              repeat=repeat, use_cache=False, **kw)

    def _assert_cold_once_and_nothing_written(self, record, tmp_path,
                                              misses="misses"):
        from repro.runtime.execute import prepare_kernel

        plans = prepare_kernel("jacobi", n=65, procs=4,
                               backend="vector").plans
        first, *repeats = record["samples"]
        assert record["compile_seconds"] == first["compile_seconds"] > 0
        assert all(s["compile_seconds"] == 0 for s in repeats)
        assert record["cache"][misses] == len(plans)
        assert record["cache"]["alias_misses"] == 0
        cache_dir = tmp_path / "jit-cache"
        assert not cache_dir.exists() or not any(cache_dir.rglob("*"))
        ref = measure_kernel("jacobi", "vector", n=65, procs=4, repeat=1)
        assert record["checksum"] == ref["checksum"]

    def test_jit(self, tmp_path):
        self._assert_cold_once_and_nothing_written(self._record("jit"),
                                                   tmp_path)

    @pytest.mark.skipif(find_compiler() is None,
                        reason="no C compiler on PATH")
    def test_cjit(self, tmp_path):
        record = self._record("cjit")
        assert record["cjit"]["native"] is True
        assert record["samples"][1]["seconds"] < record["compile_seconds"]
        self._assert_cold_once_and_nothing_written(record, tmp_path,
                                                   misses="native_misses")

    def test_mpjit_runs_the_pool_from_inline_source(self, tmp_path):
        from repro.runtime.pool import pool_stats, shutdown_pool

        shutdown_pool()
        try:
            # one run: a worker's first load of a module is the one shown
            record = self._record("mpjit", repeat=1, max_workers=2)
            assert record["engine"] == "processes"
            assert pool_stats()["last_load_modes"] == ["inline", "inline"]
            self._assert_cold_once_and_nothing_written(record, tmp_path)
        finally:
            shutdown_pool()


class TestConcurrentCache:
    """Many processes hammering one cache directory (the daemon serves
    concurrent tenants, and several daemons may share a cache)."""

    CHILD = r"""
import sys
from repro.core import build_execution_plan, derive_shift_peel, max_processors
from repro.kernels import get_kernel
from repro.runtime.plancache import PlanCache

root = sys.argv[1]
info = get_kernel("jacobi")
program = info.program()
seq = program.sequences[0]
plan = derive_shift_peel(seq, tuple(program.params), seq.fusable_depth())
params = {p: 33 for p in program.params}
legal = max_processors(plan, params)[0]
ep = build_execution_plan(plan, params, num_procs=min(2, legal))
cache = PlanCache(root=root)
signatures = set()
for _ in range(8):
    module = cache.get(ep)          # races the atomic tmp+rename write
    signatures.add(module.signature)
    cache.link_alias("stress-key", [module.signature])
    cache.clear_memory()            # force the disk path next round
    modules = cache.lookup_alias("stress-key")
    assert modules is not None, "alias unreadable mid-race"
    assert modules[0].signature == module.signature
assert len(signatures) == 1, signatures
print(signatures.pop())
"""

    def test_multiprocess_stress_leaves_consistent_cache(self, tmp_path):
        """Six processes x eight rounds of get/link_alias/lookup_alias
        against one directory: every process sees one stable signature,
        the surviving entry compiles, and no temp files leak."""
        import json as json_mod
        import os
        import subprocess
        import sys as sys_mod
        from pathlib import Path

        root = tmp_path / "shared-cache"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        procs = [
            subprocess.Popen(
                [sys_mod.executable, "-c", self.CHILD, str(root)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env)
            for _ in range(6)
        ]
        outputs = [p.communicate(timeout=120) for p in procs]
        for p, (out, err) in zip(procs, outputs):
            assert p.returncode == 0, err
        signatures = {out.strip() for out, _ in outputs}
        assert len(signatures) == 1
        signature = signatures.pop()
        expected = _kernel_plan(n=33, procs=2).signature()
        assert signature == expected
        # The surviving on-disk entry is intact and self-consistent.
        cache = PlanCache(root=root)
        source = cache.source_path(signature).read_text(encoding="utf-8")
        module = compile_source(source, expected_signature=signature)
        assert module.signature == signature
        alias = json_mod.loads(
            cache.alias_path("stress-key").read_text(encoding="utf-8"))
        assert alias == [signature]
        # Atomic writes: no orphaned .tmp<pid> files anywhere.
        stray = [p for p in root.rglob("*") if ".tmp" in p.name]
        assert stray == []
