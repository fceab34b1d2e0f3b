"""Two-level cache of jit-compiled execution plans.

Compiling a fused plan (:mod:`repro.codegen.emitpy`) costs analysis and
``compile()`` time that is pure overhead when the same kernel runs again —
the PyOP2 lesson: generate code per fused parloop once, key it by
structure, amortize across invocations.  This module provides:

* an **in-memory LRU** keyed by the structural plan signature
  (:meth:`~repro.core.execplan.ExecutionPlan.signature`: kernel IR hash +
  params + grid + boxes), so repeated executions inside one process reuse
  the compiled module directly.  The strip is not part of any key: it is
  run-time data (one ``.py`` and one ``.so`` per plan serve every strip,
  so a strip sweep compiles once);
* a **persistent on-disk cache** of generated source under a
  version-stamped directory (``$REPRO_JIT_CACHE_DIR`` or
  ``~/.cache/repro/jit``, then ``v<CODEGEN_VERSION>/<signature>.py``), so
  a fresh process skips emission and only pays one ``compile()``.
  Entries embed their signature; corrupt or stale files are discarded and
  regenerated, never trusted;
* a **native tier** for the ``cjit`` backend: the same signatures map to
  compiled shared objects (``<signature>.<compiler-fp>.so`` plus the
  generated ``<signature>.c``) living next to the ``.py`` sources, keyed
  additionally by a compiler fingerprint so a toolchain change
  recompiles instead of re-dlopening a foreign object;
* **program aliases**: a second index keyed by the *program-level*
  signature (kernel IR + params + procs, computable without planning)
  mapping to the per-sequence plan signatures.  A warm alias
  lets ``repro exec`` skip the analysis → derive → fuse → plan pipeline
  entirely, not just compilation;
* **the resolver**, :meth:`PlanCache.resolve`: the one place that decides
  which compiled modules the ``jit``/``cjit``/``mpjit`` backends run —
  numpy, a compiled ``.so`` (or a noted fallback to numpy), or a cached
  native twin — for ``prepare_kernel``, ``execute_prepared``'s recheck
  and the backend registry alike.

All cache activity is tallied in :class:`CacheStats` so the CLI can report
hits/misses and the benchmarks can prove the warm path spends (almost) no
time planning or compiling.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from ..core.execplan import ExecutionPlan

ENV_CACHE_DIR = "REPRO_JIT_CACHE_DIR"


def _default_root() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "jit"


@dataclass
class CacheStats:
    """Counters for one :class:`PlanCache` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    alias_hits: int = 0
    alias_misses: int = 0
    quarantined: int = 0
    compile_seconds: float = 0.0
    native_memory_hits: int = 0
    native_disk_hits: int = 0
    native_misses: int = 0
    native_quarantined: int = 0
    native_compile_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "alias_hits": self.alias_hits,
            "alias_misses": self.alias_misses,
            "quarantined": self.quarantined,
            "compile_seconds": round(self.compile_seconds, 6),
            "native_memory_hits": self.native_memory_hits,
            "native_disk_hits": self.native_disk_hits,
            "native_misses": self.native_misses,
            "native_quarantined": self.native_quarantined,
            "native_compile_seconds": round(self.native_compile_seconds, 6),
        }

    def snapshot(self) -> "CacheStats":
        return CacheStats(**{
            f.name: getattr(self, f.name) for f in _STATS_FIELDS
        })

    def delta(self, before: "CacheStats") -> dict:
        out = {}
        for f in _STATS_FIELDS:
            value = getattr(self, f.name) - getattr(before, f.name)
            out[f.name] = round(value, 6) if f.type == "float" else value
        return out


_STATS_FIELDS = [f for f in CacheStats.__dataclass_fields__.values()]


@dataclass
class PlanCache:
    """Memory LRU over a persistent source directory (either level optional).

    ``memory_slots`` bounds the LRU; ``persist=False`` turns the instance
    into a pure in-memory cache that touches nothing under its root (used by
    tests, and a fresh one per ``repro exec --no-cache``).
    """

    root: Optional[Path] = None
    memory_slots: int = 128
    persist: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root) if self.root is not None else _default_root()
        self._memory: OrderedDict[str, object] = OrderedDict()
        self._native: OrderedDict[str, object] = OrderedDict()

    # -- paths -------------------------------------------------------------

    @property
    def version_dir(self) -> Path:
        from ..codegen.emitpy import CODEGEN_VERSION

        return self.root / f"v{CODEGEN_VERSION}"

    def source_path(self, signature: str) -> Path:
        return self.version_dir / f"{signature}.py"

    def c_source_path(self, signature: str) -> Path:
        """The generated C translation unit (kept for post-mortem)."""
        return self.version_dir / f"{signature}.c"

    def native_path(self, signature: str, fingerprint: str) -> Path:
        """The compiled shared object, keyed by plan signature *plus*
        compiler fingerprint: a compiler change recompiles rather than
        re-dlopening an object built by a different toolchain."""
        return self.version_dir / f"{signature}.{fingerprint}.so"

    def _native_candidates(self, signature: str) -> list[Path]:
        """Every ``.so`` on disk for ``signature`` (any compiler)."""
        return sorted(self.version_dir.glob(f"{signature}.*.so"))

    def team_dir(self) -> Optional[Path]:
        """Where the process-wide thread team library
        (:func:`~repro.codegen.emitc.native_team`) is cached, one file per
        compiler fingerprint: the version dir, or None for a
        non-persistent cache (built in a temp dir once per process).  It
        is not a plan, so no stats count it."""
        return self.version_dir if self.persist else None

    def alias_path(self, key: str) -> Path:
        return self.version_dir / "aliases" / f"{key}.json"

    @property
    def tuner_dir(self) -> Path:
        """Where the measured-cost auto-tuner persists its winners
        (:mod:`repro.runtime.autotune`) — next to the compiled plans, so
        one environment variable relocates/isolates both stores."""
        return self.version_dir / "autotune"

    # -- the two levels ----------------------------------------------------

    def _remember(self, module) -> None:
        self._memory[module.signature] = module
        self._memory.move_to_end(module.signature)
        while len(self._memory) > self.memory_slots:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    @staticmethod
    def _quarantine_file(path: Path, keep_suffix: bool = False) -> None:
        """Rename ``path`` out of trust: ``<entry>.bad`` for ``.py``
        sources (the established convention), suffix-appending
        (``….so.bad``/``….c.bad``) for native siblings so the names can
        never collide with the source's quarantine."""
        bad = (path.with_suffix(path.suffix + ".bad") if keep_suffix
               else path.with_suffix(".bad"))
        try:
            os.replace(path, bad)
        except OSError:
            try:  # quarantine failed: drop the entry outright
                path.unlink()
            except OSError:
                pass

    def _quarantine_native(self, signature: str) -> None:
        """Quarantine every native sibling of ``signature``.

        Called when the ``.py`` source for a signature turns out corrupt
        or stale: whatever produced that state (truncated write, chaos
        fault, bit rot) cannot be assumed to have spared the compiled
        objects, and a corrupt shared library must never be re-dlopened
        — ``dlopen`` happily maps garbage that only fails (or crashes)
        at call time."""
        self._native.pop(signature, None)
        for path in self._native_candidates(signature):
            self.stats.native_quarantined += 1
            self._quarantine_file(path, keep_suffix=True)
        c_path = self.c_source_path(signature)
        if c_path.exists():
            self._quarantine_file(c_path, keep_suffix=True)

    def _load_disk(self, signature: str):
        """Load one on-disk entry; corrupt/stale files are quarantined.

        A module that no longer compiles (truncated write, bit rot, a
        chaos ``cache_corrupt`` fault) is renamed to ``<entry>.bad`` —
        kept for post-mortem, never trusted again — and reported as a
        miss, so the caller recompiles from the plan instead of raising
        on a warm load.  Its native siblings (``.so``/``.c``) are
        quarantined with it.  The next :meth:`get` overwrites the
        ``.py`` entry with a fresh one."""
        from ..codegen.emitpy import JitCompileError, compile_source

        if not self.persist:
            return None
        path = self.source_path(signature)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            return compile_source(source, expected_signature=signature)
        except JitCompileError:
            self.stats.quarantined += 1
            self._quarantine_file(path)
            self._quarantine_native(signature)
            return None

    def _store_disk(self, module) -> None:
        if not self.persist:
            return
        path = self.source_path(module.signature)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(module.source, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            pass  # a read-only cache directory only costs speed

    def peek(self, signature: str):
        """Memory → disk lookup without compiling anything new."""
        module = self._memory.get(signature)
        if module is not None:
            self._memory.move_to_end(signature)
            self.stats.memory_hits += 1
            return module
        module = self._load_disk(signature)
        if module is not None:
            self.stats.disk_hits += 1
            self._remember(module)
        return module

    def get(self, exec_plan: ExecutionPlan):
        """The main entry: cached module for ``exec_plan``, compiling (and
        persisting) it on a miss."""
        from ..codegen.emitpy import compile_source, emit_plan_source

        signature = exec_plan.signature()
        module = self.peek(signature)
        if module is not None:
            return module
        self.stats.misses += 1
        t0 = time.perf_counter()
        source = emit_plan_source(exec_plan)
        module = compile_source(source, expected_signature=signature)
        self.stats.compile_seconds += time.perf_counter() - t0
        self._store_disk(module)
        self._remember(module)
        return module

    # -- the native (cjit) tier --------------------------------------------

    def _remember_native(self, module) -> None:
        self._native[module.signature] = module
        self._native.move_to_end(module.signature)
        while len(self._native) > self.memory_slots:
            self._native.popitem(last=False)
            self.stats.evictions += 1

    def peek_native(self, signature: str,
                    fingerprint: Optional[str] = None, disk: bool = True):
        """Memory → disk ``.so`` lookup without compiling anything
        (``disk=False``: memory only).

        With ``fingerprint`` only the exactly-keyed object is considered
        (the compiling caller's view: a compiler change is a miss);
        without it any valid object for the signature is accepted (the
        mpjit view: it only executes, and every object for a signature is
        bit-identical by construction).  Corrupt or stale objects are
        quarantined, never re-dlopened.
        """
        module = self._native.get(signature)
        if module is not None:
            self._native.move_to_end(signature)
            self.stats.native_memory_hits += 1
            return module
        if not self.persist or not disk:
            return None
        from ..codegen.emitc import CJitCompileError, load_native

        if fingerprint is not None:
            candidates = [self.native_path(signature, fingerprint)]
        else:
            candidates = self._native_candidates(signature)
        for path in candidates:
            if not path.exists():
                continue
            try:
                module = load_native(path, expected_signature=signature)
            except CJitCompileError:
                self.stats.native_quarantined += 1
                self._quarantine_file(path, keep_suffix=True)
                continue
            self.stats.native_disk_hits += 1
            self._remember_native(module)
            return module
        return None

    def get_native(self, exec_plan: ExecutionPlan):
        """Cached native module for ``exec_plan``, compiling on a miss.

        Returns ``(module, reason)``: ``(CJitModule, None)`` on success,
        ``(None, why)`` when there is no compiler or compilation failed —
        the ``cjit`` backend turns the latter into a counted fallback to
        ``jit``, never an error.
        """
        natives, reason = _NativeBatch(self, [exec_plan]).finish()
        return (natives[0] if natives else None), reason

    # -- what a module backend runs ---------------------------------------

    def resolve(
        self,
        backend: str,
        plans: Optional[Sequence[ExecutionPlan]] = None,
        modules: Optional[list] = None,
        disk: bool = True,
    ) -> tuple[list, Optional[list], Optional[str]]:
        """The compiled modules ``backend`` runs: ``(modules, natives,
        reason)``, the one place a module backend's modules are chosen.
        They serve every strip: the run passes its strip to them
        (:func:`~repro.runtime.pool.run_modules`).

        ``modules`` are the numpy modules: the ones given (a warm alias's),
        else each plan's from :meth:`get`, compiling on a miss; ``jit``
        runs them.  ``natives`` is None or one native module per plan:

        * ``cjit`` with ``plans`` compiles each plan's ``.so`` on a miss,
          as :meth:`get_native` does, with ``cc`` started before the numpy
          modules are built so the two overlap; a failure is the
          ``reason``, noted once and counted
          (:func:`~repro.codegen.emitc.note_fallback`), and the run falls
          back to the numpy modules;
        * ``mpjit``, and ``cjit`` without ``plans``, never compile: each
          signature's cached twin (memory, then with ``disk`` any
          compiler's object on disk), or None when any is missing.  mpjit
          runs what cjit built, or the numpy modules on the worker pool.
        """
        if backend == "cjit" and plans is not None:
            batch = _NativeBatch(self, plans)
            try:
                if modules is None:
                    modules = [self.get(ep) for ep in plans]
                natives, reason = batch.finish()
            finally:
                batch.cancel()
            if reason is not None:
                from ..codegen.emitc import note_fallback

                note_fallback(reason)
            return modules, natives, reason
        if modules is None:
            modules = [self.get(ep) for ep in plans]
        if backend == "jit":
            return modules, None, None
        twins = [self.peek_native(m.signature, disk=disk) for m in modules]
        return modules, (twins if all(twins) else None), None

    # -- program aliases ---------------------------------------------------

    def lookup_alias(self, key: str):
        """All modules for a program-level key, or None when any is missing
        (at once for a non-persistent cache, which links no aliases)."""
        if not self.persist:
            return None
        path = self.alias_path(key)
        try:
            signatures = json.loads(path.read_text(encoding="utf-8"))
            assert isinstance(signatures, list)
        except (OSError, ValueError, AssertionError):
            self.stats.alias_misses += 1
            return None
        modules = [self.peek(sig) for sig in signatures]
        if any(module is None for module in modules):
            self.stats.alias_misses += 1
            return None
        self.stats.alias_hits += 1
        return modules

    def link_alias(self, key: str, signatures: Sequence[str]) -> None:
        if not self.persist:
            return
        path = self.alias_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(list(signatures)), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            pass

    def clear_memory(self) -> None:
        self._memory.clear()
        self._native.clear()


class _NativeBatch:
    """The ``.so`` of each of ``plans``, compiled where missing, with the
    compiles overlapping each other and whatever the caller does next.

    Construction emits each missing signature's C and starts ``cc`` on it
    (once per distinct signature, at most
    :func:`~repro.runtime.pool.available_cpus` at a time), then returns.
    :meth:`finish` goes through the plans in order: it looks each one up
    (:meth:`PlanCache.peek_native`) or reaps and loads its compile, and
    starts the next waiting compile as each one finishes.  Lookups and
    counts happen there, in plan order, so a batch counts exactly what
    one :meth:`PlanCache.get_native` per plan in turn would: the first
    failure ends it, and compiles started for later plans are cancelled
    uncounted (:meth:`cancel`).
    """

    def __init__(self, cache: PlanCache,
                 plans: Sequence[ExecutionPlan]) -> None:
        from ..codegen.emitc import compiler_fingerprint, find_compiler
        from .pool import available_cpus

        self.cache, self.plans = cache, plans
        self.compiler = find_compiler()
        self.builds: dict[int, object] = {}  # NativeBuild, or why not
        self.start_seconds: dict[int, float] = {}
        self.waiting: list[int] = []
        if self.compiler is None:
            return
        self.fingerprint = compiler_fingerprint(self.compiler)
        self.signatures = [ep.signature() for ep in plans]
        self.slots = available_cpus()
        seen = set()
        for i, sig in enumerate(self.signatures):
            if sig not in seen and not self._cached(sig):
                self.waiting.append(i)
            seen.add(sig)
        self._top_up()

    def _cached(self, signature: str) -> bool:
        """Whether a lookup may find ``signature``, without counting."""
        cache = self.cache
        return signature in cache._native or (
            cache.persist
            and cache.native_path(signature, self.fingerprint).exists())

    def _start(self, i: int) -> None:
        from ..codegen import emitc

        cache, sig = self.cache, self.signatures[i]
        t0 = time.perf_counter()
        try:
            self.builds[i] = emitc.start_plan_native(
                self.plans[i], compiler=self.compiler,
                so_path=(cache.native_path(sig, self.fingerprint)
                         if cache.persist else None),
                c_path=cache.c_source_path(sig) if cache.persist else None)
        except emitc.CJitError as exc:
            self.builds[i] = str(exc)
        except OSError as exc:  # read-only cache directory and kin
            self.builds[i] = f"native cache unwritable: {exc}"
        self.start_seconds[i] = time.perf_counter() - t0

    def _top_up(self) -> None:
        """Start waiting compiles while fewer than ``slots`` run; none
        after a start that failed."""
        while self.waiting and len(self.builds) < self.slots:
            i = self.waiting.pop(0)
            self._start(i)
            if isinstance(self.builds[i], str):
                self.waiting.clear()

    def finish(self) -> tuple[Optional[list], Optional[str]]:
        """``(natives, None)``, or ``(None, reason)`` for the first plan
        left without a native module."""
        from ..codegen import emitc

        if self.compiler is None:
            return None, emitc._NO_COMPILER
        cache = self.cache
        natives = []
        try:
            for i, sig in enumerate(self.signatures):
                if i in self.waiting:
                    self.waiting.remove(i)
                    self._start(i)
                elif i not in self.builds:
                    module = cache.peek_native(sig,
                                               fingerprint=self.fingerprint)
                    if module is not None:
                        natives.append(module)
                        continue
                    self._start(i)  # quarantined after all: a miss
                cache.stats.native_misses += 1
                build = self.builds.pop(i)
                if isinstance(build, str):
                    return None, build
                t0 = time.perf_counter()
                try:
                    module = build.load()
                except emitc.CJitError as exc:
                    return None, str(exc)
                except OSError as exc:
                    return None, f"native cache unwritable: {exc}"
                self._top_up()
                cache.stats.native_compile_seconds += (
                    self.start_seconds[i] + time.perf_counter() - t0)
                cache._remember_native(module)
                natives.append(module)
        finally:
            self.cancel()
        return natives, None

    def cancel(self) -> None:
        """Kill and clean up every compile not reaped."""
        builds, self.builds = self.builds, {}
        self.waiting.clear()
        for build in builds.values():
            if not isinstance(build, str):
                build.cancel()


def program_signature(program, params: Mapping[str, int], procs: int,
                      strip: Optional[int] = None) -> str:
    """Structural key of (program IR, params, procs) — everything
    :func:`~repro.runtime.execute.prepare_kernel` needs to produce a
    deterministic set of execution plans, hashable *without* running the
    planning pipeline.  Mutating any kernel body changes it.

    No compiled artifact depends on the strip, so nothing in the package
    passes ``strip``; the parameter stays for callers that key a digest
    by it (the e2e benchmark passes None)."""
    import hashlib

    from ..codegen.emitpy import CODEGEN_VERSION

    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode())
        digest.update(b"\x1f")

    feed(f"repro-program-signature-v1 codegen-v{CODEGEN_VERSION}")
    for s, seq in enumerate(program.sequences):
        feed(f"sequence {s} depth {seq.fusable_depth()}")
        for nest in seq:
            for lp in nest.loops:
                feed(f"loop {lp.var} {lp.lower} {lp.upper} {int(lp.parallel)}")
            for st in nest.body:
                feed(f"stmt {st}")
    for name, value in sorted(params.items()):
        feed(f"param {name}={value}")
    feed(f"procs {procs}")
    feed(f"strip {strip}")
    return digest.hexdigest()


_default_cache: Optional[PlanCache] = None


def default_cache() -> PlanCache:
    """The process-wide cache (created on first use, honouring
    ``$REPRO_JIT_CACHE_DIR`` at creation time)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = PlanCache()
    return _default_cache


def reset_default_cache() -> None:
    """Drop the process-wide cache so the next use re-reads the env var."""
    global _default_cache
    _default_cache = None
