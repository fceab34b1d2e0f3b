"""Two-level cache of jit-compiled execution plans.

Compiling a fused plan (:mod:`repro.codegen.emitpy`) costs analysis and
``compile()`` time that is pure overhead when the same kernel runs again —
the PyOP2 lesson: generate code per fused parloop once, key it by
structure, amortize across invocations.  This module provides:

* an **in-memory LRU** keyed by the structural plan signature
  (:meth:`~repro.core.execplan.ExecutionPlan.signature`: kernel IR hash +
  params + grid + boxes + strip), so repeated executions inside one
  process reuse the compiled module directly;
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
  signature (kernel IR + params + procs + strip, computable without
  planning) mapping to the per-sequence plan signatures.  A warm alias
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

    def get(self, exec_plan: ExecutionPlan, strip: Optional[int] = None):
        """The main entry: cached module for ``exec_plan``, compiling (and
        persisting) it on a miss."""
        from ..codegen.emitpy import compile_source, emit_plan_source

        signature = exec_plan.signature(strip=strip)
        module = self.peek(signature)
        if module is not None:
            return module
        self.stats.misses += 1
        t0 = time.perf_counter()
        source = emit_plan_source(exec_plan, strip=strip)
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

    def get_native(self, exec_plan: ExecutionPlan,
                   strip: Optional[int] = None):
        """Cached native module for ``exec_plan``, compiling on a miss.

        Returns ``(module, reason)``: ``(CJitModule, None)`` on success,
        ``(None, why)`` when there is no compiler or compilation failed —
        the ``cjit`` backend turns the latter into a counted fallback to
        ``jit``, never an error.
        """
        from ..codegen import emitc

        compiler = emitc.find_compiler()
        if compiler is None:
            return None, "no C compiler found (set $REPRO_CC or install cc)"
        fingerprint = emitc.compiler_fingerprint(compiler)
        signature = exec_plan.signature(strip=strip)
        module = self.peek_native(signature, fingerprint=fingerprint)
        if module is not None:
            return module, None
        self.stats.native_misses += 1
        t0 = time.perf_counter()
        try:
            if not self.persist:
                module = emitc.compile_plan_native(exec_plan, strip=strip,
                                                   compiler=compiler)
            else:
                source = emitc.emit_plan_c_source(exec_plan, strip=strip)
                so_path = self.native_path(signature, fingerprint)
                emitc.compile_c(source, so_path, compiler=compiler,
                                c_path=self.c_source_path(signature))
                module = emitc.load_native(so_path,
                                           expected_signature=signature,
                                           source=source)
        except emitc.CJitError as exc:
            return None, str(exc)
        except OSError as exc:  # read-only cache directory and kin
            return None, f"native cache unwritable: {exc}"
        self.stats.native_compile_seconds += time.perf_counter() - t0
        self._remember_native(module)
        return module, None

    # -- what a module backend runs ---------------------------------------

    def resolve(
        self,
        backend: str,
        plans: Optional[Sequence[ExecutionPlan]] = None,
        strip: Optional[int] = None,
        modules: Optional[list] = None,
        disk: bool = True,
    ) -> tuple[list, Optional[list], Optional[str]]:
        """The compiled modules ``backend`` runs: ``(modules, natives,
        reason)``, the one place a module backend's modules are chosen.

        ``modules`` are the numpy modules: the ones given (a warm alias's),
        else each plan's from :meth:`get`, compiling on a miss; ``jit``
        runs them.  ``natives`` is None or one native module per plan:

        * ``cjit`` with ``plans`` compiles each plan's ``.so`` on a miss
          (:meth:`get_native`); a failure is the ``reason``, noted once
          and counted (:func:`~repro.codegen.emitc.note_fallback`), and
          the run falls back to the numpy modules;
        * ``mpjit``, and ``cjit`` without ``plans``, never compile: each
          signature's cached twin (memory, then with ``disk`` any
          compiler's object on disk), or None when any is missing.  mpjit
          runs what cjit built, or the numpy modules on the worker pool.
        """
        if modules is None:
            modules = [self.get(ep, strip=strip) for ep in plans]
        if backend == "jit":
            return modules, None, None
        if backend == "mpjit" or plans is None:
            twins = [self.peek_native(m.signature, disk=disk)
                     for m in modules]
            return modules, (twins if all(twins) else None), None
        natives = []
        for ep in plans:
            native, reason = self.get_native(ep, strip=strip)
            if native is None:
                from ..codegen.emitc import note_fallback

                note_fallback(reason)
                return modules, None, reason
            natives.append(native)
        return modules, natives, None

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


def program_signature(program, params: Mapping[str, int], procs: int,
                      strip: Optional[int] = None) -> str:
    """Structural key of (program IR, params, procs, strip) — everything
    :func:`~repro.runtime.execute.prepare_kernel` needs to produce a
    deterministic set of execution plans, hashable *without* running the
    planning pipeline.  Mutating any kernel body changes it."""
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
