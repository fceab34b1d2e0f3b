"""Measured-cost auto-tuning of execution configurations.

Strip size, worker count and backend are chosen statically today, but the
best choice depends on the kernel, the problem shape *and* the machine —
Baghdadi et al. (PAPERS.md) argue that static analysis should be combined
with measured dynamic feedback.  This module closes that loop:

* :func:`candidate_configs` enumerates a small set of plausible
  ``(backend, strip, workers)`` configurations for a processor
  count on this machine (serial compiled code always; the pooled
  parallel path only when there is more than one core to win with).
  Strips are timed for ``cjit`` only: its one ``.so`` per plan tiles at
  any strip, while a numpy module runs whole boxes at every strip, so a
  ``jit`` strip candidate would time the same code twice;
* :func:`resolve_config` times each candidate on the real kernel (best
  of a few repeats, through the same
  :func:`~repro.runtime.execute.prepare_kernel` /
  :func:`~repro.runtime.execute.execute_prepared` path ``repro exec``,
  ``repro serve`` and the e2e benchmark use) and picks the fastest;
* the winner is **persisted** next to the jit plan cache
  (``<cache>/v<CODEGEN_VERSION>/autotune/<key>.json``, see
  :attr:`repro.runtime.plancache.PlanCache.tuner_dir`), keyed by the
  structural program signature (kernel IR + params + procs) **plus a
  machine fingerprint** — a tuning result measured on one box is never
  replayed on another;
* warm runs consult the store first: a hit returns the winner without
  timing anything, and hit/miss/store counters
  (:class:`TunerStats`) are surfaced in the
  :func:`repro.runtime.benchmarking.measure_kernel` record and by the
  ``repro exec --autotune`` CLI.

Entries embed a schema tag and are validated on read; a corrupt or
foreign file is treated as a miss and re-tuned, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from .plancache import default_cache, program_signature
from .pool import available_cpus

SCHEMA = "repro-autotune/1"

#: Strip-size candidates for ``cjit``: whole boxes, and one moderate tile
#: size for shapes where cache blocking wins.  Both run the same ``.so``.
_STRIP_CANDIDATES = (None, 32)


@dataclass
class TunerStats:
    """Counters for one tuner instance (mirrors ``CacheStats``)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    tune_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "tune_seconds": round(self.tune_seconds, 6),
        }


def machine_fingerprint() -> str:
    """What makes a tuning result transferable: usable CPU count
    (:func:`~repro.runtime.pool.available_cpus`, so a winner tuned under
    a restricted affinity is not replayed on the full box) and ISA, plus
    everything that changes the *code being timed* — the Python
    major.minor (numpy dispatch costs shift between interpreters), the
    codegen version (new emitters produce different modules) and the C
    compiler fingerprint (a toolchain change re-times the native tier,
    and its presence/absence gates the ``cjit`` candidates).  Two hosts
    sharing a fingerprint are assumed to prefer the same configuration;
    anything finer (exact CPU model) would defeat cache reuse across CI
    runners for little accuracy."""
    from ..codegen.emitc import compiler_fingerprint
    from ..codegen.emitpy import CODEGEN_VERSION

    cc = compiler_fingerprint() or "none"
    return (f"cpu{available_cpus()}-{platform.machine() or 'unknown'}"
            f"-py{sys.version_info[0]}.{sys.version_info[1]}"
            f"-cg{CODEGEN_VERSION}-cc{cc}")


def tuning_key(program, params: Mapping[str, int], procs: int) -> str:
    """The persistent store key: structural program signature (kernel IR,
    params, procs — strip excluded, the tuner chooses it) plus the
    machine fingerprint."""
    base = program_signature(program, params, procs)
    digest = hashlib.sha256()
    digest.update(f"{SCHEMA}|{base}|{machine_fingerprint()}".encode())
    return digest.hexdigest()


def candidate_configs(procs: int,
                      cpu_count: Optional[int] = None) -> list[dict]:
    """The configurations worth timing for ``procs`` on this machine.

    Serial compiled code (``jit``, whole boxes) is always a candidate,
    and so is the native tier (``cjit``, at each of
    :data:`_STRIP_CANDIDATES`) when a C compiler is present; the parallel
    path (``mpjit``) joins only when both the plan and the
    machine (its usable CPUs) have parallelism to exploit.  Worker counts:
    all cores, plus a half-cores option on big hosts (smaller pools can
    win when memory bandwidth saturates first) — deduplicated by the
    *effective* pool size ``min(procs, workers)``, so a half-cores count
    that resolves to the same pool as "all cores" is timed once, and
    emitted sorted by that effective size with the full pool spelled
    ``max_workers=None`` (stored winners stay portable across hosts)."""
    if cpu_count is None:
        cpu_count = available_cpus()
    cands = [{"backend": "jit", "strip": None}]
    from ..codegen.emitc import find_compiler

    if find_compiler() is not None:
        cands.extend(
            {"backend": "cjit", "strip": strip}
            for strip in _STRIP_CANDIDATES
        )
    if cpu_count >= 2 and procs >= 2:
        full = min(procs, cpu_count)  # what max_workers=None resolves to
        counts = {full}
        if cpu_count >= 4:
            counts.add(min(procs, max(2, cpu_count // 2)))
        for count in sorted(counts):
            w: Optional[int] = None if count == full else count
            cands.append({"backend": "mpjit", "strip": None,
                          "max_workers": w})
    return cands


@dataclass
class AutoTuner:
    """Lookup/store layer over the persisted winner files.

    ``root=None`` resolves the directory lazily from the *current*
    default plan cache on every access, so redirecting
    ``$REPRO_JIT_CACHE_DIR`` (as tests and CI do) also redirects the
    tuner store.  ``persist=False`` keeps winners in memory only.
    """

    root: Optional[Path] = None
    persist: bool = True
    stats: TunerStats = field(default_factory=TunerStats)

    def __post_init__(self) -> None:
        self._memory: dict[str, dict] = {}

    def _dir(self) -> Path:
        return Path(self.root) if self.root is not None \
            else default_cache().tuner_dir

    def path(self, key: str) -> Path:
        return self._dir() / f"{key}.json"

    def lookup(self, key: str) -> Optional[dict]:
        """The persisted payload for ``key`` or None; counts hit/miss.
        Corrupt or foreign files count as ``invalid`` misses."""
        payload = self._memory.get(key)
        if payload is None and self.persist:
            try:
                payload = json.loads(
                    self.path(key).read_text(encoding="utf-8")
                )
            except OSError:
                payload = None
            except ValueError:
                payload = None
                self.stats.invalid += 1
        if payload is not None:
            if (not isinstance(payload, dict)
                    or payload.get("schema") != SCHEMA
                    or not isinstance(payload.get("winner"), dict)
                    or not isinstance(
                        payload["winner"].get("config"), dict)):
                self.stats.invalid += 1
                payload = None
        if payload is None:
            self.stats.misses += 1
            return None
        self._memory[key] = payload
        self.stats.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> None:
        self._memory[key] = payload
        self.stats.stores += 1
        if not self.persist:
            return
        path = self.path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True),
                           encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            pass  # a read-only store only costs re-tuning


def resolve_config(
    kernel: str,
    params: Optional[Mapping[str, int]] = None,
    n: Optional[int] = None,
    procs: int = 4,
    seed: int = 7,
    repeat: int = 2,
    tuner: Optional[AutoTuner] = None,
) -> tuple[dict, dict]:
    """The tuned configuration for ``(kernel, shape, procs, machine)``.

    Returns ``(config, info)``: ``config`` holds ``backend`` plus any of
    ``strip``/``max_workers``; ``info`` reports the store key,
    whether it was a hit, what was timed on a miss and the tuner's
    counters.  A hit costs one JSON read — no candidate executes.
    """
    from ..kernels import get_kernel
    from .execute import execute_prepared, prepare_kernel, resolve_params

    if tuner is None:
        tuner = default_tuner()
    info = get_kernel(kernel)
    program = info.program()
    run_params = resolve_params(info, program, params=params, n=n)
    key = tuning_key(program, run_params, procs)
    payload = tuner.lookup(key)
    if payload is not None:
        return dict(payload["winner"]["config"]), {
            "key": key, "hit": True, "candidates_timed": 0,
            "winner": payload["winner"], "stats": tuner.stats.as_dict(),
        }
    t0 = time.perf_counter()
    timed: list[dict] = []
    for cand in candidate_configs(procs):
        prep = prepare_kernel(kernel, params=params, n=n, procs=procs,
                              seed=seed, backend=cand["backend"])
        best = None
        for _ in range(max(1, repeat)):
            seconds, _counters, _digest = execute_prepared(
                prep, cand["backend"], strip=cand.get("strip"),
                max_workers=cand.get("max_workers"),
            )
            best = seconds if best is None else min(best, seconds)
        timed.append({"config": cand, "seconds": round(best, 6)})
    tune_seconds = time.perf_counter() - t0
    tuner.stats.tune_seconds += tune_seconds
    winner = min(timed, key=lambda t: t["seconds"])
    payload = {
        "schema": SCHEMA,
        "key": key,
        "machine": machine_fingerprint(),
        "kernel": kernel,
        "params": dict(run_params),
        "procs": procs,
        "winner": winner,
        "candidates": timed,
        "tune_seconds": round(tune_seconds, 6),
    }
    tuner.store(key, payload)
    return dict(winner["config"]), {
        "key": key, "hit": False, "candidates_timed": len(timed),
        "winner": winner, "tune_seconds": round(tune_seconds, 6),
        "stats": tuner.stats.as_dict(),
    }


_default_tuner: Optional[AutoTuner] = None


def default_tuner() -> AutoTuner:
    """The process-wide tuner (counters accumulate across calls; the
    store directory follows the default plan cache)."""
    global _default_tuner
    if _default_tuner is None:
        _default_tuner = AutoTuner()
    return _default_tuner


def reset_default_tuner() -> None:
    """Drop the process-wide tuner (tests isolate counters with this)."""
    global _default_tuner
    _default_tuner = None
