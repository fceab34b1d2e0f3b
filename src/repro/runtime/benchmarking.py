"""Wall-clock measurement of execution backends on the paper's kernels.

This is the machinery behind ``python -m repro exec``: prepare a kernel
and run it repeatedly through :mod:`repro.runtime.execute`, then report
seconds, per-repeat samples and their statistics, iteration counts and a
machine-independent checksum as one plain-dict record.  The repo's
benchmark is ``benchmarks/e2e`` (see its README); this module only
measures one kernel × backend on request.
"""

from __future__ import annotations

import math
import time
from typing import Mapping, Optional, Sequence

from .execute import execute_prepared, execute_resilient, prepare_kernel


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches numpy's default method without requiring numpy here.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (q / 100.0) * (len(data) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summarize_samples(
    seconds: Sequence[float],
    deadline_seconds: Optional[float] = None,
) -> dict:
    """Aggregate per-repeat wall-clock samples into record statistics.

    ``seconds[0]`` is the cold run (preparation already paid separately);
    the warm median is taken over the remaining samples when there are
    any.  ``jitter`` is IQR/median and is ``None`` when fewer than two
    samples make spread meaningless.  ``deadline_seconds`` (optional)
    counts samples exceeding it as ``deadline_misses``.
    """
    if not seconds:
        raise ValueError("no samples to summarize")
    med = percentile(seconds, 50)
    iqr = percentile(seconds, 75) - percentile(seconds, 25)
    warm = list(seconds[1:]) or list(seconds)
    jitter = round(iqr / med, 4) if (med > 0 and len(seconds) >= 2) else None
    misses = (
        sum(1 for s in seconds if s > deadline_seconds)
        if deadline_seconds is not None else 0
    )
    return {
        "median_seconds": round(med, 6),
        "warm_median_seconds": round(percentile(warm, 50), 6),
        "p50_seconds": round(med, 6),
        "p95_seconds": round(percentile(seconds, 95), 6),
        "p99_seconds": round(percentile(seconds, 99), 6),
        "iqr_seconds": round(iqr, 6),
        "jitter": jitter,
        "deadline_seconds": deadline_seconds,
        "deadline_misses": misses,
    }


def measure_kernel(
    kernel: str,
    backend: str,
    params: Optional[Mapping[str, int]] = None,
    n: Optional[int] = None,
    procs: int = 4,
    strip: Optional[int] = None,
    repeat: int = 3,
    seed: int = 7,
    verify: bool = False,
    use_cache: bool = True,
    max_workers: Optional[int] = None,
    autotune: bool = False,
    tuner=None,
    retries: int = 0,
) -> dict:
    """Per-repeat wall-clock record for one kernel × backend.

    ``autotune=True`` consults the measured-cost auto-tuner
    (:mod:`repro.runtime.autotune`) first: the persisted winner for this
    (kernel IR, shape, procs, machine) — timed once, reused on every
    warm run — overrides ``backend``/``strip``/``max_workers``,
    and the tuner's key, hit/miss flag and counters are recorded under
    ``record["autotune"]``.

    The checksum must be identical across repeats (execution is
    deterministic); a mismatch raises ``RuntimeError`` immediately.

    Every repeat is kept as its own sample under ``samples`` — a dict of
    ``seconds`` plus that repeat's share of the cost phases the jit cache
    is designed to amortize: ``plan_seconds`` (the analysis → derive →
    fuse → plan pipeline) and ``compile_seconds`` (source emission +
    ``compile()``) are paid by the first repeat only (0 on a warm program
    alias / cache hit respectively), and for ``mpjit`` each sample
    carries its own ``pool_runs``/``pool_spawn_seconds`` delta so pool
    startup is attributed to the repeat that paid it.

    The aggregate fields are derived from the samples: the headline
    ``seconds`` is still the best run, ``median_seconds`` /
    ``warm_median_seconds`` / ``p50`` / ``p95`` / ``p99`` / ``iqr`` /
    ``jitter`` (IQR/median) come from :func:`summarize_samples`,
    ``cold_seconds`` is plan + compile + first run and ``warm_seconds``
    the best run after the first.  ``use_cache=False`` bypasses the plan
    cache completely.

    For ``mpjit`` the record additionally reports pool totals:
    ``pool_spawn_seconds`` (forking the persistent workers, paid inside
    the *first* run only), ``pool_workers``, ``pool_runs`` and
    ``steady_seconds`` (an alias of ``warm_seconds``: every repeat after
    the first executes against already-warm workers, which is the number
    a long-running service would see).  ``max_workers`` caps the worker
    count for the mpjit backend.
    """
    wall0 = time.perf_counter()
    tuner_info = None
    if autotune:
        from .autotune import resolve_config

        config, tuner_info = resolve_config(
            kernel, params=params, n=n, procs=procs, seed=seed,
            tuner=tuner,
        )
        backend = config.get("backend", backend)
        strip = config.get("strip", strip)
        max_workers = config.get("max_workers", max_workers)
    prep = prepare_kernel(
        kernel, params=params, n=n, procs=procs, seed=seed,
        backend=backend, strip=strip, use_cache=use_cache,
        need_plans=verify,
    )
    pool_snapshot = None
    if backend == "mpjit":
        from .pool import pool_stats

        pool_snapshot = pool_stats()
    digest = None
    counters = None
    samples: list[dict] = []
    recovery_totals = {"retries": 0, "degraded_runs": 0}
    for index in range(max(1, repeat)):
        if retries > 0 and not verify:
            from .supervisor import RetryPolicy

            seconds, totals, run_digest, recovery = execute_resilient(
                prep, backend, strip=strip, no_cache=not use_cache,
                max_workers=max_workers,
                policy=RetryPolicy(max_attempts=retries + 1),
            )
            recovery_totals["retries"] += recovery["retries"]
            recovery_totals["degraded_runs"] += int(recovery["degraded"])
        else:
            seconds, totals, run_digest = execute_prepared(
                prep, backend, strip=strip, verify=verify,
                no_cache=not use_cache, max_workers=max_workers,
            )
        if digest is not None and run_digest != digest:
            raise RuntimeError(
                f"{kernel}/{backend}: nondeterministic checksum "
                f"({digest} vs {run_digest})"
            )
        digest = run_digest
        counters = totals
        sample = {
            "seconds": round(seconds, 6),
            "plan_seconds": round(prep.plan_seconds if index == 0 else 0.0, 6),
            "compile_seconds": round(
                prep.compile_seconds if index == 0 else 0.0, 6),
        }
        if backend == "mpjit":
            stats = pool_stats()
            sample["pool_runs"] = (stats.get("runs", 0)
                                   - pool_snapshot.get("runs", 0))
            sample["pool_spawn_seconds"] = round(
                stats.get("spawn_seconds", 0.0)
                - pool_snapshot.get("spawn_seconds", 0.0), 6)
            pool_snapshot = stats
        samples.append(sample)
    total_seconds = time.perf_counter() - wall0
    run_times = [s["seconds"] for s in samples]
    first_run = run_times[0]
    warm_best = min(run_times[1:]) if len(run_times) > 1 else None
    record = {
        "kernel": kernel,
        "backend": backend,
        "shape": prep.shape,
        "procs": procs,
        "seconds": round(min(run_times), 6),
        "iterations": counters["fused_iterations"] + counters["peeled_iterations"],
        "checksum": digest,
        "samples": samples,
        "plan_seconds": round(prep.plan_seconds, 6),
        "compile_seconds": round(prep.compile_seconds, 6),
        "cold_seconds": round(
            prep.plan_seconds + prep.compile_seconds + first_run, 6
        ),
        "warm_seconds": round(
            warm_best if warm_best is not None else first_run, 6
        ),
        "total_seconds": round(total_seconds, 6),
    }
    record.update(summarize_samples(run_times))
    if tuner_info is not None:
        record["autotune"] = tuner_info
    if retries > 0:
        record["recovery"] = dict(recovery_totals, budget=retries)
    if backend in ("jit", "mpjit", "cjit"):
        record["cache"] = dict(prep.cache_stats)
    if backend == "cjit":
        from ..codegen import emitc

        if prep.native_modules is not None:
            native, reason = True, None
        elif use_cache:
            native, reason = False, prep.native_reason
        else:
            # no-cache runs compile inline inside run_cjit; native status
            # mirrors compiler presence, the run itself noted any failure
            native = emitc.find_compiler() is not None
            reason = None if native else \
                "no C compiler found (set $REPRO_CC or install cc)"
        entry: dict = {"native": native}
        if reason:
            entry["fallback_reason"] = reason
        fp = emitc.compiler_fingerprint()
        if fp:
            entry["compiler_fingerprint"] = fp
        record["cjit"] = entry
    if backend == "mpjit":
        stats = pool_stats()
        record["pool_workers"] = stats.get("nworkers", 0)
        record["pool_runs"] = stats.get("runs", 0)
        record["pool_spawn_seconds"] = stats.get("spawn_seconds", 0.0)
        record["steady_seconds"] = record["warm_seconds"]
    return record
