"""Preparing and executing a kernel: the one entry point every caller uses.

``repro exec`` (through :func:`repro.runtime.benchmarking.measure_kernel`),
the ``repro serve`` daemon, the auto-tuner and the e2e benchmark all go
through the same three steps: :func:`prepare_kernel` builds the
shift-and-peel plans for every sequence of a kernel (or takes the compiled
modules straight from a warm plan-cache alias), :func:`execute_prepared`
allocates seeded arrays and runs them through a named backend
(:mod:`repro.runtime.backend`), returning seconds, iteration counters and a
machine-independent checksum, and :func:`execute_resilient` wraps that run
in bounded retries down the degradation ladder.  Which compiled modules
a module backend runs is decided by the prep's plan cache
(:meth:`~repro.runtime.plancache.PlanCache.resolve`), at prepare time;
they run over views of the shared execution arena
(:mod:`repro.runtime.arena`): inputs filled in place, hashed in place,
run in place by an ``mpjit`` thread team or handed to its worker pool by
spec.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from ..core import build_execution_plan, derive_shift_peel, max_processors
from ..core.execplan import ExecutionPlan
from ..ir.sequence import Program
from ..kernels import get_kernel
from .arena import Layout, borrow, fill_seeded
from .backend import checksum, get_backend
from .plancache import PlanCache, default_cache, program_signature
from .pool import run_modules

#: Backends that can run a prep's compiled modules directly; every other
#: backend executes the prep's plans through the backend registry.
MODULE_BACKENDS = ("jit", "mpjit", "cjit")


def resolve_params(
    info,
    program: Program,
    params: Optional[Mapping[str, int]] = None,
    n: Optional[int] = None,
) -> dict[str, int]:
    """The concrete parameter binding a kernel runs at."""
    run_params = dict(info.default_params) or {p: 128 for p in program.params}
    if params:
        run_params.update(params)
    if n is not None:
        run_params["n"] = n
        if "m" in run_params:
            run_params["m"] = n
    return run_params


@dataclass
class PreparedKernel:
    """Everything needed to execute one kernel repeatably.

    For a module backend, ``cache`` is the plan cache that resolved the
    compiled modules and ``modules`` holds the numpy module per plan; with
    a warm program alias ``plans`` stays empty — planning was skipped
    entirely.  For ``cjit``, ``native_modules`` holds the dlopen'd
    :class:`~repro.codegen.emitc.CJitModule` per plan when the native tier
    is live, and ``native_reason`` records why it is not (the run falls
    back to the numpy ``modules``).  For ``mpjit`` it holds the native
    twins the thread team runs, when the plan cache had every one (None:
    the worker pool runs the numpy ``modules``).
    ``plan_seconds``/``compile_seconds`` record what preparation actually
    cost so callers can report overhead honestly.
    """

    name: str
    program: Program
    params: dict[str, int]
    plans: list[ExecutionPlan]
    procs: int
    seed: int
    modules: Optional[list] = None
    native_modules: Optional[list] = None
    native_reason: Optional[str] = None
    plan_seconds: float = 0.0
    compile_seconds: float = 0.0
    cache: Optional[PlanCache] = None
    cache_stats: dict = field(default_factory=dict)

    @cached_property
    def layout(self) -> Layout:
        """Every array's ``(name, shape, dtype)`` in declaration order."""
        return tuple((d.name, d.concrete_shape(self.params), "<f8")
                     for d in self.program.arrays)

    def alloc(self) -> dict[str, np.ndarray]:
        """Fresh, owned copies of the seeded inputs."""
        arrays = {name: np.empty(shape, dtype)
                  for name, shape, dtype in self.layout}
        fill_seeded(arrays.values(), self.seed)
        return arrays

    @property
    def shape(self) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))


def prepare_kernel(
    kernel: str,
    params: Optional[Mapping[str, int]] = None,
    n: Optional[int] = None,
    procs: int = 4,
    seed: int = 7,
    backend: Optional[str] = None,
    strip: Optional[int] = None,
    cache: Optional[PlanCache] = None,
    need_plans: bool = False,
) -> PreparedKernel:
    """Fuse every sequence of ``kernel`` and build its execution plans.

    ``procs`` is clamped per sequence to the legal maximum (Theorem 1); the
    reported processor count is the request, each plan carries its own
    clamped grid.

    For the :data:`MODULE_BACKENDS` the plan cache (``cache``, default
    :func:`~repro.runtime.plancache.default_cache`; ``PlanCache(persist=
    False)`` compiles afresh and writes nothing) resolves the compiled
    modules (:meth:`~repro.runtime.plancache.PlanCache.resolve`), and the
    prep keeps it for the runs.  A warm program alias (same kernel IR,
    params, procs and strip) yields them without running the analysis →
    derive → fuse → plan pipeline at all; ``cjit`` takes that shortcut
    only when every aliased plan also has a cached ``.so``, else it plans
    and compiles (or records the fallback reason).  ``need_plans=True``
    forces planning regardless (``verify`` needs the plans for the
    interpreter oracle).
    """
    info = get_kernel(kernel)
    program = info.program()
    run_params = resolve_params(info, program, params=params, n=n)
    compiled = backend in MODULE_BACKENDS
    if compiled:
        if cache is None:
            cache = default_cache()
        alias_key = program_signature(program, run_params, procs, strip)
        if not need_plans:
            before = cache.stats.snapshot()
            modules = cache.lookup_alias(alias_key)
            if modules is not None:
                _, natives, _ = cache.resolve(backend, modules=modules)
                if backend != "cjit" or natives is not None:
                    return PreparedKernel(
                        name=kernel, program=program, params=run_params,
                        plans=[], procs=procs, seed=seed, modules=modules,
                        native_modules=natives, cache=cache,
                        cache_stats=cache.stats.delta(before),
                    )
    t0 = time.perf_counter()
    plans = []
    for seq in program.sequences:
        plan = derive_shift_peel(seq, tuple(program.params), seq.fusable_depth())
        legal = max_processors(plan, run_params)[0]
        plans.append(
            build_execution_plan(plan, run_params, num_procs=min(procs, legal))
        )
    prep = PreparedKernel(
        name=kernel, program=program, params=run_params, plans=plans,
        procs=procs, seed=seed, plan_seconds=time.perf_counter() - t0,
    )
    if compiled:
        before = cache.stats.snapshot()
        prep.modules, prep.native_modules, prep.native_reason = \
            cache.resolve(backend, plans, strip=strip)
        cache.link_alias(alias_key, [m.signature for m in prep.modules])
        prep.cache = cache
        prep.cache_stats = cache.stats.delta(before)
        prep.compile_seconds = (
            prep.cache_stats["compile_seconds"]
            + prep.cache_stats["native_compile_seconds"])
    return prep


def execute_prepared(
    prep: PreparedKernel,
    backend: str,
    strip: Optional[int] = None,
    verify: bool = False,
    max_workers: Optional[int] = None,
) -> tuple[float, dict[str, int], str]:
    """One timed execution of all sequences: (seconds, counters, checksum).

    The inputs are filled before the clock starts and hashed after it
    stops; the run itself — including, on the first run, spawning the
    mpjit worker pool — is what the clock sees.  When ``prep`` carries
    precompiled modules, ``backend`` is one of :data:`MODULE_BACKENDS`
    and no interpreter verification is requested, the modules run
    directly over views of the execution arena
    (:func:`~repro.runtime.pool.run_modules`): the numpy modules for
    ``jit``, the native ones when ``cjit``/``mpjit`` have them (for
    ``mpjit`` resolved at prepare time, or found since in the prep's
    plan cache's memory tier), else the numpy ones; otherwise the plans
    execute through the backend registry over freshly allocated arrays.
    A prep without plans (a warm alias hit) cannot run on any other
    backend and raises ``ValueError``.
    """
    if (prep.modules is not None and not verify
            and backend in MODULE_BACKENDS):
        if backend == "mpjit" and prep.native_modules is None:
            # compiled since the prep?
            prep.native_modules = prep.cache.resolve(
                "mpjit", modules=prep.modules, disk=False)[1]
        run = prep.modules
        if backend != "jit" and prep.native_modules is not None:
            run = prep.native_modules
        with borrow() as arena:
            arrays, specs = arena.layout(prep.layout)
            fill_seeded(arrays.values(), prep.seed)
            t0 = time.perf_counter()
            totals = run_modules(backend, run, arrays, prep.cache,
                                 specs=specs, max_workers=max_workers)
            seconds = time.perf_counter() - t0
            return seconds, totals, checksum(arrays)
    if not prep.plans:
        raise ValueError(
            f"{prep.name} was prepared without plans (a warm plan-cache "
            f"alias) and cannot run on backend {backend!r}; prepare it "
            f"for {backend!r}")
    arrays = prep.alloc()
    be = get_backend(backend)
    options: dict = {}
    if backend in MODULE_BACKENDS:
        options["cache"] = prep.cache
    if backend == "mpjit" and max_workers is not None:
        options["max_workers"] = max_workers
    totals = {"fused_iterations": 0, "peeled_iterations": 0}
    t0 = time.perf_counter()
    for ep in prep.plans:
        stats = be.run(ep, arrays, strip=strip, verify=verify, **options)
        for key in totals:
            totals[key] += stats.get(key, 0)
    seconds = time.perf_counter() - t0
    return seconds, totals, checksum(arrays)


def _prep_signature(prep: PreparedKernel) -> str:
    """Stable per-artifact key for the circuit breaker: the compiled
    module signature when available, else the plan signature."""
    if prep.modules:
        return prep.modules[0].signature
    if prep.plans:
        return prep.plans[0].signature
    return prep.name


def execute_resilient(
    prep: PreparedKernel,
    backend: str,
    strip: Optional[int] = None,
    max_workers: Optional[int] = None,
    policy=None,
    breaker=None,
    signature: Optional[str] = None,
) -> tuple[float, dict[str, int], str, dict]:
    """:func:`execute_prepared` with bounded retries and degradation.

    Exec requests are idempotent (fresh arrays every attempt), so a
    failed attempt whose kind :data:`~repro.runtime.supervisor.RETRYABLE`
    marks retryable is retried after a deterministic exponential backoff
    (:class:`~repro.runtime.supervisor.RetryPolicy`), stepping down the
    backend ladder ``mpjit → jit → vector`` — every rung bit-identical
    by construction, so a degraded answer differs only in latency.  The
    per-signature :class:`~repro.runtime.supervisor.CircuitBreaker`
    remembers recent failures, so a poisoned artifact starts below
    ``mpjit`` instead of rediscovering the failure on every request.
    A rung that cannot run ``prep``'s compiled modules (``vector`` on a
    plan-less alias hit) gets the kernel re-prepared for it, once.

    Returns ``(seconds, counters, checksum, recovery)`` where
    ``recovery`` records ``retries``, ``backend_used``, ``degraded`` and
    the per-attempt failure kinds.  Raises
    :class:`~repro.runtime.supervisor.ExecError` carrying the last
    classified failure once attempts are exhausted.

    The zero-failure fast path costs one breaker dict lookup before the
    run and one after — the retry machinery stays off the hot path.
    """
    from .fastexec import FastExecError
    from .supervisor import (
        ExecError,
        RetryPolicy,
        classify_failure,
        default_breaker,
        degrade_ladder,
    )

    policy = policy or RetryPolicy()
    breaker = breaker or default_breaker()
    if signature is None:
        signature = _prep_signature(prep)
    ladder = degrade_ladder(backend)
    backend_now, _ = breaker.effective_backend(signature, backend)
    attempts: list[dict] = []
    for attempt in range(1, policy.max_attempts + 1):
        if backend_now not in MODULE_BACKENDS and not prep.plans:
            prep = prepare_kernel(prep.name, params=prep.params,
                                  procs=prep.procs, seed=prep.seed,
                                  backend=backend_now)
        try:
            seconds, counters, digest = execute_prepared(
                prep, backend_now, strip=strip, max_workers=max_workers,
            )
        except FastExecError as exc:
            failure = classify_failure(exc)
            breaker.record_failure(signature, backend)
            attempts.append({"backend": backend_now, "kind": failure.kind})
            if attempt >= policy.max_attempts or not failure.retryable:
                if isinstance(exc, ExecError):
                    raise
                raise ExecError(failure) from exc
            index = (ladder.index(backend_now)
                     if backend_now in ladder else 0)
            backend_now = ladder[min(index + 1, len(ladder) - 1)]
            time.sleep(policy.delay(attempt))
        else:
            breaker.record_success(signature)
            recovery = {
                "retries": attempt - 1,
                "requested_backend": backend,
                "backend_used": backend_now,
                "degraded": backend_now != backend,
                "attempts": attempts,
            }
            return seconds, counters, digest, recovery
    raise AssertionError("unreachable")  # pragma: no cover
