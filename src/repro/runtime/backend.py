"""Execution backend registry.

Every way of executing an :class:`~repro.core.execplan.ExecutionPlan` is a
named :class:`Backend` with one calling convention, so the CLI, the
examples and the benchmarks select an executor with a string:

* ``interp`` — the per-iteration generator scheduler of
  :mod:`repro.runtime.parallel`.  Slow, but the semantic reference: it can
  interleave the simulated processors adversarially, which is what the
  correctness suite leans on.
* ``vector`` — :func:`repro.runtime.fastexec.run_vector`, numpy
  whole-array execution of the same plan (measured performance).
* ``jit`` — :func:`run_jit`, the plan lowered once to literal numpy
  source (:mod:`repro.codegen.emitpy`), compiled and memoized through the
  two-level plan cache (:mod:`repro.runtime.plancache`), then executed as
  straight-line compiled code on every call.
* ``mpjit`` — :func:`repro.runtime.pool.run_mpjit`, the same compiled
  modules executed in parallel by a persistent worker pool: each worker
  runs only its processors' ``run_fused``/``run_peeled`` entry points
  over shared memory (the paper's two-phase SPMD schedule, compiled),
  synchronizing point-to-point through the module's ``PEEL_DEPS`` map.
* ``cjit`` — :func:`run_cjit`, the plan lowered to a C translation unit
  (:mod:`repro.codegen.emitc`), compiled with the system C compiler into
  a ``.so`` cached next to the ``.py`` source, and called through
  ``ctypes`` — no numpy per-statement overhead at all.  When no
  compiler is present or compilation fails it falls back to ``jit``
  with a one-line note and a counter, never an error.

``Backend.run(..., verify=True)`` cross-checks any fast backend against
the interpreter on the spot and raises :class:`BackendMismatch` unless the
results are bit-identical — the same differential check the test suite
applies on small shapes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, MutableMapping, Optional

import numpy as np

from ..core.execplan import ExecutionPlan
from .fastexec import run_vector
from .parallel import run_parallel
from .pool import run_mpjit


class BackendMismatch(RuntimeError):
    """A fast backend diverged from the reference interpreter."""


Runner = Callable[..., dict]


@dataclass(frozen=True)
class Backend:
    """A named executor for :class:`ExecutionPlan`s."""

    name: str
    description: str
    runner: Runner
    is_reference: bool = False

    def run(
        self,
        exec_plan: ExecutionPlan,
        arrays: MutableMapping[str, np.ndarray],
        *,
        strip: Optional[int] = None,
        interleave: str = "roundrobin",
        rng: Optional[np.random.Generator] = None,
        verify: bool = False,
        **options,
    ) -> dict:
        """Execute ``exec_plan`` over ``arrays`` in place and return the
        executor's counters.  With ``verify=True`` a non-reference backend
        is re-run through the interpreter on a copy of the inputs and any
        bitwise difference raises :class:`BackendMismatch`."""
        oracle = None
        if verify and not self.is_reference:
            oracle = {k: v.copy() for k, v in arrays.items()}
            get_backend("interp").run(
                exec_plan, oracle, strip=strip, interleave=interleave, rng=rng,
            )
        if self.is_reference:
            stats = self.runner(
                exec_plan, arrays, interleave=interleave,
                strip=strip if strip is not None else 4, rng=rng,
            )
        else:
            stats = self.runner(exec_plan, arrays, strip=strip, **options)
        if oracle is not None:
            bad = [k for k in arrays if not np.array_equal(arrays[k], oracle[k])]
            if bad:
                raise BackendMismatch(
                    f"backend {self.name!r} diverged from interpreter on "
                    f"array(s) {', '.join(sorted(bad))}"
                )
        return stats


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def checksum(arrays: MutableMapping[str, np.ndarray]) -> str:
    """Deterministic digest of a set of named arrays (name, shape and
    exact float bits), machine-independent for IEEE-754 arithmetic.
    A C-contiguous array is hashed in place; anything else is hashed as
    ``np.ascontiguousarray`` of it (which also makes a 0-d array 1-d)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        if arr.ndim == 0 or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        digest.update(name.encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr)  # the buffer in place, no copy
    return digest.hexdigest()[:16]


def run_jit(
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int] = None,
    no_cache: bool = False,
    cache=None,
) -> dict:
    """Execute ``exec_plan`` through generated-and-compiled numpy code.

    The first call for a given plan structure emits and compiles a module
    (cached in memory and on disk keyed by the plan signature); later
    calls — in this process or any other — replay the compiled module
    directly.  ``no_cache=True`` recompiles from scratch and touches no
    cache, which is the honest way to measure cold cost."""
    if no_cache:
        from ..codegen.emitpy import compile_plan

        module = compile_plan(exec_plan, strip=strip)
    else:
        if cache is None:
            from .plancache import default_cache

            cache = default_cache()
        module = cache.get(exec_plan, strip=strip)
    return module.run(arrays)


def run_cjit(
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int] = None,
    no_cache: bool = False,
    cache=None,
) -> dict:
    """Execute ``exec_plan`` through generated-and-compiled C code.

    Mirrors :func:`run_jit`: the first call for a plan structure emits,
    compiles (``cc -O2 -shared -fPIC``) and caches a shared object keyed
    by the plan signature plus the compiler fingerprint; later calls
    dlopen/reuse it.  A missing compiler or a failed compilation falls
    back to :func:`run_jit` — noted once, counted always
    (:func:`repro.codegen.emitc.fallback_stats`), never an error."""
    from ..codegen import emitc

    module = None
    reason = None
    if no_cache:
        try:
            module = emitc.compile_plan_native(exec_plan, strip=strip)
        except emitc.CJitError as exc:
            reason = str(exc)
    else:
        if cache is None:
            from .plancache import default_cache

            cache = default_cache()
        module, reason = cache.get_native(exec_plan, strip=strip)
    if module is None:
        emitc.note_fallback(reason or "native compilation unavailable")
        return run_jit(exec_plan, arrays, strip=strip, no_cache=no_cache,
                       cache=cache)
    return module.run(arrays)


register_backend(Backend(
    name="interp",
    description="per-iteration generator scheduler (semantic reference, "
                "adversarial interleavings)",
    runner=run_parallel,
    is_reference=True,
))
register_backend(Backend(
    name="vector",
    description="numpy whole-array execution of fused strips and peels",
    runner=run_vector,
))
register_backend(Backend(
    name="jit",
    description="plan compiled once to numpy source (plan-signature cached "
                "in memory and on disk), executed many times",
    runner=run_jit,
))
register_backend(Backend(
    name="mpjit",
    description="compiled per-processor entry points executed by a "
                "persistent worker pool over shared memory (fused phase, "
                "point-to-point neighbor sync, peeled phase)",
    runner=run_mpjit,
))
register_backend(Backend(
    name="cjit",
    description="plan compiled to native C (cc -O2, signature+compiler-"
                "fingerprint cached .so, ctypes entry points); falls back "
                "to jit when no compiler is available",
    runner=run_cjit,
))
