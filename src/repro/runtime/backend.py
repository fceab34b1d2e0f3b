"""Execution backend registry.

Every way of executing an :class:`~repro.core.execplan.ExecutionPlan` is a
named :class:`Backend` with one calling convention, so the CLI, the
examples and the benchmarks select an executor with a string:

* ``interp`` — the per-iteration generator scheduler of
  :mod:`repro.runtime.parallel`.  Slow, but the semantic reference: it can
  interleave the simulated processors adversarially, which is what the
  correctness suite leans on.
* ``vector`` — :func:`repro.runtime.fastexec.run_vector`, numpy
  whole-array execution of the same plan (measured performance): the
  ``jit`` lowering's bodies compiled afresh, without the plan cache, and
  walked over the run's strip.

The three module backends share one runner, :func:`run_compiled`: the
plan cache resolves which compiled module a backend runs
(:meth:`~repro.runtime.plancache.PlanCache.resolve`, also what
:func:`~repro.runtime.execute.prepare_kernel` calls), and
:func:`~repro.runtime.pool.run_modules` runs it:

* ``jit`` — the plan lowered once to numpy source
  (:mod:`repro.codegen.emitpy`: one body per nest plus per-processor row
  tables), compiled and memoized through the two-level plan cache
  (:mod:`repro.runtime.plancache`), then run by
  :class:`~repro.codegen.emitpy.RowWalker`, one body call per row.  It
  ignores ``strip``: a legal plan stores the same bits at every strip,
  and the module holds the whole-box schedule only.
* ``mpjit`` — the same compiled plans executed in parallel: each thread
  or worker runs only its processors' fused and peeled phases (the
  paper's two-phase SPMD schedule, compiled), synchronizing
  point-to-point through the module's ``PEEL_DEPS`` map — on the
  process-wide native thread team over the plan's cached ``.so`` when
  there is one, else on a persistent worker pool over shared memory.
* ``cjit`` — the plan lowered to a C translation unit
  (:mod:`repro.codegen.emitc`), compiled with the system C compiler into
  a ``.so`` cached next to the ``.py`` source, and called through
  ``ctypes`` — no numpy per-statement overhead at all.  The ``.so``
  holds bodies and tables only; the process-wide team library walks
  them, whole boxes or tiled, so one ``.so`` serves every strip.  When
  no compiler is present, compilation fails or the team library cannot
  be had it falls back to ``jit`` with a one-line note and a counter,
  never an error.

``Backend.run(..., verify=True)`` cross-checks any fast backend against
the interpreter on the spot and raises :class:`BackendMismatch` unless the
results are bit-identical — the same differential check the test suite
applies on small shapes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, MutableMapping, Optional

import numpy as np

from ..core.execplan import ExecutionPlan
from .fastexec import run_vector
from .parallel import run_parallel
from .plancache import PlanCache, default_cache
from .pool import run_modules


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
            stats = self.runner(exec_plan, arrays, interleave=interleave,
                                strip=strip, rng=rng)
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


def run_compiled(
    backend: str,
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    strip: Optional[int] = None,
    cache: Optional[PlanCache] = None,
    max_workers: Optional[int] = None,
) -> dict:
    """The ``jit``, ``cjit`` and ``mpjit`` runner: ``exec_plan``'s modules
    resolved through the plan cache (``cache``, default
    :func:`~repro.runtime.plancache.default_cache`) by
    :meth:`~repro.runtime.plancache.PlanCache.resolve` and run over
    ``arrays`` in place by :func:`~repro.runtime.pool.run_modules`, as
    ``execute_prepared`` runs a prep's.  The modules serve every strip;
    ``strip`` goes to the run.  ``max_workers`` caps mpjit's workers."""
    if cache is None:
        cache = default_cache()
    modules, natives, _ = cache.resolve(backend, [exec_plan])
    return run_modules(backend, natives or modules, arrays, cache,
                       strip=strip, max_workers=max_workers)


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
    runner=partial(run_compiled, "jit"),
))
register_backend(Backend(
    name="mpjit",
    description="compiled per-processor entry points run in parallel "
                "(fused phase, point-to-point neighbor sync, peeled "
                "phase): a native thread team when the plan's .so is "
                "cached, else a persistent worker pool",
    runner=partial(run_compiled, "mpjit"),
))
register_backend(Backend(
    name="cjit",
    description="plan compiled to native C (cc -O1 -fstrict-aliasing "
                "-ffp-contract=off, signature+compiler-fingerprint cached "
                ".so, ctypes entry points); falls back to jit when no "
                "compiler is available",
    runner=partial(run_compiled, "cjit"),
))
