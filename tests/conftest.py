"""Shared fixtures: the paper's running examples and small helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import Affine, Loop, LoopNest, LoopSequence, assign, load


@pytest.fixture(autouse=True)
def _isolated_jit_cache(tmp_path, monkeypatch):
    """Point the jit plan cache at a per-test directory.

    Tests must never read (or pollute) the developer's ~/.cache/repro/jit;
    the process-wide cache and auto-tuner objects are reset around each
    test so they pick up the redirected environment variable (the tuner
    store lives inside the plan-cache directory).
    """
    from repro.runtime import plancache
    from repro.runtime.autotune import reset_default_tuner

    monkeypatch.setenv(plancache.ENV_CACHE_DIR, str(tmp_path / "jit-cache"))
    plancache.reset_default_cache()
    reset_default_tuner()
    yield
    plancache.reset_default_cache()
    reset_default_tuner()


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """No fault plan or supervisor/breaker state leaks between tests.

    A stray ``REPRO_FAULTS`` in the developer's environment must not
    crash unrelated tests, and a chaos test's installed plan, breaker
    trips or quarantine records must not outlive it.
    """
    from repro.runtime import faults, supervisor

    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    faults.reset()
    supervisor.reset_defaults()
    yield
    faults.reset()
    supervisor.reset_defaults()


@pytest.fixture(autouse=True)
def _bounded_sync_timeout(monkeypatch):
    """Drop the 600 s sync backstop sharply under pytest.

    A test that somehow defeats the parent's crash detection must fail
    within seconds, not minutes.  Workers are forked after the variable
    is set, so they inherit it.
    """
    from repro.runtime import pool

    monkeypatch.setenv(pool.ENV_SYNC_TIMEOUT, "15")


@pytest.fixture
def n_var():
    return Affine.var("n")


def make_1d_nest(name, write, body_builder, lower=2, parallel=True):
    """One-statement 1-D nest ``write[i] = body_builder(i)`` over 2..n-1."""
    i = Affine.var("i")
    n = Affine.var("n")
    return LoopNest(
        (Loop.make("i", lower, n - 1, parallel=parallel),),
        (assign(write, i, body_builder(i)),),
        name=name,
    )


@pytest.fixture
def fig9_sequence():
    """Paper Fig. 9: L1 a=b; L2 c=a[i+1]+a[i-1]; L3 d=c[i+1]+c[i-1]."""
    return LoopSequence(
        (
            make_1d_nest("L1", "a", lambda i: load("b", i)),
            make_1d_nest("L2", "c", lambda i: load("a", i + 1) + load("a", i - 1)),
            make_1d_nest("L3", "d", lambda i: load("c", i + 1) + load("c", i - 1)),
        ),
        name="fig9",
    )


@pytest.fixture
def fig13_sequence():
    """Paper Fig. 13: L1 a[i]=b[i-1]; L2 b[i]=a[i-1] (both directions)."""
    return LoopSequence(
        (
            make_1d_nest("L1", "a", lambda i: load("b", i - 1)),
            make_1d_nest("L2", "b", lambda i: load("a", i - 1)),
        ),
        name="fig13",
    )


@pytest.fixture
def fig4_sequence():
    """Paper Fig. 4: serializing (forward) dependence only."""
    return LoopSequence(
        (
            make_1d_nest("L1", "a", lambda i: load("b", i)),
            make_1d_nest("L2", "c", lambda i: load("a", i) + load("a", i - 1)),
        ),
        name="fig4",
    )


@pytest.fixture
def jacobi_sequence():
    from repro.kernels import jacobi

    return jacobi.program().sequences[0]


def kernel_plans(kernel, n, procs):
    """``(program, params, plans)``: one execution plan per sequence of
    ``kernel`` at size ``n`` on up to ``procs`` processors.

    The processor count is clamped to the Theorem-1 maximum; a sequence
    whose plan is illegal even on one processor at this size is left
    out (other sequences still run)."""
    from repro.core import (
        FusionLegalityError,
        build_execution_plan,
        derive_shift_peel,
        max_processors,
    )
    from repro.kernels import get_kernel

    program = get_kernel(kernel).program()
    params = {p: n for p in program.params}
    if "p" in params:
        params["p"] = 4
    plans = []
    for seq in program.sequences:
        plan = derive_shift_peel(seq, tuple(program.params), seq.fusable_depth())
        legal = max_processors(plan, params)[0]
        for nprocs in (min(procs, legal), 1):
            try:
                plans.append(build_execution_plan(plan, params, num_procs=nprocs))
                break
            except FusionLegalityError:
                continue
    return program, params, plans


def alloc_1d(names, size, seed=0):
    rng = np.random.default_rng(seed)
    return {name: rng.random(size) + 0.5 for name in names}


def alloc_2d(names, shape, seed=0):
    rng = np.random.default_rng(seed)
    return {name: rng.random(shape) + 0.5 for name in names}


def copy_arrays(arrays):
    return {k: v.copy() for k, v in arrays.items()}


def arrays_equal(a, b):
    return all(np.allclose(a[k], b[k]) for k in a)
