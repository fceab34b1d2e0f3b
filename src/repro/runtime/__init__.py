"""Execution: reference interpreter, compiled runner, simulated parallelism,
and the fast vectorized/multiprocess backends behind the backend registry."""

from .backend import (
    Backend,
    BackendMismatch,
    available_backends,
    checksum,
    get_backend,
    register_backend,
    run_jit,
)
from .fastexec import FastExecError, exec_box, run_vector, vector_dims
from .interp import (
    CompiledNest,
    compile_nest,
    run_nest,
    run_program,
    run_sequence_compiled,
    run_sequence_serial,
)
from .parallel import (
    fused_tile_boxes,
    fused_work,
    peeled_work,
    run_parallel,
    run_unfused_parallel,
)
from .plancache import (
    CacheStats,
    PlanCache,
    default_cache,
    program_signature,
    reset_default_cache,
)
from .pool import (
    WorkerPool,
    pool_stats,
    run_mpjit,
    run_mpjit_module,
    shutdown_pool,
)

__all__ = [
    "Backend",
    "BackendMismatch",
    "CacheStats",
    "CompiledNest",
    "FastExecError",
    "PlanCache",
    "WorkerPool",
    "available_backends",
    "checksum",
    "compile_nest",
    "default_cache",
    "exec_box",
    "fused_tile_boxes",
    "fused_work",
    "get_backend",
    "peeled_work",
    "pool_stats",
    "program_signature",
    "register_backend",
    "reset_default_cache",
    "run_jit",
    "run_mpjit",
    "run_mpjit_module",
    "run_nest",
    "run_parallel",
    "run_program",
    "run_sequence_compiled",
    "run_sequence_serial",
    "run_unfused_parallel",
    "shutdown_pool",
    "run_vector",
    "vector_dims",
]
