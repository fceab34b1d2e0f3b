"""Execution: reference interpreter, simulated parallelism, and the fast
vectorized/compiled/parallel backends behind the backend registry."""

from .backend import (
    Backend,
    BackendMismatch,
    available_backends,
    checksum,
    get_backend,
    register_backend,
    run_compiled,
)
from .fastexec import FastExecError, exec_box, run_vector, vector_dims
from .interp import run_nest, run_sequence_serial
from .parallel import run_parallel, run_unfused_parallel, work_items
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
    run_mpjit_module,
    shutdown_pool,
)

__all__ = [
    "Backend",
    "BackendMismatch",
    "CacheStats",
    "FastExecError",
    "PlanCache",
    "WorkerPool",
    "available_backends",
    "checksum",
    "default_cache",
    "exec_box",
    "get_backend",
    "pool_stats",
    "program_signature",
    "register_backend",
    "reset_default_cache",
    "run_compiled",
    "run_mpjit_module",
    "run_nest",
    "run_parallel",
    "run_sequence_serial",
    "run_unfused_parallel",
    "work_items",
    "shutdown_pool",
    "run_vector",
    "vector_dims",
]
