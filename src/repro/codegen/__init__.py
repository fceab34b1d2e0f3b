"""The emitters behind the compiled backends — numpy source for ``jit``
(:mod:`.emitpy`) and C for ``cjit`` (:mod:`.emitc`), both printers of one
per-processor box schedule,
:meth:`~repro.core.execplan.ExecutionPlan.rows`.  The direct method of
Fig. 11(a) is a listing only: :func:`repro.lang.emit.emit_direct`."""

from .emitpy import (
    CODEGEN_VERSION,
    JitCompileError,
    JitEmitError,
    JitModule,
    compile_plan,
    compile_source,
    emit_plan_source,
)

__all__ = [
    "CODEGEN_VERSION",
    "JitCompileError",
    "JitEmitError",
    "JitModule",
    "compile_plan",
    "compile_source",
    "emit_plan_source",
]
