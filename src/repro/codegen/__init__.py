"""Executable code generation: CIR nodes and the direct method (Fig. 11(a)),
plus the emitters behind the compiled backends — numpy source for ``jit``
(:mod:`.emitpy`) and C for ``cjit`` (:mod:`.emitc`), both printers of one
per-processor box schedule,
:meth:`~repro.core.execplan.ExecutionPlan.rows`."""

from .cir import (
    CodeBarrier,
    CodeBlock,
    CodeFor,
    CodeIf,
    CodeNode,
    CodeStmt,
    Compare,
    block,
    loop,
    run_code,
)
from .direct import direct_fused_code, run_direct
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
    "CodeBarrier",
    "CodeBlock",
    "CodeFor",
    "CodeIf",
    "CodeNode",
    "CodeStmt",
    "Compare",
    "JitCompileError",
    "JitEmitError",
    "JitModule",
    "block",
    "compile_plan",
    "compile_source",
    "direct_fused_code",
    "emit_plan_source",
    "loop",
    "run_code",
    "run_direct",
]
