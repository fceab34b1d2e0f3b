"""CIR: a small structured IR for *generated* code.

The loop-nest IR of :mod:`repro.ir` describes source programs; the direct
method of Fig. 11(a) (:mod:`.direct`) needs richer constructs — ``min``/
``max`` loop bounds, guarded statements and barriers.  CIR provides exactly
those nodes, an interpreter (so the generated code is executable and
therefore testable), and a printer.  The strip-mined schedule of Fig. 12 is
not CIR: it is :meth:`~repro.core.execplan.ExecutionPlan.rows`, which the
executors and emitters walk.

Nodes evaluate bounds against an integer environment, so one tree serves
both the symbolic rendering (free names) and concrete execution (names
bound by :func:`run_code`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, MutableMapping

import numpy as np

from ..ir.expr import Affine, BoundExpr, as_affine
from ..ir.stmt import Assign


class CodeNode:
    """Base class for generated-code nodes."""

    def execute(self, env: MutableMapping[str, int], arrays) -> None:
        raise NotImplementedError

    def render(self, indent: int = 0) -> list[str]:
        raise NotImplementedError

    def statements(self) -> Iterator[Assign]:
        """All embedded assignments (for analysis/testing)."""
        return iter(())

    def __str__(self) -> str:
        return "\n".join(self.render())


IND = "    "


@dataclass(frozen=True)
class CodeStmt(CodeNode):
    stmt: Assign

    def execute(self, env, arrays) -> None:
        self.stmt.execute(env, arrays)

    def render(self, indent: int = 0) -> list[str]:
        return [f"{IND * indent}{self.stmt}"]

    def statements(self):
        yield self.stmt


@dataclass(frozen=True)
class CodeBlock(CodeNode):
    items: tuple[CodeNode, ...]

    def execute(self, env, arrays) -> None:
        for item in self.items:
            item.execute(env, arrays)

    def render(self, indent: int = 0) -> list[str]:
        out: list[str] = []
        for item in self.items:
            out.extend(item.render(indent))
        return out

    def statements(self):
        for item in self.items:
            yield from item.statements()


@dataclass(frozen=True)
class CodeFor(CodeNode):
    """``do var = lower, upper [, step]`` with min/max-capable bounds."""

    var: str
    lower: BoundExpr
    upper: BoundExpr
    body: CodeNode
    step: int = 1
    parallel: bool = False

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("loop step must be positive")

    def execute(self, env, arrays) -> None:
        lo = self.lower.eval(env)
        hi = self.upper.eval(env)
        saved = env.get(self.var)
        for value in range(lo, hi + 1, self.step):
            env[self.var] = value
            self.body.execute(env, arrays)
        if saved is None:
            env.pop(self.var, None)
        else:
            env[self.var] = saved

    def render(self, indent: int = 0) -> list[str]:
        kw = "doall" if self.parallel else "do"
        step = f", {self.step}" if self.step != 1 else ""
        head = f"{IND * indent}{kw} {self.var} = {self.lower}, {self.upper}{step}"
        return [head] + self.body.render(indent + 1) + [f"{IND * indent}end do"]

    def statements(self):
        yield from self.body.statements()


@dataclass(frozen=True)
class Compare:
    """``lhs op rhs`` over affine expressions; op in <=, <, >=, >, ==."""

    lhs: Affine
    op: str
    rhs: Affine

    OPS = ("<=", "<", ">=", ">", "==")

    def __post_init__(self) -> None:
        if self.op not in self.OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")

    def eval(self, env: Mapping[str, int]) -> bool:
        a = self.lhs.eval(env)
        b = self.rhs.eval(env)
        return {
            "<=": a <= b,
            "<": a < b,
            ">=": a >= b,
            ">": a > b,
            "==": a == b,
        }[self.op]

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class CodeIf(CodeNode):
    """Guarded node (the direct method's per-statement guards)."""

    cond: Compare
    body: CodeNode

    def execute(self, env, arrays) -> None:
        if self.cond.eval(env):
            self.body.execute(env, arrays)

    def render(self, indent: int = 0) -> list[str]:
        body_lines = self.body.render(0)
        if len(body_lines) == 1:
            return [f"{IND * indent}if ({self.cond}) {body_lines[0]}"]
        out = [f"{IND * indent}if ({self.cond}) then"]
        out += self.body.render(indent + 1)
        out.append(f"{IND * indent}end if")
        return out

    def statements(self):
        yield from self.body.statements()


@dataclass(frozen=True)
class CodeBarrier(CodeNode):
    """Synchronization point.  Executing a barrier in the single-threaded
    interpreter is a no-op; the SPMD driver uses it to split phases."""

    label: str = ""

    def execute(self, env, arrays) -> None:
        return None

    def render(self, indent: int = 0) -> list[str]:
        tag = f" ! {self.label}" if self.label else ""
        return [f"{IND * indent}<BARRIER>{tag}"]


def block(*items: CodeNode) -> CodeBlock:
    return CodeBlock(tuple(items))


def loop(
    var: str,
    lower: "BoundExpr | Affine | int | str",
    upper: "BoundExpr | Affine | int | str",
    *body: CodeNode,
    step: int = 1,
    parallel: bool = False,
) -> CodeFor:
    lo = lower if isinstance(lower, BoundExpr) else BoundExpr.affine(as_affine(lower))
    hi = upper if isinstance(upper, BoundExpr) else BoundExpr.affine(as_affine(upper))
    return CodeFor(var, lo, hi, block(*body), step=step, parallel=parallel)


def run_code(
    node: CodeNode,
    bindings: Mapping[str, int],
    arrays: MutableMapping[str, np.ndarray],
) -> None:
    """Execute a code tree under the given name bindings."""
    env = dict(bindings)
    node.execute(env, arrays)
