"""Affine index expressions.

Every subscript, loop bound and guard in the IR is an affine expression
``sum(coeff_v * v) + const`` over symbolic names (loop index variables and
size parameters such as ``n``).  Affine expressions are immutable and
hashable so they can be used as dictionary keys and set members during
dependence analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping


@dataclass(frozen=True)
class Affine:
    """An affine expression ``sum(coeffs[v] * v) + const``.

    ``coeffs`` is stored as a sorted tuple of ``(name, coefficient)`` pairs
    with zero coefficients removed, which makes structural equality and
    hashing canonical.
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    # -- construction -----------------------------------------------------

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine((), int(value))

    @staticmethod
    def var(name: str, coeff: int = 1, const: int = 0) -> "Affine":
        if coeff == 0:
            return Affine((), const)
        return Affine(((name, int(coeff)),), int(const))

    @staticmethod
    def from_dict(coeffs: Mapping[str, int], const: int = 0) -> "Affine":
        items = tuple(sorted((v, int(c)) for v, c in coeffs.items() if c != 0))
        return Affine(items, int(const))

    def __post_init__(self) -> None:
        # Canonicalize: sorted, non-zero coefficients only.
        cleaned = tuple(sorted((v, int(c)) for v, c in self.coeffs if c != 0))
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "const", int(self.const))

    # -- queries ----------------------------------------------------------

    def coeff(self, name: str) -> int:
        """Coefficient of ``name`` (0 if absent)."""
        for v, c in self.coeffs:
            if v == name:
                return c
        return 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def uses_only(self, names: Iterable[str]) -> bool:
        allowed = set(names)
        return all(v in allowed for v, _ in self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other: "Affine | int", sign: int) -> "Affine":
        other = _as_affine(other)
        merged: dict[str, int] = dict(self.coeffs)
        for v, c in other.coeffs:
            merged[v] = merged.get(v, 0) + sign * c
        return Affine.from_dict(merged, self.const + sign * other.const)

    def __add__(self, other: "Affine | int") -> "Affine":
        return self._combine(other, +1)

    __radd__ = __add__

    def __sub__(self, other: "Affine | int") -> "Affine":
        return self._combine(other, -1)

    def __rsub__(self, other: "Affine | int") -> "Affine":
        return _as_affine(other)._combine(self, -1)

    def __neg__(self) -> "Affine":
        return self.scale(-1)

    def scale(self, k: int) -> "Affine":
        if k == 0:
            return Affine.constant(0)
        return Affine.from_dict({v: c * k for v, c in self.coeffs}, self.const * k)

    def __mul__(self, k: int) -> "Affine":
        if not isinstance(k, int):
            raise TypeError("affine expressions only scale by integers")
        return self.scale(k)

    __rmul__ = __mul__

    def shift_var(self, name: str, delta: int) -> "Affine":
        """Substitute ``name -> name + delta`` (used to implement shifting)."""
        c = self.coeff(name)
        if c == 0 or delta == 0:
            return self
        return Affine(self.coeffs, self.const + c * delta)

    def substitute(self, name: str, replacement: "Affine | int") -> "Affine":
        """Substitute ``name -> replacement``."""
        c = self.coeff(name)
        if c == 0:
            return self
        rest = Affine.from_dict(
            {v: cc for v, cc in self.coeffs if v != name}, self.const
        )
        return rest + _as_affine(replacement).scale(c)

    def rename(self, mapping: Mapping[str, str]) -> "Affine":
        return Affine.from_dict(
            {mapping.get(v, v): c for v, c in self.coeffs}, self.const
        )

    # -- evaluation / printing --------------------------------------------

    def eval(self, env: Mapping[str, int]) -> int:
        total = self.const
        for v, c in self.coeffs:
            total += c * env[v]
        return total

    def __str__(self) -> str:
        parts: list[str] = []
        for v, c in self.coeffs:
            if c == 1:
                term = v
            elif c == -1:
                term = f"-{v}"
            else:
                term = f"{c}*{v}"
            if parts and not term.startswith("-"):
                parts.append(f"+{term}")
            else:
                parts.append(term)
        if self.const or not parts:
            if parts and self.const >= 0:
                parts.append(f"+{self.const}")
            else:
                parts.append(str(self.const))
        return "".join(parts)


def _as_affine(value: "Affine | int") -> Affine:
    if isinstance(value, Affine):
        return value
    if isinstance(value, int):
        return Affine.constant(value)
    raise TypeError(f"cannot coerce {value!r} to an affine expression")


def as_affine(value: "Affine | int | str") -> Affine:
    """Public coercion helper: ints become constants, strings become vars."""
    if isinstance(value, str):
        return Affine.var(value)
    return _as_affine(value)


@dataclass(frozen=True)
class BoundExpr:
    """A loop bound of the form ``min(...)`` / ``max(...)`` over affines.

    Plain affine bounds are represented with a single term and ``kind='affine'``.
    Generated (strip-mined / peeled) code needs ``min``/``max`` bounds, e.g.
    ``max(ii-1, istart+1)`` in Fig. 12 of the paper.
    """

    kind: str  # 'affine' | 'min' | 'max'
    terms: tuple[Affine, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in ("affine", "min", "max"):
            raise ValueError(f"bad bound kind {self.kind!r}")
        if self.kind == "affine" and len(self.terms) != 1:
            raise ValueError("affine bound must have exactly one term")
        if not self.terms:
            raise ValueError("bound must have at least one term")

    @staticmethod
    def affine(term: "Affine | int | str") -> "BoundExpr":
        return BoundExpr("affine", (as_affine(term),))

    @staticmethod
    def minimum(*terms: "Affine | int | str") -> "BoundExpr":
        ts = tuple(as_affine(t) for t in terms)
        return BoundExpr("affine", ts) if len(ts) == 1 else BoundExpr("min", ts)

    @staticmethod
    def maximum(*terms: "Affine | int | str") -> "BoundExpr":
        ts = tuple(as_affine(t) for t in terms)
        return BoundExpr("affine", ts) if len(ts) == 1 else BoundExpr("max", ts)

    def eval(self, env: Mapping[str, int]) -> int:
        values = [t.eval(env) for t in self.terms]
        if self.kind == "min":
            return min(values)
        if self.kind == "max":
            return max(values)
        return values[0]

    def shift(self, delta: int) -> "BoundExpr":
        return BoundExpr(self.kind, tuple(t + delta for t in self.terms))

    def __str__(self) -> str:
        if self.kind == "affine":
            return str(self.terms[0])
        inner = ",".join(str(t) for t in self.terms)
        return f"{self.kind}({inner})"
