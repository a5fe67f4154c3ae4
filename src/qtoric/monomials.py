"""Laurent monomials as integer exponent vectors over a fixed symbol list."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class Monomial:
    """An exact Laurent monomial ``prod_i x_i^{e_i}``.

    Only the exponent vector is stored; the symbol names live with whoever
    owns the coordinate system (equivariant parameters, Novikov variables).
    """

    __slots__ = ("exps",)

    def __init__(self, exps: Sequence[int]):
        self.exps = tuple(int(e) for e in exps)

    @property
    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self.exps) != len(other.exps):
            raise ValueError("monomials live over different symbol lists")
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other.inverse()

    def __pow__(self, k: int) -> "Monomial":
        return Monomial(tuple(e * k for e in self.exps))

    def inverse(self) -> "Monomial":
        return Monomial(tuple(-e for e in self.exps))

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) < len(self.exps):
            raise ValueError("not enough values for this monomial")
        out = Fraction(1)
        for e, v in zip(self.exps, values):
            if e:
                out *= Fraction(v) ** e
        return out

    def format(self, names: Sequence[str]) -> str:
        parts = []
        for e, name in zip(self.exps, names):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        return f"Monomial({self.exps})"
