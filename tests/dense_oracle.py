"""The dense route to a residue, for the tests.

A q-hypergeometric coefficient is expanded into one ratio of polynomials in
q (``Ratio``): two lists of ``Fraction`` coefficients, constant term first,
which products and quotients multiply out and nothing ever reduces.  Its
residue at a root point q0 is found by synthetic division by q - q0.  The
library reads the same residue from the leading terms of its factors
(``scalars.root_factor``); this route takes nothing from ``qtoric`` but its
exception classes, so it is an independent check of every residue the
recursion takes.
"""

from __future__ import annotations

from fractions import Fraction

from qtoric.scalars import DoublePoleError


def _product(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _value(p: list, x) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _divide_root(p: list, x0) -> list:
    """p / (q - x0) for a p that vanishes at x0, by synthetic division."""
    quotient, carry = [], Fraction(0)
    for c in reversed(p[1:]):
        carry = carry * x0 + c
        quotient.append(carry)
    return quotient[::-1]


class Ratio:
    """num(q) / den(q), unreduced; den is never the zero polynomial."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        self.num = [Fraction(c) for c in num]
        self.den = [Fraction(c) for c in den]
        if not any(self.den):
            raise ZeroDivisionError("ratio with zero denominator")

    def __mul__(self, other: "Ratio") -> "Ratio":
        return Ratio(_product(self.num, other.num), _product(self.den, other.den))

    def __truediv__(self, other: "Ratio") -> "Ratio":
        return Ratio(_product(self.num, other.den), _product(self.den, other.num))

    def evaluate(self, q) -> Fraction:
        return _value(self.num, q) / _value(self.den, q)


def q_factor(r: int, u_value) -> Ratio:
    """The factor 1 - q^r u with symbolic q; r may be negative."""
    u = Fraction(u_value)
    if r >= 0:
        num = [Fraction(0)] * (r + 1)
        num[0] += 1
        num[r] -= u
        return Ratio(num)
    return Ratio([-u] + [0] * (-r - 1) + [1], [0] * -r + [1])


def finite_ratio_sym(u_value, depth: int) -> Ratio:
    """The finite ratio of ``scalars.ratio_table`` at one depth, with q kept symbolic."""
    out = Ratio([1])
    if depth > 0:
        for r in range(1, depth + 1):
            out = out / q_factor(r, u_value)
    else:
        for r in range(depth + 1, 1):
            out = out * q_factor(r, u_value)
    return out


def residue_at(f: Ratio, q0) -> Fraction:
    """Residue of f(q) dq/q at q = q0 (q0 != 0), for an at-most-simple pole.

    Factors q - q0 common to both sides are divided out first; the pole's
    order is what is left of q0's multiplicity in the denominator.
    """
    q0 = Fraction(q0)
    if q0 == 0:
        raise ValueError("residue_at expects q0 != 0; the dq/q pole at 0 is not handled")
    num, den = f.num, f.den
    while _value(num, q0) == 0 and _value(den, q0) == 0:
        num, den = _divide_root(num, q0), _divide_root(den, q0)
    order = 0
    while _value(den, q0) == 0:
        den = _divide_root(den, q0)
        order += 1
    if order == 0:
        return Fraction(0)
    if order > 1:
        raise DoublePoleError(f"pole of order {order} at q={q0}")
    return _value(num, q0) / (q0 * _value(den, q0))
