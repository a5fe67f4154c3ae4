"""The dense route to a residue, for the tests.

A q-hypergeometric coefficient is expanded into one reduced ratio of
polynomials in q (``qtoric.scalars.QRational``), and its residue at a root
point q0 is found by polynomial division.  The library reads the same
residue from the leading terms of its factors (``scalars.root_factor``);
this route shares none of that, so it is an independent check of every
residue the recursion takes.
"""

from __future__ import annotations

from fractions import Fraction

from qtoric.scalars import DoublePoleError, QPoly, QRational


def q_factor(r: int, u_value) -> QRational:
    """The factor 1 - q^r u with symbolic q; r may be negative."""
    u = Fraction(u_value)
    if r >= 0:
        return QRational(QPoly.constant(1) - QPoly.q_power(r, u), QPoly.constant(1))
    return QRational(QPoly.q_power(-r) - QPoly.constant(u), QPoly.q_power(-r))


def finite_ratio_sym(u_value, depth: int) -> QRational:
    """The finite ratio of ``scalars.ratio_table`` at one depth, with q kept symbolic."""
    out = QRational.constant(1)
    if depth > 0:
        for r in range(1, depth + 1):
            out = out / q_factor(r, u_value)
    else:
        for r in range(depth + 1, 1):
            out = out * q_factor(r, u_value)
    return out


def _root_multiplicity(p: QPoly, x0: Fraction) -> tuple[int, QPoly]:
    """Multiplicity of x0 as a root of p, and p with those factors removed."""
    mult = 0
    divisor = QPoly((-Fraction(x0), Fraction(1)))
    while not p.is_zero and p.evaluate(x0) == 0:
        p, rem = p.divmod(divisor)
        assert rem.is_zero
        mult += 1
    return mult, p


def residue_at(f: QRational, q0) -> Fraction:
    """Residue of f(q) dq/q at q = q0 (q0 != 0), for an at-most-simple pole."""
    q0 = Fraction(q0)
    if q0 == 0:
        raise ValueError("residue_at expects q0 != 0; the dq/q pole at 0 is not handled")
    mult, reduced = _root_multiplicity(f.den, q0)
    if mult == 0:
        return Fraction(0)
    if mult > 1:
        raise DoublePoleError(f"pole of order {mult} at q={q0}")
    return f.num.evaluate(q0) / (q0 * reduced.evaluate(q0))
