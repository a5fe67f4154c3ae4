"""Exact coefficient arithmetic.

The identity-testing strategy of the whole library lives here: every series or
operator identity is checked by exact evaluation at random rational sample
points (a nonzero rational function vanishes at a random point with negligible
probability), so the scalar layer provides

* reproducible sample contexts for (q, equivariant parameters, bundle weight, z),
* the universal finite product ratio behind all the q-hypergeometric factors
  and its cohomological limit, tabulated over depths by one running product
  (``ratio_table``) at a numeric q or z,
* the same ratio with q kept symbolic, as a factored product of binomials
  ``c * prod (1 - q^r u)^e`` (``BinomialProduct``): its pole order at a point
  is a count of vanishing factors, so residues need no polynomial algebra,
* dense univariate rational functions in q over big rationals (``QRational``),
  which no library path uses: they are the reference the factored products
  are tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence


class PoleError(ArithmeticError):
    """A factor 1 - q^r u vanished in denominator position at the sample point."""

    def __init__(self, r: int, value):
        super().__init__(f"vanishing factor 1 - q^{r} u at u={value}")
        self.r = r
        self.value = value


class DegenerateSampleError(ArithmeticError):
    """The random sample failed a genericity requirement; resample."""


class DoublePoleError(ArithmeticError):
    """A pole of order >= 2 where simplicity was required; resample."""


class TruncationError(ValueError):
    """A coefficient outside the reliable truncation range was requested."""


@dataclass(frozen=True)
class SampleContext:
    """One evaluation assignment for all scalar parameters.

    ``q`` and ``z`` belong to the two independent modes (no bookkeeping
    relation between them is imposed); ``Lambda`` are the multiplicative
    equivariant parameters, ``lam`` the scalar weight acting on bundle fibers.
    """

    q: Fraction
    Lambda: tuple[Fraction, ...]
    lam: Fraction
    z: Fraction
    seed: int | None = None

    def with_q(self, q) -> "SampleContext":
        return replace(self, q=Fraction(q))


def random_fraction(rng: random.Random, *, signed: bool = False) -> Fraction:
    """A random rational avoiding 0 and +-1."""
    while True:
        num = rng.randint(2, 199)
        den = rng.randint(2, 199)
        f = Fraction(num, den)
        if f == 1:
            continue
        if signed and rng.random() < 0.5:
            f = -f
        return f


def sample_context(n_lambda: int, seed: int, index: int = 0) -> SampleContext:
    """Deterministic generic sample number ``index`` for the given seed."""
    rng = random.Random(f"{seed}:{index}")
    lambdas: list[Fraction] = []
    while len(lambdas) < n_lambda:
        f = random_fraction(rng)
        if f not in lambdas:
            lambdas.append(f)
    q = random_fraction(rng, signed=True)
    lam = random_fraction(rng)
    z = random_fraction(rng, signed=True)
    return SampleContext(q=q, Lambda=tuple(lambdas), lam=lam, z=z, seed=seed)


def with_resampling(make_ctx: Callable[[int], object], fn: Callable[[object], object],
                    tries: int = 10, resamples: list | None = None, sample: int = 0):
    """Run ``fn`` on fresh contexts until it avoids sample degeneracies.

    Sample ``sample`` tries ``make_ctx(100 sample + t)`` for ``t < tries`` and
    returns (result, context) for the first that ``fn`` accepts.  Each skipped
    index goes to ``resamples`` with its exception; persistent failure
    re-raises the last error so model-level problems are reported rather than
    masked.
    """
    for t in range(tries):
        index = 100 * sample + t
        try:
            ctx = make_ctx(index)
            return fn(ctx), ctx
        except (PoleError, DegenerateSampleError, DoublePoleError) as exc:
            if resamples is not None:
                resamples.append((index, exc))
            if t == tries - 1:
                raise


def ratio_table(u_value, depths: Iterable[int], q=None, z=None) -> dict[int, Fraction]:
    """The universal ratio prod_{r<=0} f(r) / prod_{r<=D} f(r) at every depth D.

    f(r) = 1 - q^r u, or its cohomological limit u - r z when ``z`` is given
    instead of ``q``.  In finite form the ratio is 1/prod_{r=1}^{D} f(r) for
    D >= 0 and prod_{r=D+1}^{0} f(r) for D < 0, so one running product in
    each direction from r = 0 reads off every depth between the extremes of
    ``depths``; all of them are in the returned table.  A vanishing numerator
    factor is an exact zero of the ratio (the kill rule); a vanishing
    denominator factor is a sampling pole and raises, when a depth reaches it.
    """
    depths = set(depths)
    if z is None:
        def factor(r):
            return 1 - q ** r * u_value
    else:
        def factor(r):
            return u_value - r * z
    table = {0: Fraction(1)}
    value = Fraction(1)
    for r in range(1, max(depths, default=0) + 1):
        f = factor(r)
        if f == 0:
            raise PoleError(r, u_value)
        value /= f
        table[r] = value
    value = Fraction(1)
    for r in range(0, min(depths, default=0), -1):
        value *= factor(r)
        table[r - 1] = value
    return table


def finite_ratio(u_value, depth: int, q) -> Fraction:
    """``ratio_table`` read at the single depth ``depth``."""
    return ratio_table(u_value, (depth,), q)[depth]


# ---------------------------------------------------------------------------
# Products of binomials 1 - q^r u with q symbolic.
# ---------------------------------------------------------------------------


class BinomialProduct:
    """The exact function c * prod (1 - q^r u)^e of a symbolic q.

    The factors are a multiset of (r, u, e) with e = +1 (numerator) or -1
    (denominator), kept as net multiplicities per (r, u).  A factor with
    r = 0 is the constant 1 - u and is folded into c, so an r = 0 numerator
    factor with u = 1 makes the product identically zero (the kill rule).

    Every other factor has only simple zeros, at q^r = 1/u.  Near such a
    zero q0 it is -r * eps + O(eps^2) with eps = (q - q0)/q0, so the pole
    order at q0 and the leading coefficient in eps are read off the factors
    without expanding anything.  There is deliberately no addition: sums of
    these products are not products.
    """

    __slots__ = ("constant", "_factors")

    def __init__(self, constant=1, factors: Iterable[tuple[int, object, int]] = ()):
        constant = Fraction(constant)
        items = []
        for r, u, e in factors:
            if r == 0:
                constant *= (1 - Fraction(u)) ** e
            else:
                items.append(((int(r), Fraction(u)), e))
        self.constant = constant
        self._factors = _merged({}, items) if constant else {}

    @classmethod
    def _make(cls, constant: Fraction, net: dict) -> "BinomialProduct":
        out = cls.__new__(cls)
        out.constant = constant
        out._factors = net if constant else {}
        return out

    @classmethod
    def finite_ratio(cls, u_value, depth: int) -> "BinomialProduct":
        """``finite_ratio`` with q kept symbolic."""
        if depth >= 0:
            return cls(1, ((r, u_value, -1) for r in range(1, depth + 1)))
        return cls(1, ((r, u_value, 1) for r in range(depth + 1, 1)))

    @property
    def is_zero(self) -> bool:
        return self.constant == 0

    def __mul__(self, other) -> "BinomialProduct":
        if not isinstance(other, BinomialProduct):
            return NotImplemented
        return BinomialProduct._make(self.constant * other.constant,
                                     _merged(self._factors, other._factors.items()))

    def __truediv__(self, other) -> "BinomialProduct":
        if not isinstance(other, BinomialProduct):
            return NotImplemented
        inverse = ((key, -e) for key, e in other._factors.items())
        return BinomialProduct._make(self.constant / other.constant,
                                     _merged(self._factors, inverse))

    def adams(self, k: int) -> "BinomialProduct":
        """q -> q^k for k >= 1: every factor 1 - q^r u becomes 1 - q^{kr} u."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        return BinomialProduct._make(
            self.constant, {(k * r, u): e for (r, u), e in self._factors.items()})

    def _expansion(self, q0: Fraction) -> tuple[int, Fraction]:
        """Pole order at q0 and the leading coefficient of the product in eps."""
        order = 0
        lead = self.constant
        for (r, u), e in self._factors.items():
            value = 1 - q0 ** r * u
            if value == 0:
                order -= e
                value = Fraction(-r)
            lead *= value ** e
        return order, lead

    def evaluate(self, q) -> Fraction:
        """The value at q, as the limit where vanishing factors cancel."""
        q = Fraction(q)
        order, lead = self._expansion(q)
        if order > 0:
            r, u = next((r, u) for (r, u), e in self._factors.items()
                        if e < 0 and q ** r * u == 1)
            raise PoleError(r, u)
        return lead if order == 0 else Fraction(0)

    def residue(self, q0) -> Fraction:
        """Residue of f(q) dq/q at q = q0 (q0 != 0), for an at-most-simple pole."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ValueError("residue expects q0 != 0; the dq/q pole at 0 is not handled")
        order, lead = self._expansion(q0)
        if order > 1:
            raise DoublePoleError(f"pole of order {order} at q={q0}")
        return lead if order == 1 else Fraction(0)

    def __repr__(self) -> str:
        parts = [f"(1 - q^{r}*{u})^{e}" for (r, u), e in sorted(self._factors.items())]
        return " * ".join([str(self.constant)] + parts)


def _merged(net: dict, items) -> dict:
    """A copy of ``net`` with the (key, multiplicity) ``items`` added in."""
    out = dict(net)
    for key, e in items:
        n = out.get(key, 0) + e
        if n:
            out[key] = n
        else:
            del out[key]
    return out


# ---------------------------------------------------------------------------
# Univariate polynomials and rational functions in q over Fraction.
# ---------------------------------------------------------------------------


class QPoly:
    """Dense univariate polynomial in q with Fraction coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Sequence[Fraction] = ()):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def constant(cls, a) -> "QPoly":
        return cls((Fraction(a),))

    @classmethod
    def q_power(cls, n: int, coeff=1) -> "QPoly":
        if n < 0:
            raise ValueError("QPoly has no negative powers; use QRational")
        return cls((0,) * n + (Fraction(coeff),))

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.c

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-x for x in self.c))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero or other.is_zero:
            return QPoly()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x == 0:
                continue
            for j, y in enumerate(other.c):
                if y:
                    out[i + j] += x * y
        return QPoly(out)

    def scale(self, a) -> "QPoly":
        a = Fraction(a)
        return QPoly(tuple(x * a for x in self.c))

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.c) + 1)
        dlead = other.c[-1]
        dn = len(other.c)
        while len(rem) >= dn:
            coef = rem[-1] / dlead
            pos = len(rem) - dn
            quot[pos] = coef
            for i, x in enumerate(other.c):
                rem[pos + i] -= coef * x
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < dn:
                break
        return QPoly(quot), QPoly(rem)

    def evaluate(self, x) -> Fraction:
        out = Fraction(0)
        x = Fraction(x)
        for coeff in reversed(self.c):
            out = out * x + coeff
        return out

    def monic(self) -> "QPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.c[-1])

    def subst_power(self, k: int) -> "QPoly":
        """q -> q^k for k >= 1."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        if self.is_zero:
            return self
        out = [Fraction(0)] * ((len(self.c) - 1) * k + 1)
        for i, x in enumerate(self.c):
            out[i * k] = x
        return QPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, x in enumerate(self.c):
            if x == 0:
                continue
            if i == 0:
                parts.append(str(x))
            elif i == 1:
                parts.append(f"{x}*q" if x != 1 else "q")
            else:
                parts.append(f"{x}*q^{i}" if x != 1 else f"q^{i}")
        return " + ".join(parts)


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r.monic() if not r.is_zero else r
    return a.monic()


class QRational:
    """Reduced ratio of two QPoly's: the dense reference for ``BinomialProduct``."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly):
        if den.is_zero:
            raise ZeroDivisionError("QRational with zero denominator")
        if num.is_zero:
            num, den = QPoly(), QPoly.constant(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            lead = den.c[-1]
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, a) -> "QRational":
        return cls(QPoly.constant(a), QPoly.constant(1))

    @classmethod
    def q(cls) -> "QRational":
        return cls(QPoly.q_power(1), QPoly.constant(1))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @staticmethod
    def _coerce(x) -> "QRational":
        if isinstance(x, QRational):
            return x
        return QRational.constant(Fraction(x))

    def __add__(self, other) -> "QRational":
        o = self._coerce(other)
        return QRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "QRational":
        return QRational(-self.num, self.den)

    def __sub__(self, other) -> "QRational":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "QRational":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "QRational":
        o = self._coerce(other)
        return QRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRational":
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero QRational")
        return QRational(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "QRational":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "QRational":
        if k < 0:
            return QRational.constant(1) / self ** (-k)
        out = QRational.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, x) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise PoleError(0, x)
        return self.num.evaluate(x) / d

    def subst_power(self, k: int) -> "QRational":
        return QRational(self.num.subst_power(k), self.den.subst_power(k))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QRational.constant(other)
        return (isinstance(other, QRational)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den == QPoly.constant(1):
            return f"({self.num})"
        return f"({self.num}) / ({self.den})"


def q_factor(r: int, u_value) -> QRational:
    """The factor 1 - q^r u with symbolic q; r may be negative."""
    u = Fraction(u_value)
    if r >= 0:
        return QRational(QPoly.constant(1) - QPoly.q_power(r, u), QPoly.constant(1))
    return QRational(QPoly.q_power(-r) - QPoly.constant(u), QPoly.q_power(-r))


def finite_ratio_sym(u_value, depth: int) -> QRational:
    """finite_ratio with q kept symbolic."""
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
