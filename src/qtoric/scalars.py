"""Exact coefficient arithmetic.

The identity-testing strategy of the whole library lives here: every series or
operator identity is checked by exact evaluation at random rational sample
points (a nonzero rational function vanishes at a random point with negligible
probability), so the scalar layer provides

* reproducible sample contexts for (q, equivariant parameters, bundle weight, z),
* a Laurent monomial's value (``power_product``), built from integer powers
  of numerators and denominators with one normalisation,
* a list of rationals over their common denominator (``common_denominator``):
  the lcm D and the integer numerators, so that an integer-weighted sum of
  them is an int over D, and a product of such sums an int over a power of D,
* two integer kernels, the factors 1 - q^r u (``binomial``) and u - r z
  (``linear``): each returns an unnormalised pair (numerator, denominator) of
  ints, so a product of small factors is a product of int pairs that its
  caller normalises once, into one ``Fraction``,
* the cotangent Euler class prod (1 - U_j(alpha)), as one such pair
  (``cotangent_pair``), for both the trace and the residue recursion,
* the universal finite product ratio behind all the q-hypergeometric factors
  and its cohomological limit: its factors at a numeric q or z
  (``ratio_factor``), and its values over depths at a numeric q by one
  running product (``ratio_table``),
* the factors' leading terms at a root point q0 (``root_factor``): each is an
  order in eps = q/q0 - 1 and a lead (``LeadingTerm``), so a residue at q0
  needs no polynomial algebra.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Iterable, NamedTuple, Sequence


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


class SampleContext(NamedTuple):
    """One evaluation assignment for all scalar parameters.

    ``q`` and ``z`` belong to the two independent modes (no bookkeeping
    relation between them is imposed); ``Lambda`` are the multiplicative
    equivariant parameters, ``lam`` the scalar weight acting on bundle fibers.
    """

    q: Fraction
    Lambda: tuple[Fraction, ...]
    lam: Fraction
    z: Fraction


def random_fraction(rng: random.Random, *, signed: bool = False) -> Fraction:
    """A random rational avoiding 0 and +-1."""
    while True:
        num = rng.randint(2, 199)
        den = rng.randint(2, 199)
        if num == den:
            continue
        if signed and rng.random() < 0.5:
            num = -num
        return Fraction(num, den)


@lru_cache(maxsize=256)
def sample_context(n_lambda: int, seed: int, index: int = 0) -> SampleContext:
    """Deterministic generic sample number ``index`` for the given seed.

    The context is immutable, so it is drawn once per (N, seed, index) in a
    process; the memo keeps the 256 latest, which bounds a many-seed process."""
    rng = random.Random(f"{seed}:{index}")
    lambdas: list[Fraction] = []
    while len(lambdas) < n_lambda:
        f = random_fraction(rng)
        if f not in lambdas:
            lambdas.append(f)
    q = random_fraction(rng, signed=True)
    lam = random_fraction(rng)
    z = random_fraction(rng, signed=True)
    return SampleContext(q=q, Lambda=tuple(lambdas), lam=lam, z=z)


RESAMPLE_TRIES = 10  # contexts one sample may skip before its error is reported


def with_resampling(make_ctx: Callable[[int], object], fn: Callable[[object], object],
                    resamples: list | None = None, sample: int = 0):
    """Run ``fn`` on fresh contexts until it avoids sample degeneracies.

    Sample ``sample`` tries ``make_ctx(100 sample + t)`` for ``t <
    RESAMPLE_TRIES`` and returns (result, context) for the first that ``fn``
    accepts.  Each skipped index goes to ``resamples`` with its exception;
    persistent failure re-raises the last error so model-level problems are
    reported rather than masked.
    """
    for t in range(RESAMPLE_TRIES):
        index = 100 * sample + t
        try:
            ctx = make_ctx(index)
            return fn(ctx), ctx
        except (PoleError, DegenerateSampleError, DoublePoleError) as exc:
            if resamples is not None:
                resamples.append((index, exc))
            if t == RESAMPLE_TRIES - 1:
                raise


def power_pair(values: Sequence, exponents: Sequence[int]) -> tuple[int, int]:
    """prod_i values[i]^exponents[i] over rationals as an unnormalised pair
    (numerator, denominator) of integer powers of their numerators and
    denominators; the denominator may be negative."""
    num = den = 1
    for v, e in zip(values, exponents):
        if e > 0:
            num, den = num * v.numerator ** e, den * v.denominator ** e
        elif e < 0:
            num, den = num * v.denominator ** -e, den * v.numerator ** -e
    return num, den


def power_product(values: Sequence, exponents: Sequence[int]) -> Fraction:
    """``power_pair`` normalised once."""
    return Fraction(*power_pair(values, exponents))


def cotangent_pair(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """prod (1 - a/b) over int pairs (a, b) as an unnormalised int pair; a
    factor with a == b vanishes and raises ``PoleError(0, 1)``."""
    num = den = 1
    for a, b in pairs:
        if a == b:
            raise PoleError(0, Fraction(1))
        num, den = num * (b - a), den * b
    return num, den


def common_denominator(values: Sequence) -> tuple[int, list[int]]:
    """The lcm D of the rationals' denominators and their numerators over D:
    values[i] = nums[i] / D, so a linear form in them is an int over D."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def binomial(u_value, q) -> Callable[[int], tuple[int, int]]:
    """r -> 1 - q^r u at rational q and u, as an unnormalised pair (numerator,
    denominator) of ints built from integer powers of their numerators and
    denominators; for q != 0 the denominator is never 0, and it may be negative."""
    a, b, c, e = q.numerator, q.denominator, u_value.numerator, u_value.denominator

    def factor(r):
        num, den = (a ** r * c, b ** r * e) if r >= 0 else (b ** -r * c, a ** -r * e)
        return den - num, den
    return factor


def linear(u_value, z) -> Callable[[int], tuple[int, int]]:
    """r -> u - r z at rational u and z, as an unnormalised pair of ints."""
    a, b = u_value.numerator * z.denominator, z.numerator * u_value.denominator
    den = u_value.denominator * z.denominator

    def factor(r):
        return a - r * b, den
    return factor


def ratio_factor(u_value, q=None, z=None) -> Callable[[int], tuple[int, int]]:
    """f(r) = 1 - q^r u (``binomial``), or u - r z (``linear``) when ``z`` is
    given, of the universal ratio, as the kernel's pair of ints.

    The ratio prod_{r<=0} f(r) / prod_{r<=D} f(r) is 1/prod_{r=1}^{D} f(r)
    for D >= 0 and prod_{r=D+1}^{0} f(r) for D < 0.  A vanishing numerator
    factor is its exact zero, numerator 0 (the kill rule); a vanishing
    denominator factor is a sampling pole and raises.
    """
    kernel = binomial(u_value, q) if z is None else linear(u_value, z)

    def factor(r):
        f = kernel(r)
        if r > 0 and not f[0]:
            raise PoleError(r, u_value)
        return f
    return factor


def ratio_table(u_value, depths: Iterable[int], q) -> dict[int, Fraction]:
    """The ratio of ``ratio_factor`` at q at every depth between the extremes of ``depths``.

    One running product in each direction from r = 0 reads them all off; a
    pole raises when a depth reaches it.
    """
    factor = ratio_factor(u_value, q)
    depths = [0, *depths]
    table = {0: Fraction(1)}
    for r in range(1, max(depths) + 1):
        num, den = factor(r)
        table[r] = table[r - 1] * Fraction(den, num)
    for r in range(0, min(depths), -1):
        table[r - 1] = table[r] * Fraction(*factor(r))
    return table


class LeadingTerm(NamedTuple):
    """lead * eps^order + O(eps^(order + 1)), with q = q0 (1 + eps) near a root point q0.

    A factor 1 - q^r u is its nonzero value at q0, or -r eps + O(eps^2)
    where it vanishes there, so under * orders add and leads multiply.
    The r = 0 factor with u = 1 has lead 0: the exact zero of the kill rule.
    """

    order: int
    lead: Fraction

    def __mul__(self, other: "LeadingTerm") -> "LeadingTerm":
        return LeadingTerm(self.order + other.order, self.lead * other.lead)

    def residue(self) -> Fraction:
        """Residue of f(q) dq/q at q0, for an at-most-simple pole.

        dq/q = d eps / (1 + eps), so a simple pole's residue is its lead.
        """
        if self.lead == 0 or self.order >= 0:
            return Fraction(0)
        if self.order < -1:
            raise DoublePoleError(f"pole of order {-self.order} at the root point")
        return self.lead


def root_factor(u_value, q0) -> Callable[[int], tuple[int, int, int]]:
    """``ratio_factor``'s leading term at q = q0 (1 + eps), unnormalised: the
    triple (numerator, denominator, order) of ints for (num/den) eps^order.

    A denominator factor that vanishes at q0 is a pole of the ratio, not a
    sampling failure: it lowers the order.
    """
    kernel = binomial(u_value, q0)

    def factor(r):
        num, den = kernel(r)
        return (num, den, 0) if num else (-r, 1, 1)
    return factor


class QRational:
    """A placeholder with no arithmetic: no library path builds a rational
    function of q, since residues come from ``root_factor``'s leading terms.

    It stays only as the constructor the benchmark's tracer wraps and counts,
    which therefore reads 0; it goes when the benchmark stops naming it.
    """

    def __init__(self, *args):
        raise TypeError("qtoric has no dense rational functions of q; use root_factor")
