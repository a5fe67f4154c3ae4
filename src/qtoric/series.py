"""Truncated Novikov series and the q-hypergeometric series built on them.

Coefficients are exact: either rationals (all parameters evaluated at a sample
context) or, with the parameters evaluated and q kept symbolic for residue
work, factored products of binomials 1 - q^r u (components and bundle factors).
A component coefficient is a product over the columns of one universal finite
ratio, read from one table per column (``scalars.ratio_table``); degrees off
the fixed point's dual cone are exact zeros and are never tabulated.
Everything is localized: a global series is the family of its fixed-point
components, never a mixed object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import factorial
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .monomials import Monomial
from .scalars import (
    BinomialProduct,
    PoleError,
    SampleContext,
    TruncationError,
    finite_ratio,
    ratio_table,
)
from .toric import (
    FixedPoint,
    InvalidModelError,
    ToricData,
    box_degrees,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    mori_cone_membership,
)

Degree = tuple[int, ...]


@dataclass(frozen=True)
class TruncationBox:
    """Keep a degree iff it is effective and pairs with ``ample`` below ``bound``."""

    data: ToricData
    ample: tuple[Fraction, ...]
    bound: Fraction
    degrees: tuple[Degree, ...]

    @cached_property
    def degree_set(self) -> frozenset[Degree]:
        return frozenset(self.degrees)

    def pairing(self, d: Sequence[int]) -> Fraction:
        return sum(a * x for a, x in zip(self.ample, d))

    def contains(self, d: Sequence[int]) -> bool:
        return tuple(d) in self.degree_set


def truncation_box(data: ToricData, bound, ample: Sequence | None = None) -> TruncationBox:
    """Build the finite degree box; ample defaults to the chamber point omega."""
    ample_t = tuple(Fraction(a) for a in (ample if ample is not None else data.omega))
    bound = Fraction(bound)
    degrees = tuple(box_degrees(data, ample_t, bound))
    return TruncationBox(data=data, ample=ample_t, bound=bound, degrees=degrees)


def _is_zero(c) -> bool:
    return c.is_zero if isinstance(c, BinomialProduct) else c == 0


class NovikovSeries:
    """A truncated formal sum over effective degrees with exact coefficients."""

    __slots__ = ("box", "coeffs", "mode")

    def __init__(self, box: TruncationBox, coeffs: Mapping[Degree, object] | None = None,
                 mode: str = "k"):
        clean = {}
        if coeffs:
            for d, c in coeffs.items():
                d = tuple(int(x) for x in d)
                if not box.contains(d):
                    raise TruncationError(f"degree {d} lies outside the truncation box")
                if not _is_zero(c):
                    clean[d] = c
        self.box = box
        self.coeffs = clean
        self.mode = mode

    def coefficient(self, d: Sequence[int]):
        """Exact coefficient at d; 0 outside the effective cone, error beyond the box."""
        d = tuple(int(x) for x in d)
        if d in self.box.degree_set:
            return self.coeffs.get(d, Fraction(0))
        # The box holds every effective degree up to its bound.
        if self.box.pairing(d) > self.box.bound and mori_cone_membership(self.box.data, d)[0]:
            raise TruncationError(
                f"coefficient at {d} is beyond the truncation bound {self.box.bound}"
            )
        return Fraction(0)

    def support(self) -> tuple[Degree, ...]:
        return tuple(sorted(self.coeffs))

    def map_coefficients(self, fn: Callable) -> "NovikovSeries":
        return NovikovSeries(self.box, {d: fn(c) for d, c in self.coeffs.items()}, self.mode)

    def map_with_degree(self, fn: Callable) -> "NovikovSeries":
        return NovikovSeries(self.box, {d: fn(d, c) for d, c in self.coeffs.items()}, self.mode)

    def scale(self, a) -> "NovikovSeries":
        return self.map_coefficients(lambda c: c * a)

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, Fraction(0)) + c
        return NovikovSeries(self.box, out, self.mode)

    def __sub__(self, other: "NovikovSeries") -> "NovikovSeries":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, NovikovSeries)
                and self.box == other.box
                and self.coeffs == other.coeffs)

    def _check_compatible(self, other: "NovikovSeries") -> None:
        if self.box != other.box or self.mode != other.mode:
            raise ValueError("series live on different boxes or modes")

    def __repr__(self) -> str:
        terms = ", ".join(f"Q^{d}: {c}" for d, c in sorted(self.coeffs.items()))
        return f"NovikovSeries({terms or '0'})"


def constant_series(box: TruncationBox, value=1, mode: str = "k") -> NovikovSeries:
    zero = tuple(0 for _ in range(box.data.K))
    return NovikovSeries(box, {zero: Fraction(value)}, mode)


def multiply(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    """Truncated product; sound when both supports pair positively with ample."""
    a._check_compatible(b)
    out: dict[Degree, object] = {}
    for d1, c1 in a.coeffs.items():
        for d2, c2 in b.coeffs.items():
            d = tuple(x + y for x, y in zip(d1, d2))
            if a.box.contains(d):
                out[d] = out.get(d, Fraction(0)) + c1 * c2
    return NovikovSeries(a.box, out, a.mode)


def series_exp(s: NovikovSeries) -> NovikovSeries:
    """exp of a series with vanishing constant term, expanded to the box."""
    zero = tuple(0 for _ in range(s.box.data.K))
    if zero in s.coeffs:
        raise ValueError("series_exp needs a vanishing constant term")
    out = constant_series(s.box, 1, s.mode)
    power = constant_series(s.box, 1, s.mode)
    n = 0
    while True:
        n += 1
        power = multiply(power, s)
        if not power.coeffs:
            return out
        out = out + power.scale(Fraction(1, factorial(n)))


def adams(series: NovikovSeries, k: int) -> NovikovSeries:
    """Adams operation: Q^d -> Q^{kd}, and q -> q^k on symbolic coefficients.

    Degrees whose image leaves the box are truncated away.  Coefficients that
    are plain rationals carry no q-dependence left to transform; callers that
    need the q-coupling build the series with symbolic q (``BinomialProduct``)
    or apply it to q-free coefficients themselves.
    """
    if k < 1:
        raise ValueError("Adams operations are indexed by k >= 1")
    out: dict[Degree, object] = {}
    for d, c in series.coeffs.items():
        kd = tuple(k * x for x in d)
        if not series.box.contains(kd):
            continue
        if isinstance(c, BinomialProduct):
            c = c.adams(k)
        out[kd] = c
    return NovikovSeries(series.box, out, series.mode)


@dataclass(frozen=True)
class BundleData:
    """A split toric bundle sum_{a} V_a with V_a = prod_i P_i^{l_ia}.

    ``parity`` selects the even bundle ("E": the series divides by the fiber
    Euler factors) or the odd one ("PiE": it multiplies by them).
    """

    exponents: tuple[tuple[int, ...], ...]  # K rows, L columns
    parity: str = "E"

    def __post_init__(self):
        if self.parity not in ("E", "PiE"):
            raise ValueError("parity must be 'E' or 'PiE'")
        object.__setattr__(
            self, "exponents", tuple(tuple(int(x) for x in row) for row in self.exponents)
        )

    @property
    def L(self) -> int:
        return len(self.exponents[0]) if self.exponents else 0

    def delta(self, d: Sequence[int]) -> tuple[int, ...]:
        """Delta_a(d) = sum_i d_i l_ia."""
        return tuple(
            sum(int(d[i]) * self.exponents[i][a] for i in range(len(self.exponents)))
            for a in range(self.L)
        )

    def fiber_values(self, p_values: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = []
        for a in range(self.L):
            v = Fraction(1)
            for i, p in enumerate(p_values):
                e = self.exponents[i][a]
                if e:
                    v *= Fraction(p) ** e
            out.append(v)
        return tuple(out)


class PointSeriesPair(NamedTuple):
    sum_form: NovikovSeries
    exp_form: NovikovSeries


def point_series(monomials: Iterable[Monomial | Sequence[int]], box: TruncationBox,
                 ctx: SampleContext) -> PointSeriesPair:
    """The point-target series in two forms that must agree exactly.

    sum form:  sum over k >= 0 of Q^{sum k_j g_j} / prod_j (q; q)_{k_j},
    exp form:  exp( sum_{k>0} sum_j Q_j^k / k(1 - q^k) ),
    where the Q_j are the supplied Novikov monomials (exponent vectors g_j).
    """
    gens = [m.exps if isinstance(m, Monomial) else tuple(int(x) for x in m)
            for m in monomials]
    weights = [box.pairing(g) for g in gens]
    if any(w <= 0 for w in weights):
        raise InvalidModelError("every point-series monomial must pair positively with ample")
    q = ctx.q

    # Sum form: enumerate exponent tuples k with bounded ample pairing; the
    # value carried along is prod_j 1/(q; q)_{k_j}, the finite ratio at u = 1.
    inverse_pochhammer = ratio_table(1, (box.bound // w for w in weights), q)
    coeffs: dict[Degree, object] = {}
    zero = tuple(0 for _ in range(box.data.K))

    def enumerate_tuples(pos: int, degree: Degree, budget: Fraction, value):
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + value
        for p in range(pos, len(gens)):
            if weights[p] <= budget:
                d2 = degree
                b2 = budget
                count = 0
                while weights[p] <= b2:
                    count += 1
                    d2 = tuple(x + y for x, y in zip(d2, gens[p]))
                    b2 -= weights[p]
                    enumerate_tuples(p + 1, d2, b2, value * inverse_pochhammer[count])

    enumerate_tuples(0, zero, box.bound, Fraction(1))
    sum_form = NovikovSeries(box, coeffs)

    # Exp form: exponential of the truncated divided-power sum.
    arg: dict[Degree, object] = {}
    for g, w in zip(gens, weights):
        k = 1
        while k * w <= box.bound:
            factor = 1 - q ** k
            if factor == 0:
                raise PoleError(k, 1)
            kd = tuple(k * x for x in g)
            arg[kd] = arg.get(kd, Fraction(0)) + 1 / (Fraction(k) * factor)
            k += 1
    exp_form = series_exp(NovikovSeries(box, arg))
    return PointSeriesPair(sum_form=sum_form, exp_form=exp_form)


def bundle_factor(data: ToricData, fp: FixedPoint, bundle: BundleData,
                  d: Sequence[int], ctx: SampleContext, symbolic_q: bool = False):
    """The fiber contribution at one degree: prod_a finite_ratio(lam V_a, Delta_a)^{+-1}.

    With ``symbolic_q`` it is a ``BinomialProduct``.
    """
    pvals = fp.p_values(ctx.Lambda)
    fibers = bundle.fiber_values(pvals)
    deltas = bundle.delta(d)
    out = BinomialProduct() if symbolic_q else Fraction(1)
    for a in range(bundle.L):
        if symbolic_q:
            fr = BinomialProduct.finite_ratio(ctx.lam * fibers[a], deltas[a])
        else:
            fr = finite_ratio(ctx.lam * fibers[a], deltas[a], ctx.q)
        if bundle.parity == "E":
            out = out * fr
        else:
            if _is_zero(fr):
                raise PoleError(0, ctx.lam * fibers[a])
            out = out / fr
    return out


def component_series(data: ToricData, fp: FixedPoint, box: TruncationBox,
                     ctx: SampleContext, bundle: BundleData | None = None,
                     symbolic_q: bool = False) -> NovikovSeries:
    """The fixed-point component: coefficient of Q^d is
    prod_j finite_ratio(U_j(alpha), D_j(d), q), times the bundle factors.

    The factors for j in J(alpha) have U_j(alpha) = 1, which reproduces the
    split between 1/prod(1-q^r) and the general ratio, and forces an exact
    zero outside the dual cone of alpha (a vanishing numerator factor), so
    only the degrees inside it are tabulated.  With ``symbolic_q`` every
    coefficient is a ``BinomialProduct``.
    """
    uvals = fp.u_values(ctx.Lambda)
    if symbolic_q:
        def table(j, depths):
            return {D: BinomialProduct.finite_ratio(uvals[j], D) for D in depths}
    else:
        def table(j, depths):
            return ratio_table(uvals[j], depths, ctx.q)
    coeffs = _ratio_products(data, fp, box, table)
    if bundle is not None:
        coeffs = {d: c * bundle_factor(data, fp, bundle, d, ctx, symbolic_q)
                  for d, c in coeffs.items()}
    return NovikovSeries(box, coeffs)


def _ratio_products(data: ToricData, fp: FixedPoint, box: TruncationBox,
                    table: Callable) -> dict[Degree, object]:
    """prod_j table(j)[D_j(d)] at every box degree d in alpha's dual cone.

    ``table(j, depths)`` maps each needed depth of column j to its ratio; it
    is called once per column, with the depths of the kept degrees only.
    """
    kept = {}
    for d in box.degrees:
        pairing = degree_pairing(data, d)
        if all(pairing[j] >= 0 for j in fp.J):
            kept[d] = pairing
    tables = [table(j, {pairing[j] for pairing in kept.values()}) for j in range(data.N)]
    return {d: reduce(mul, (t[D] for t, D in zip(tables, pairing)))
            for d, pairing in kept.items()}


def assemble_series(data: ToricData, box: TruncationBox, ctx: SampleContext,
                    bundle: BundleData | None = None) -> dict[tuple[int, ...], NovikovSeries]:
    """The indexed family of all fixed-point components (the working basis)."""
    return {
        fp.J: component_series(data, fp, box, ctx, bundle)
        for fp in enumerate_fixed_points(data)
    }


# ---------------------------------------------------------------------------
# Cohomological mode.
# ---------------------------------------------------------------------------


def cohomological_series(data: ToricData, fp: FixedPoint, box: TruncationBox,
                         ctx: SampleContext) -> NovikovSeries:
    """The cohomological series restricted to alpha: coefficient of Q^d is
    prod_j prod_{r<=0}(u_j - r z) / prod_{r<=D_j(d)}(u_j - r z), u_j = u_j(p(alpha)).

    u_j(p(alpha)) = 0 on J(alpha), so the r = 0 factor is the same kill rule.
    """
    uvals = divisor_values(data, fp, ctx.Lambda)
    coeffs = _ratio_products(data, fp, box,
                             lambda j, depths: ratio_table(uvals[j], depths, z=ctx.z))
    return NovikovSeries(box, coeffs, mode="coh")
