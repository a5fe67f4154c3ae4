"""Truncated Novikov series and the q-hypergeometric series built on them.

Coefficients are exact rationals: every parameter is evaluated at a sample
context.  A component coefficient is a product over the columns of one
universal finite ratio, built by a walk over the box: a degree takes a
neighbour's coefficient times the few factors 1 - q^r u its depths cross
(``scalars.ratio_factor``), each an unnormalised pair of ints from the
integer kernel, so a step is a product of int pairs normalised once, into
one ``Fraction``, kept per direction under the depths it starts from, and a
degree costs one step lookup and one big-by-small product; degrees off the
fixed point's dual cone (tested once per fixed point) are exact zeros and
are never visited, and the walk's series keeps its own keys unchecked; a
bundle summand is one more column (inverted for PiE).  The residues of a component
at a root point q0 come from the same walk, the same steps, over the
factors' leading terms (``scalars.root_factor``); the q-exponential
is one pass of its Euler recurrence.  Everything is localized: a global series
is the family of its components, never a mixed object.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .scalars import (
    LeadingTerm,
    PoleError,
    SampleContext,
    TruncationError,
    power_product,
    ratio_factor,
    ratio_table,
    root_factor,
)
from .toric import (
    FixedPoint,
    InvalidModelError,
    ToricData,
    _lattice_degree,
    box_degrees,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    integral_degree,
    mori_cone_membership,
)

Degree = tuple[int, ...]


class _BoxFields(NamedTuple):
    data: ToricData
    ample: tuple[Fraction, ...]
    bound: Fraction
    degrees: tuple[Degree, ...]


class TruncationBox(_BoxFields):
    """Keep a degree iff it is effective and pairs with ``ample`` below ``bound``.

    What depends only on the box is computed on first use and kept:
    ``position`` maps each box degree, in any tuple spelling that hashes
    alike, to its place in ``degrees``; ``pairings`` holds the pairing rows
    D(d), from this module's ``degree_pairing``, that every component walk
    reads; and ``predecessors``, aligned with ``degrees``, lists (position of
    d - e_i, i) for each i with d - e_i in the box.  A subclass of the field
    tuple, it keeps an instance dict for them.
    """

    @cached_property
    def position(self) -> dict[Degree, int]:
        return {d: pos for pos, d in enumerate(self.degrees)}

    @cached_property
    def pairings(self) -> dict[Degree, tuple[int, ...]]:
        return {d: degree_pairing(self.data, d) for d in self.degrees}

    @cached_property
    def predecessors(self) -> list[tuple[tuple[int, int], ...]]:
        position = self.position
        below = [[d[:i] + (d[i] - 1,) + d[i + 1:] for i in range(len(d))] for d in self.degrees]
        return [tuple((position[e], i) for i, e in enumerate(es) if e in position) for es in below]

    def pairing(self, d: Sequence[int]) -> Fraction:
        return sum(a * x for a, x in zip(self.ample, d))

    def contains(self, d: Sequence[int]) -> bool:
        return tuple(d) in self.position

    def beyond(self, d: Sequence[int]) -> bool:
        """Whether the integral degree d is effective and pairs above the bound."""
        return self.pairing(d) > self.bound and mori_cone_membership(self.data, d)


def truncation_box(data: ToricData, bound, ample: Sequence | None = None) -> TruncationBox:
    """Build the finite degree box; ample defaults to the chamber point omega."""
    ample_t = tuple(Fraction(a) for a in (ample if ample is not None else data.omega))
    bound = Fraction(bound)
    degrees = tuple(box_degrees(data, ample_t, bound))
    return TruncationBox(data=data, ample=ample_t, bound=bound, degrees=degrees)


class NovikovSeries:
    """A truncated formal sum over effective degrees with exact coefficients.

    ``coeffs`` maps canonical box degrees (int tuples) to the nonzero
    coefficients only, so a box degree it leaves out is an exact zero; a key
    outside the box is a ``TruncationError``.
    """

    __slots__ = ("box", "coeffs")

    def __init__(self, box: TruncationBox, coeffs: Mapping[Degree, object] | None = None):
        clean = {}
        if coeffs:
            position, degrees = box.position, box.degrees
            for d, c in coeffs.items():
                pos = position.get(tuple(d))
                if pos is None:
                    raise TruncationError(f"degree {tuple(d)} lies outside the truncation box")
                if c != 0:
                    clean[degrees[pos]] = c
        self.box = box
        self.coeffs = clean

    @classmethod
    def _from_walk(cls, box: TruncationBox, coeffs: dict[Degree, object]) -> "NovikovSeries":
        """A series over ``coeffs`` as a walk returns them: keyed by canonical
        box degrees and free of zeros, so nothing is re-checked."""
        series = object.__new__(cls)
        series.box, series.coeffs = box, coeffs
        return series

    def coefficient(self, d: Sequence[int]):
        """Exact coefficient at d; 0 outside the effective cone, error beyond the
        box or the lattice, or for a d of the wrong length."""
        if tuple(d) in self.box.position:
            return self.coeffs.get(tuple(d), Fraction(0))
        d = _lattice_degree(self.box.data, d)
        # The box holds every effective degree up to its bound.
        if self.box.beyond(d):
            raise TruncationError(
                f"coefficient at {d} is beyond the truncation bound {self.box.bound}"
            )
        return Fraction(0)

    def map_with_degree(self, fn: Callable) -> "NovikovSeries":
        return NovikovSeries(self.box, {d: fn(d, c) for d, c in self.coeffs.items()})

    def scale(self, a) -> "NovikovSeries":
        return self.map_with_degree(lambda d, c: c * a)

    def __eq__(self, other) -> bool:
        return (isinstance(other, NovikovSeries)
                and self.box == other.box
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        terms = ", ".join(f"Q^{d}: {c}" for d, c in sorted(self.coeffs.items()))
        return f"NovikovSeries({terms or '0'})"


def series_exp(s: NovikovSeries) -> NovikovSeries:
    """exp of a series with vanishing constant term, expanded to the box.

    One pass in box order by the Euler recurrence f' = s' f for the derivation
    Q^d -> w(d) Q^d, w(d) = <ample, d> (positive on every nonzero box degree):
    f_0 = 1 and f_d = (1/w(d)) sum_{e in supp s} w(e) s_e f_{d-e}.
    """
    box = s.box
    zero = tuple(0 for _ in range(box.data.K))
    if zero in s.coeffs:
        raise ValueError("series_exp needs a vanishing constant term")
    weighted = [(e, box.pairing(e) * c) for e, c in s.coeffs.items()]
    out = {zero: Fraction(1)}
    for d in box.degrees:
        if d != zero:
            total = sum(wc * out.get(tuple(x - y for x, y in zip(d, e)), 0)
                        for e, wc in weighted)
            out[d] = total / box.pairing(d)
    return NovikovSeries(box, out)


def adams(series: NovikovSeries, k: int) -> NovikovSeries:
    """Adams operation on degrees: Q^d -> Q^{kd}, coefficients unchanged.

    Degrees whose image leaves the box are truncated away.  Coefficients are
    rationals with q already evaluated, so the q -> q^k half of the operation
    is the caller's: apply it to q-free coefficients, or sample at q^k.
    """
    if k < 1:
        raise ValueError("Adams operations are indexed by k >= 1")
    out: dict[Degree, object] = {}
    for d, c in series.coeffs.items():
        kd = tuple(k * x for x in d)
        if series.box.contains(kd):
            out[kd] = c
    return NovikovSeries(series.box, out)


class _BundleFields(NamedTuple):
    exponents: tuple[tuple[int, ...], ...]  # K rows, L columns
    parity: str = "E"


class BundleData(_BundleFields):
    """A split toric bundle sum_{a} V_a with V_a = prod_i P_i^{l_ia}.

    ``parity`` selects the even bundle ("E": the series divides by the fiber
    Euler factors) or the odd one ("PiE": it multiplies by them).  The
    constructor makes the exponents int rows; ``_replace`` and ``_make`` skip
    it, so they must start from normalised fields.
    """

    def __new__(cls, exponents, parity="E"):
        if parity not in ("E", "PiE"):
            raise ValueError("parity must be 'E' or 'PiE'")
        rows = tuple(tuple(int(x) for x in row) for row in exponents)
        if any(len(r) != len(rows[0]) for r in rows):
            raise InvalidModelError("bundle rows have unequal lengths")
        return super().__new__(cls, rows, parity)

    @property
    def L(self) -> int:
        return len(self.exponents[0]) if self.exponents else 0

    def delta(self, d: Sequence[int]) -> tuple[int, ...]:
        """Delta_a(d) = sum_i d_i l_ia; a non-integral d is a ValueError
        (``integral_degree``), never truncated, as is a d of the wrong length."""
        if len(d) != len(self.exponents):
            raise InvalidModelError(f"degree must have {len(self.exponents)} coordinates")
        d = integral_degree(d)
        return tuple(sum(x * row[a] for x, row in zip(d, self.exponents))
                     for a in range(self.L))

    def fiber_values(self, p_values: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """V_a(alpha) = prod_i P_i(alpha)^{l_ia}."""
        return tuple(power_product(p_values, column) for column in zip(*self.exponents))


class PointSeriesPair(NamedTuple):
    sum_form: NovikovSeries
    exp_form: NovikovSeries


def point_sum_form(monomials: Iterable[Sequence[int]], box: TruncationBox,
                   ctx: SampleContext) -> NovikovSeries:
    """The point-target series as a plain sum over k >= 0 of
    Q^{sum k_j g_j} / prod_j (q; q)_{k_j}, the g_j the monomials: exponent
    tuples over Q_1..Q_K, each read by ``integral_degree``.
    """
    gens = [integral_degree(m) for m in monomials]
    weights = [box.pairing(g) for g in gens]
    if any(w <= 0 for w in weights):
        raise InvalidModelError("every point-series monomial must pair positively with ample")
    # Enumerate exponent tuples k with bounded ample pairing; the value
    # carried along is prod_j 1/(q; q)_{k_j}, the finite ratio at u = 1.
    inverse_pochhammer = ratio_table(1, (box.bound // w for w in weights), ctx.q)
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
    return NovikovSeries(box, coeffs)


def point_series(monomials: Iterable[Sequence[int]], box: TruncationBox,
                 ctx: SampleContext) -> PointSeriesPair:
    """The point-target series in two forms that must agree exactly.

    The monomials Q_j are exponent tuples over Q_1..Q_K, for a fixed point its
    ``q_monomials``; a non-integral entry is a ValueError (``integral_degree``).

    sum form:  ``point_sum_form``,
    exp form:  exp( sum_{k>0} sum_j Q_j^k / k(1 - q^k) ), by ``series_exp``.
    """
    gens = [integral_degree(m) for m in monomials]
    sum_form = point_sum_form(gens, box, ctx)
    q = ctx.q
    # The sum form's ratio table covered every k below, so 1 - q^k != 0 there.
    arg: dict[Degree, object] = {}
    for g in gens:
        w = box.pairing(g)
        k = 1
        while k * w <= box.bound:
            kd = tuple(k * x for x in g)
            arg[kd] = arg.get(kd, Fraction(0)) + 1 / (Fraction(k) * (1 - q ** k))
            k += 1
    exp_form = series_exp(NovikovSeries(box, arg))
    return PointSeriesPair(sum_form=sum_form, exp_form=exp_form)


def component_series(data: ToricData, fp: FixedPoint, box: TruncationBox,
                     ctx: SampleContext, bundle: BundleData | None = None) -> NovikovSeries:
    """The fixed-point component: coefficient of Q^d is prod_j of the
    universal finite ratio of U_j(alpha) at depth D_j(d) (``ratio_factor``),
    times the bundle factors, the ratio of lam V_a(alpha) at depth
    Delta_a(d), to the power +-1 (+ for E, - for PiE).

    The factors for j in J(alpha) have U_j(alpha) = 1, which reproduces the
    split between 1/prod(1-q^r) and the general ratio, and forces an exact
    zero outside the dual cone of alpha (a vanishing numerator factor), so
    only the degrees inside it are visited.  Each bundle summand is one more
    column of the walk (``_FibreColumn``).
    """
    factors = [_order_zero(ratio_factor(u, ctx.q)) for u in fp.u_values(ctx.Lambda)]
    fibres = None
    if bundle is not None:
        if len(bundle.exponents) != data.K:
            raise InvalidModelError(f"bundle has {len(bundle.exponents)} rows, K = {data.K}")
        fibres = bundle, [_FibreColumn(ctx.lam * v, ctx.q, bundle.parity == "PiE")
                          for v in bundle.fiber_values(fp.p_values(ctx.Lambda))]
    return NovikovSeries._from_walk(box, _ratio_products(data, fp, box, factors, _fraction,
                                                         fibres))


def _order_zero(factor):
    """A kernel's pairs (num, den) as the walk's factors (num, den, 0)."""
    return lambda r: (*factor(r), 0)


def _fraction(num, den, order):
    """A numeric walk's step, normalised once; its order is always 0."""
    return Fraction(num, den)


class _FibreColumn(dict):
    """A bundle summand's factors 1 - q^r u as the walk's triples, each computed as
    the walk first crosses it; for PiE their reciprocals, and one vanishing
    (r <= 0) is ``PoleError(0, u)``."""

    def __init__(self, u_value, q, invert: bool):
        super().__init__()
        self.u_value, self.factor, self.invert = u_value, ratio_factor(u_value, q), invert

    def __missing__(self, r):
        num, den = self.factor(r)
        if self.invert and not num:
            raise PoleError(0, self.u_value)
        self[r] = (den, num, 0) if self.invert else (num, den, 0)
        return self[r]


def component_residues(data: ToricData, fp: FixedPoint, box: TruncationBox,
                       u: Sequence[Fraction], q0) -> dict[Degree, Fraction]:
    """Residue of each component coefficient's f(q) dq/q at q = q0, over alpha's dual cone.

    Every other parameter enters through alpha's U values ``u``; a degree left
    out has an exact zero coefficient (off the dual cone, or a vanishing
    factor inside it).  A pole of order 2 or more raises ``DoublePoleError``.
    """
    factors = [root_factor(x, q0) for x in u]
    terms = _ratio_products(data, fp, box, factors, _leading_term)
    return {d: term.residue() for d, term in terms.items()}


def _leading_term(num, den, order):
    """A leading-term walk's step, its lead normalised once."""
    return LeadingTerm(order, Fraction(num, den))


def _ratio_products(data: ToricData, fp: FixedPoint, box: TruncationBox,
                    factors: Sequence[Callable], finish: Callable,
                    fibres=None) -> dict[Degree, object]:
    """prod_j prod_{r<=0} f_j(r) / prod_{r<=D_j(d)} f_j(r), f_j = ``factors[j]``, at
    every box degree d in alpha's dual cone (read from ``box.pairings``), by a walk in
    box order; an exact zero is left out.

    Each f_j(r) is a triple (num, den, order) of ints, num/den eps^order
    (order 0 away from a root point).  A degree with a visited nonzero
    neighbour d - e_i (``box.predecessors``) takes its value times one step:
    divided by f_j(r) for each r a depth D_j rises past and multiplied by
    f_j(r) for each r it falls past.  Only the columns with m_ij != 0 move,
    and the step depends only on i and their start depths, so each distinct
    step is built once per walk: one product of int triples, normalised once
    by ``finish(num, den, order)``, kept per direction i under the start
    depths of its columns, and one big-by-small product per degree.  A step
    with numerator 0 (it crosses a vanishing f_j(r), r <= 0, which off
    J(alpha) is a sampling coincidence) makes its degree an exact zero, which
    no later degree starts from; such a step is kept as None, so it is
    rebuilt where it recurs.  Without a nonzero neighbour a degree starts
    every column at depth 0.  All factors are computed first,
    column by column, over the range of depths of the dual cone's degrees, so
    the first sampling pole raises before any product.  ``fibres``, a pair
    (bundle, columns), adds column a at depth Delta(d)[a], moved by direction
    i when l_ia != 0, its factors computed as first crossed: a degree crosses
    every r between its start depth and its own, so a fibre pole raises at
    the first degree in box order, then fibre order, that reaches it.
    """
    J = fp.J
    depths = [pairing if min(map(pairing.__getitem__, J)) >= 0 else None
              for pairing in box.pairings.values()]
    inside = [pairing for pairing in depths if pairing is not None]
    crossed = [{r: factor(r) for r in range(min(0, *column) + 1, max(0, *column) + 1)}
               for factor, column in zip(factors, zip(*inside))]
    moved = [[j for j, mij in enumerate(row) if mij] for row in data.m]
    if fibres is not None:
        bundle, columns = fibres
        depths = [None if pairing is None else pairing + bundle.delta(d)
                  for d, pairing in zip(box.degrees, depths)]
        crossed += columns
        moved = [cols + [data.N + a for a, l in enumerate(row) if l]
                 for cols, row in zip(moved, bundle.exponents)]
    keyed = [itemgetter(*cols) for cols in moved]
    steps = [{} for _ in moved]
    everything = range(len(crossed))
    out = [None] * len(depths)
    for pos, (pairing, predecessors) in enumerate(zip(depths, box.predecessors)):
        if pairing is None:
            continue
        for prev, i in predecessors:
            value = out[prev]
            if value is not None:
                start = depths[prev]
                key = keyed[i](start)
                step = steps[i].get(key)
                if step is None:
                    step = steps[i][key] = _finish(finish, crossed, moved[i], start, pairing)
                if step is not None:
                    out[pos] = value * step
                break
        else:
            out[pos] = _finish(finish, crossed, everything, (0,) * len(crossed), pairing)
    return {d: value for d, value in zip(box.degrees, out) if value is not None}


def _finish(finish, crossed, columns, start, end):
    """``finish`` of the ``_step`` triple, or None for its exact zero."""
    num, den, order = _step(crossed, columns, start, end)
    return finish(num, den, order) if num else None


def _step(crossed, columns, start, end) -> tuple[int, int, int]:
    """The product, as one unnormalised triple (num, den, order), of the factors of
    ``crossed`` that the depths of ``columns`` cross from start to end."""
    num = den = 1
    order = 0
    for c in columns:
        f, a, b = crossed[c], start[c], end[c]
        for r in range(a + 1, b + 1):
            n, d, k = f[r]
            num, den, order = num * d, den * n, order - k
        for r in range(b + 1, a + 1):
            n, d, k = f[r]
            num, den, order = num * n, den * d, order + k
    return num, den, order


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
    factors = [_order_zero(ratio_factor(u, z=ctx.z))
               for u in divisor_values(data, fp, ctx.Lambda)]
    return NovikovSeries._from_walk(box, _ratio_products(data, fp, box, factors, _fraction))


def assemble_cohomological_series(data: ToricData, box: TruncationBox,
                                  ctx: SampleContext) -> dict[tuple[int, ...], NovikovSeries]:
    """The indexed family of all cohomological components."""
    return {fp.J: cohomological_series(data, fp, box, ctx) for fp in enumerate_fixed_points(data)}
