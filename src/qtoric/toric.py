"""Toric quotient data: fixed points, degree pairings, Mori cone, box degrees.

A model is a K x N integer matrix whose columns express the divisor classes
u_j in the basis p_1..p_K of the quotient torus, together with a chamber point
omega.  Torus-fixed points are the K-subsets J whose column cone contains
omega strictly; smoothness means every such minor has determinant +-1, and all
downstream formulas assume it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .linalg import adjugate, determinant
from .scalars import common_denominator, power_product


class InvalidModelError(ValueError):
    """The quotient data violates a structural requirement."""


class NonRegularChamberError(InvalidModelError):
    """omega sits on a cone wall (a coefficient vanishes, none is negative):
    not a regular value."""


class NonSmoothModelError(InvalidModelError):
    """Some fixed-point minor has |det| >= 2; the manifold formulas do not apply."""

    def __init__(self, subset: tuple[int, ...], det: int):
        super().__init__(
            f"non-smooth minor at columns {tuple(j + 1 for j in subset)}: det = {det}"
        )
        self.subset = subset
        self.det = det


class _ToricFields(NamedTuple):
    m: tuple[tuple[int, ...], ...]
    omega: tuple[Fraction, ...]
    lambda_names: tuple[str, ...] = ()
    name: str = ""


class ToricData(_ToricFields):
    """The single source of truth for a model: the matrix, chamber point, labels.

    The constructor normalises the fields (int rows, ``Fraction`` omega,
    labels ``L1..LN`` by default) and validates their shapes; ``_replace``
    and ``_make`` skip it, so they must start from normalised fields.  A
    subclass of the field tuple, it keeps an instance dict for ``columns``.
    """

    def __new__(cls, m, omega, lambda_names=(), name=""):
        rows = tuple(tuple(int(x) for x in row) for row in m)
        omega = tuple(Fraction(x) for x in omega)
        k = len(rows)
        if k < 1:
            raise InvalidModelError("need at least one matrix row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InvalidModelError("matrix rows have unequal lengths")
        if n < k:
            raise InvalidModelError(f"need N >= K, got K={k}, N={n}")
        if len(omega) != k:
            raise InvalidModelError(f"omega must have {k} coordinates")
        lambda_names = tuple(lambda_names) or tuple(f"L{j+1}" for j in range(n))
        if len(lambda_names) != n:
            raise InvalidModelError("need one parameter label per column")
        return super().__new__(cls, rows, omega, lambda_names, name)

    @property
    def K(self) -> int:
        return len(self.m)

    @property
    def N(self) -> int:
        return len(self.m[0])

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The matrix columns, the divisor classes u_j in the basis p_1..p_K."""
        return tuple(zip(*self.m))

    def minor(self, subset: Sequence[int]) -> list[list[int]]:
        return [[self.m[i][j] for j in subset] for i in range(self.K)]


class FixedPoint(NamedTuple):
    """A fixed point: its index subset and the monomial data localized there.

    A Laurent monomial in the equivariant parameters is its exponent tuple:
    ``p_monomials[i]`` is P_i, ``u_monomials[j]`` the value of U_j, and
    ``q_monomials`` (aligned with J) are exponent tuples over Q_1..Q_K that
    re-encode the degree lattice so the exponent identity
    Q^d = prod_{j in J} Q_j^{D_j(d)} holds; they generate the dual cone
    Z_+^K at this fixed point.
    """

    J: tuple[int, ...]
    det: int
    p_monomials: tuple[tuple[int, ...], ...]
    u_monomials: tuple[tuple[int, ...], ...]
    q_monomials: tuple[tuple[int, ...], ...]

    def p_values(self, lambdas: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return _evaluate_all(self.p_monomials, lambdas)

    def u_values(self, lambdas: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return _evaluate_all(self.u_monomials, lambdas)


def _evaluate_all(monomials: Sequence[Sequence[int]],
                  lambdas: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Each monomial's value at caller-supplied lambdas, one per parameter."""
    if len(lambdas) < len(monomials[0]):
        raise ValueError("not enough values for this monomial")
    return tuple(power_product(lambdas, exps) for exps in monomials)


def format_monomial(exps: Sequence[int], names: Sequence[str]) -> str:
    """The Laurent monomial prod_i names[i]^exps[i] as text, ``1`` when trivial."""
    parts = [name if e == 1 else f"{name}^{e}" for e, name in zip(exps, names) if e]
    return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
def enumerate_fixed_points(data: ToricData) -> tuple[FixedPoint, ...]:
    """All K-subsets whose column cone strictly contains omega.

    Raises on boundary omega (non-regular) and on any non-unimodular fixed
    minor (non-smooth quotient); both are hard errors since every formula in
    the library assumes the smooth manifold case.  Each minor is eliminated
    once: its chamber coefficients minor^-1 omega = adj omega / det have the
    signs of ``scaled`` = det * (adj omega), read on omega times the lcm of
    its denominators, an int vector; and det * adj is the inverse when
    |det| = 1.
    """
    scale = lcm(*(w.denominator for w in data.omega))
    omega = [w.numerator * (scale // w.denominator) for w in data.omega]
    out = []
    for subset in combinations(range(data.N), data.K):
        det, adj = adjugate(data.minor(subset))
        if adj is None:
            continue
        scaled = [det * _dot(row, omega) for row in adj]
        if min(scaled) == 0:
            raise NonRegularChamberError(
                f"omega lies on the wall of cone {tuple(j + 1 for j in subset)}"
            )
        if all(c > 0 for c in scaled):
            if det not in (1, -1):
                raise NonSmoothModelError(subset, det)
            inv = [[det * x for x in row] for row in adj]
            out.append(_build_fixed_point(data, subset, det, inv))
    if not out:
        raise NonRegularChamberError("omega lies outside the image of the open orthant")
    return tuple(out)


def _build_fixed_point(data: ToricData, subset: tuple[int, ...], det: int,
                       inv: list[list[int]]) -> FixedPoint:
    """The monomial data at a fixed point from ``inv``, its minor's integer inverse."""
    k, n = data.K, data.N
    # P_i = prod_{j' in J} Lambda_{j'}^{inv[j'][i]}: solves prod_i P_i^{m_ij} = Lambda_j, j in J.
    p_monomials = []
    for i in range(k):
        exps = [0] * n
        for pos, j in enumerate(subset):
            exps[j] = inv[pos][i]
        p_monomials.append(tuple(exps))
    u_monomials = []
    for j in range(n):
        exps = [0] * n
        for i in range(k):
            mij = data.m[i][j]
            if mij:
                for jj, e in enumerate(p_monomials[i]):
                    exps[jj] += mij * e
        exps[j] -= 1
        u_monomials.append(tuple(exps))
    # Q_j = prod_i Q_i^{inv[j][i]} re-encodes degrees: D_{j'}(col of inv) = delta.
    q_monomials = [tuple(row) for row in inv]
    return FixedPoint(
        J=tuple(subset),
        det=det,
        p_monomials=tuple(p_monomials),
        u_monomials=tuple(u_monomials),
        q_monomials=tuple(q_monomials),
    )


def integral_degree(d: Sequence) -> tuple[int, ...]:
    """The degree d as a tuple of ints; a non-integral entry is a ValueError."""
    ints = tuple(map(int, d))
    if ints != tuple(d):
        raise ValueError(f"degree ({', '.join(map(str, d))}) is not integral")
    return ints


def degree_pairing(data: ToricData, d: Sequence[int]) -> tuple[int, ...]:
    """D_j(d) = sum_i d_i m_ij: intersection indices with the toric divisors.

    A non-integral degree is a ValueError (``integral_degree``), never truncated.
    """
    if len(d) != data.K:
        raise InvalidModelError(f"degree must have {data.K} coordinates")
    d = integral_degree(d)
    return tuple(_dot(column, d) for column in data.columns)


@lru_cache(maxsize=None)
def _curve_classes(data: ToricData) -> tuple[tuple[int, ...], ...]:
    """The distinct classes of the torus-invariant curves, which span the
    effective-curve cone (Reid 1983), each at its first occurrence.

    The wall J(beta) - j that beta shares with another fixed point is the
    curve between them, and beta's dual-cone generator at j is its class
    (``recursion.orbit_data``'s d_ab), primitive as a row of a unimodular
    inverse.
    """
    fixed = enumerate_fixed_points(data)
    walls = Counter(fp.J[:i] + fp.J[i + 1:] for fp in fixed for i in range(data.K))
    classes: dict[tuple[int, ...], None] = {}
    for fp in fixed:
        for i, g in enumerate(fp.q_monomials):
            if walls[fp.J[:i] + fp.J[i + 1:]] > 1:
                classes[g] = None
    return tuple(classes)


@lru_cache(maxsize=None)
def _mori_facets(data: ToricData) -> tuple[tuple[int, ...], ...]:
    """Primitive inner facet normals of the effective-curve cone.

    The cone is spanned by the torus-invariant curve classes; each facet
    holds K - 1 independent ones, so every (K - 1)-subset is tried: its
    cofactor normal n_i = det(e_i, g_1, ..., g_{K-1}) is kept when every
    class lies on one side, oriented so that they pair >= 0.
    """
    gens = _curve_classes(data)
    k = data.K
    facets: list[tuple[int, ...]] = []
    spans = False
    for tight in combinations(gens, k - 1):
        normal = [determinant([[int(c == i) for c in range(k)], *tight]) for i in range(k)]
        pairings = [_dot(normal, g) for g in gens]
        if not any(pairings):
            continue
        spans = True
        if min(pairings) < 0 < max(pairings):
            continue
        sign, g = (1 if max(pairings) > 0 else -1), gcd(*normal)
        normal = tuple(sign * x // g for x in normal)
        if normal not in facets:
            facets.append(normal)
    if not spans:
        raise InvalidModelError("the Mori cone generators do not span the degree lattice")
    return tuple(facets)


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def mori_cone_membership(
    data: ToricData, d: Sequence[int]
) -> tuple[bool, tuple[bool, ...]]:
    """Overall membership in the effective-curve cone, plus per-fixed-point flags.

    The flag at alpha is D_j(d) >= 0 for all j in J(alpha).  The overall flag
    is <n, d> >= 0 for every facet normal n of the cone: exact, and true also
    on sums of generators of different fixed points that no flag accepts.
    """
    pairing = degree_pairing(data, d)
    flags = tuple(
        all(pairing[j] >= 0 for j in fp.J) for fp in enumerate_fixed_points(data)
    )
    return all(_dot(n, d) >= 0 for n in _mori_facets(data)), flags


def mori_generators(data: ToricData) -> list[tuple[int, ...]]:
    """Extreme rays of the effective-curve cone, as primitive vectors.

    They are the curve classes whose tight facet normals have rank K - 1.
    """
    facets = _mori_facets(data)
    rays: list[tuple[int, ...]] = []
    for ray in _curve_classes(data):
        tight = [n for n in facets if _dot(n, ray) == 0]
        if any(determinant([*rows, ray]) != 0
               for rows in combinations(tight, data.K - 1)):
            rays.append(ray)
    return rays


def divisor_values(
    data: ToricData, fp: FixedPoint, lambdas: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """u_j(p(alpha)) = sum_i p_i m_ij - lambda_j, read off U_j's exponents; zero on J(alpha)."""
    return _weighted_sums(fp.u_monomials, lambdas)


def weighted_numerators(monomials: Sequence[Sequence[int]], nums: Sequence[int]) -> list[int]:
    """Each monomial's exponent vector as integer weights on the ints ``nums``."""
    return [_dot(exps, nums) for exps in monomials]


def _weighted_sums(monomials: Sequence[Sequence[int]], values: Sequence) -> tuple[Fraction, ...]:
    """Each monomial's exponent vector as integer weights on ``values``: the
    weighted sum of their numerators over the common denominator D
    (``common_denominator``), an int, is normalised once, into Fraction(total, D)."""
    den, nums = common_denominator(values)
    return tuple(Fraction(total, den) for total in weighted_numerators(monomials, nums))


def box_degrees(
    data: ToricData, ample: Sequence[Fraction], bound
) -> list[tuple[int, ...]]:
    """All effective degrees with <ample, d> <= bound, enumerated exactly.

    An effective d is sum_g c_g g with c_g >= 0 over the curve classes, so
    d_i lies between bound * min(0, g_i / <ample, g>) and bound * max(0, ...).
    Pairings are scaled to integers by the common denominator of ``ample``,
    and the bound to the integer ``top`` below it, so each coordinate's range
    runs between the integer ceil and floor of top * g_i / <ample, g>.
    """
    gens = _curve_classes(data)
    ample = [Fraction(a) for a in ample]
    scale = lcm(*(a.denominator for a in ample))
    weights = [a.numerator * (scale // a.denominator) for a in ample]
    pairs = [_dot(weights, g) for g in gens]
    if any(pair <= 0 for pair in pairs):
        raise InvalidModelError("ample class must pair positively with every Mori generator")
    bound = Fraction(bound)
    top = bound.numerator * scale // bound.denominator
    if top < 0:
        return []
    ranges = []
    for i in range(data.K):
        ends = [top * g[i] for g in gens]
        low = min(0, *(-(-end // pair) for end, pair in zip(ends, pairs)))
        high = max(0, *(end // pair for end, pair in zip(ends, pairs)))
        ranges.append(range(low, high + 1))
    # A facet whose normal pairs >= 0 with every corner of the rectangle holds
    # on all of it and is not tested.
    facets = [n for n in _mori_facets(data)
              if sum(min(x * r[0], x * r[-1]) for x, r in zip(n, ranges)) < 0]
    kept = sorted((pair, d) for d in product(*ranges)
                  if (pair := _dot(weights, d)) <= top and all(_dot(n, d) >= 0 for n in facets))
    return [d for _, d in kept]
