"""Toric quotient data: fixed points, degree pairings, Mori cone, map spaces.

A model is a K x N integer matrix whose columns express the divisor classes
u_j in the basis p_1..p_K of the quotient torus, together with a chamber point
omega.  Torus-fixed points are the K-subsets J whose column cone contains
omega strictly; smoothness means every such minor has determinant +-1, and all
downstream formulas assume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, floor, gcd, lcm
from typing import Sequence

from .linalg import adjugate, determinant
from .monomials import Monomial
from .scalars import common_denominator


class InvalidModelError(ValueError):
    """The quotient data violates a structural requirement."""


class NonRegularChamberError(InvalidModelError):
    """omega sits on a cone wall (some coefficient vanishes): not a regular value."""


class NonSmoothModelError(InvalidModelError):
    """Some fixed-point minor has |det| >= 2; the manifold formulas do not apply."""

    def __init__(self, subset: tuple[int, ...], det: int):
        super().__init__(
            f"non-smooth minor at columns {tuple(j + 1 for j in subset)}: det = {det}"
        )
        self.subset = subset
        self.det = det


@dataclass(frozen=True)
class ToricData:
    """The single source of truth for a model: the matrix, chamber point, labels."""

    m: tuple[tuple[int, ...], ...]
    omega: tuple[Fraction, ...]
    lambda_names: tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.m)
        object.__setattr__(self, "m", rows)
        object.__setattr__(self, "omega", tuple(Fraction(x) for x in self.omega))
        k = len(rows)
        if k < 1:
            raise InvalidModelError("need at least one matrix row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InvalidModelError("matrix rows have unequal lengths")
        if n < k:
            raise InvalidModelError(f"need N >= K, got K={k}, N={n}")
        if len(self.omega) != k:
            raise InvalidModelError(f"omega must have {k} coordinates")
        if not self.lambda_names:
            object.__setattr__(
                self, "lambda_names", tuple(f"L{j+1}" for j in range(n))
            )
        elif len(self.lambda_names) != n:
            raise InvalidModelError("need one parameter label per column")

    @property
    def K(self) -> int:
        return len(self.m)

    @property
    def N(self) -> int:
        return len(self.m[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.m[i][j] for i in range(self.K))

    def minor(self, subset: Sequence[int]) -> list[list[int]]:
        return [[self.m[i][j] for j in subset] for i in range(self.K)]


@dataclass(frozen=True)
class FixedPoint:
    """A fixed point: its index subset and the monomial data localized there.

    ``p_monomials[i]`` is P_i as a Laurent monomial in the equivariant
    parameters, ``u_monomials[j]`` the value of U_j, and ``q_monomials``
    (aligned with J) re-encode the degree lattice so the exponent identity
    Q^d = prod_{j in J} Q_j^{D_j(d)} holds.
    """

    J: tuple[int, ...]
    det: int
    p_monomials: tuple[Monomial, ...]
    u_monomials: tuple[Monomial, ...]
    q_monomials: tuple[Monomial, ...]

    @property
    def degree_generators(self) -> tuple[tuple[int, ...], ...]:
        """Generators of the dual cone Z_+^K at this fixed point."""
        return tuple(mon.exps for mon in self.q_monomials)

    def p_values(self, lambdas: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(mon.evaluate(lambdas) for mon in self.p_monomials)

    def u_values(self, lambdas: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(mon.evaluate(lambdas) for mon in self.u_monomials)


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
        if any(c == 0 for c in scaled):
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
        p_monomials.append(Monomial(exps))
    u_monomials = []
    for j in range(n):
        exps = [0] * n
        for i in range(k):
            mij = data.m[i][j]
            if mij:
                for jj, e in enumerate(p_monomials[i].exps):
                    exps[jj] += mij * e
        exps[j] -= 1
        u_monomials.append(Monomial(exps))
    # Q_j = prod_i Q_i^{inv[j][i]} re-encodes degrees: D_{j'}(col of inv) = delta.
    q_monomials = [
        Monomial([inv[pos][i] for i in range(k)]) for pos in range(len(subset))
    ]
    return FixedPoint(
        J=tuple(subset),
        det=det,
        p_monomials=tuple(p_monomials),
        u_monomials=tuple(u_monomials),
        q_monomials=tuple(q_monomials),
    )


def fixed_point(data: ToricData, subset: Sequence[int]) -> FixedPoint:
    want = tuple(sorted(subset))
    for fp in enumerate_fixed_points(data):
        if fp.J == want:
            return fp
    raise KeyError(f"{want} is not a fixed point of this model")


def degree_pairing(data: ToricData, d: Sequence[int]) -> tuple[int, ...]:
    """D_j(d) = sum_i d_i m_ij: intersection indices with the toric divisors."""
    if len(d) != data.K:
        raise InvalidModelError(f"degree must have {data.K} coordinates")
    return tuple(
        sum(int(d[i]) * data.m[i][j] for i in range(data.K)) for j in range(data.N)
    )


@lru_cache(maxsize=None)
def _mori_generators_raw(data: ToricData) -> tuple[tuple[int, ...], ...]:
    gens: list[tuple[int, ...]] = []
    for fp in enumerate_fixed_points(data):
        for g in fp.degree_generators:
            if g not in gens:
                gens.append(g)
    return tuple(gens)


@lru_cache(maxsize=None)
def _mori_facets(data: ToricData) -> tuple[tuple[int, ...], ...]:
    """Primitive inner facet normals of the effective-curve cone.

    The cone is spanned by the dual cones of the fixed points; each facet
    holds K - 1 independent generators, so every (K - 1)-subset is tried: its
    cofactor normal n_i = det(e_i, g_1, ..., g_{K-1}) is kept when every
    generator lies on one side, oriented so that they pair >= 0.
    """
    gens = _mori_generators_raw(data)
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
    return sum(x * y for x, y in zip(a, b))


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

    A generator is extreme when the facet normals it lies on have rank K - 1.
    """
    facets = _mori_facets(data)
    rays: list[tuple[int, ...]] = []
    for gen in _mori_generators_raw(data):
        g = gcd(*gen)
        ray = tuple(x // g for x in gen)
        if ray in rays:
            continue
        tight = [n for n in facets if _dot(n, ray) == 0]
        if any(determinant([*rows, ray]) != 0
               for rows in combinations(tight, data.K - 1)):
            rays.append(ray)
    return rays


@dataclass(frozen=True)
class ExtendedModel:
    """Quotient data for a space of degree-d spheres.

    Columns repeat each u_j once per copy in ``copies`` (pairs (j, r) with the
    shifted parameter label); ``obstructions`` lists the (j, r) factors that a
    negative intersection index moves into the numerator of the integration
    formula, where they represent the obstruction-bundle Euler class.
    """

    data: ToricData
    degree: tuple[int, ...]
    copies: tuple[tuple[int, int], ...]
    obstructions: tuple[tuple[int, int], ...]


def map_space_model(data: ToricData, d: Sequence[int]) -> ExtendedModel:
    """Extend the model by D_j(d) shifted copies of each column.

    Copy count per column is max(D_j(d), 0) + 1 with labels shifted by r*z;
    for D_j(d) < 0 the missing factors are recorded as obstruction metadata.
    """
    pairing = degree_pairing(data, d)
    columns: list[tuple[int, ...]] = []
    labels: list[str] = []
    copies: list[tuple[int, int]] = []
    obstructions: list[tuple[int, int]] = []
    for j in range(data.N):
        base = data.lambda_names[j]
        for r in range(max(pairing[j], 0) + 1):
            columns.append(data.column(j))
            if r == 0:
                labels.append(base)
            else:
                labels.append(f"{base}+z" if r == 1 else f"{base}+{r}z")
            copies.append((j, r))
        if pairing[j] < 0:
            for r in range(1, -pairing[j] + 1):
                obstructions.append((j, r))
    extended = ToricData(
        m=tuple(tuple(col[i] for col in columns) for i in range(data.K)),
        omega=data.omega,
        lambda_names=tuple(labels),
        name=f"{data.name}[d={tuple(int(x) for x in d)}]" if data.name else "",
    )
    return ExtendedModel(
        data=extended,
        degree=tuple(int(x) for x in d),
        copies=tuple(copies),
        obstructions=tuple(obstructions),
    )


def equivariant_p_values(
    data: ToricData, fp: FixedPoint, lambdas: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """The solution of sum_i p_i m_ij = lambda_j, j in J: p_i = sum_j e_ij lambda_j
    for P_i = prod_j Lambda_j^{e_ij}, the weights the unimodular inverse gave P_i."""
    return _weighted_sums(fp.p_monomials, lambdas)


def divisor_values(
    data: ToricData, fp: FixedPoint, lambdas: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """u_j(p(alpha)) = sum_i p_i m_ij - lambda_j, read off U_j's exponents; zero on J(alpha)."""
    return _weighted_sums(fp.u_monomials, lambdas)


def weighted_numerators(monomials: Sequence[Monomial], nums: Sequence[int]) -> list[int]:
    """Each monomial's exponent vector as integer weights on the ints ``nums``."""
    return [_dot(mon.exps, nums) for mon in monomials]


def _weighted_sums(monomials: Sequence[Monomial], values: Sequence) -> tuple[Fraction, ...]:
    """Each monomial's exponent vector as integer weights on ``values``: the
    weighted sum of their numerators over the common denominator D
    (``common_denominator``), an int, is normalised once, into Fraction(total, D)."""
    den, nums = common_denominator(values)
    return tuple(Fraction(total, den) for total in weighted_numerators(monomials, nums))


def box_degrees(
    data: ToricData, ample: Sequence[Fraction], bound
) -> list[tuple[int, ...]]:
    """All effective degrees with <ample, d> <= bound, enumerated exactly.

    An effective d is sum_g c_g g with c_g >= 0 over the Mori generators, so
    d_i lies between bound * min(0, g_i / <ample, g>) and bound * max(0, ...).
    Pairings are scaled to integers by the common denominator of ``ample``.
    """
    gens = _mori_generators_raw(data)
    ample = [Fraction(a) for a in ample]
    scale = lcm(*(a.denominator for a in ample))
    weights = [int(a * scale) for a in ample]
    pairs = [_dot(weights, g) for g in gens]
    if any(pair <= 0 for pair in pairs):
        raise InvalidModelError("ample class must pair positively with every Mori generator")
    top = floor(Fraction(bound) * scale)
    if top < 0:
        return []
    ranges = []
    for i in range(data.K):
        ends = [Fraction(top * g[i], pair) for g, pair in zip(gens, pairs)]
        ranges.append(range(ceil(min(0, *ends)), floor(max(0, *ends)) + 1))
    facets = _mori_facets(data)
    out = [
        d for d in product(*ranges)
        if _dot(weights, d) <= top and all(_dot(n, d) >= 0 for n in facets)
    ]
    out.sort(key=lambda d: (_dot(weights, d), d))
    return out
