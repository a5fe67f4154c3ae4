"""Toric quotient data: fixed points and their graph, pairings, Mori cone, box degrees.

A model is a K x N integer matrix whose columns express the divisor classes
u_j in the basis p_1..p_K of the quotient torus, together with a chamber point
omega.  Torus-fixed points are the K-subsets J whose column cone contains
omega strictly; smoothness means every such minor has determinant +-1, and all
downstream formulas assume it.  Fixed points that share a wall (K - 1 columns)
are joined by an invariant sphere, an edge of ``fixed_point_graph``, which the
curve classes and the orbits of ``recursion`` read.  The Mori cone is built by
double description.  The truncation box, its lattice points under a bound on
an ample class, is enumerated coordinate by coordinate through the
Fourier-Motzkin projections of that polytope, with no candidate grid.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .linalg import adjugate
from .scalars import common_denominator, power_product


class InvalidModelError(ValueError):
    """The quotient data violates a structural requirement."""


class NonRegularChamberError(InvalidModelError):
    """omega sits on a cone wall (a coefficient vanishes, none is negative):
    not a regular value."""


class OrbitInvariantError(InvalidModelError):
    """The orbit data violates a structural identity; bad input data."""


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


def check_compact_quotient(data: ToricData) -> None:
    """Refuse a quotient that is not compact, or one with an empty toric divisor.

    Column j0 off J(alpha) moves alpha along the edge x_{j0} = t of the
    polytope {x >= 0 : m x = omega}, on which each x_j, j in J(alpha), falls
    at the rate <g_j, m_{.j0}> for g_j the row of alpha's inverse minor; that
    rate is U_{j0}'s exponent of Lambda_j, and its other exponents are -1 at
    j0 and 0.  So the edge is unbounded when no exponent is positive.  A
    column in every J(alpha) is a divisor that meets no fixed point.
    """
    fixed = enumerate_fixed_points(data)
    for alpha in fixed:
        for j0, exps in enumerate(alpha.u_monomials):
            if max(exps) <= 0 and j0 not in alpha.J:
                raise InvalidModelError(
                    f"column {j0 + 1} leaves fixed point {tuple(j + 1 for j in alpha.J)} "
                    "along an unbounded edge: the quotient is not compact")
    empty = set(range(data.N)).intersection(*(alpha.J for alpha in fixed))
    if empty:
        j = min(empty) + 1
        raise InvalidModelError(f"divisor D_{j} is empty: column {j} lies in every fixed point "
                                "(omega is outside the moving cone)")


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
    d = _lattice_degree(data, d)
    return tuple(_dot(column, d) for column in data.columns)


def _lattice_degree(data: ToricData, d: Sequence) -> tuple[int, ...]:
    """d as K ints; a d of the wrong length is an InvalidModelError."""
    if len(d) != data.K:
        raise InvalidModelError(f"degree must have {data.K} coordinates")
    return integral_degree(d)


@lru_cache(maxsize=None)
def fixed_point_graph(data: ToricData) -> dict:
    """The fixed-point graph: (J(alpha), j0) -> (alpha, beta, j0') for each
    invariant sphere, where alpha and beta share the wall J(alpha) - j0' = J(beta) - j0.

    The fixed points are grouped by their walls once; the entries run by alpha,
    then by the position of j0' in J(alpha).  A direction that leaves alpha
    through two walls is an OrbitInvariantError.  Callers share the table.
    """
    fixed = enumerate_fixed_points(data)
    walls: dict[tuple[int, ...], list[tuple[FixedPoint, int]]] = {}
    for fp in fixed:
        for i, j in enumerate(fp.J):
            walls.setdefault(fp.J[:i] + fp.J[i + 1:], []).append((fp, j))
    graph = {}
    for alpha in fixed:
        for i, j0p in enumerate(alpha.J):
            for beta, j0 in walls[alpha.J[:i] + alpha.J[i + 1:]]:
                if j0 == j0p:
                    continue
                if (alpha.J, j0) in graph:
                    raise OrbitInvariantError(
                        f"direction {j0 + 1} off {alpha.J} matched several fixed points")
                graph[alpha.J, j0] = (alpha, beta, j0p)
    return graph


@lru_cache(maxsize=None)
def _curve_classes(data: ToricData) -> tuple[tuple[int, ...], ...]:
    """The distinct classes of the torus-invariant curves, which span the
    effective-curve cone (Reid 1983), each at its first occurrence.

    An edge's class is alpha's dual-cone generator at j0', primitive as a row of
    a unimodular inverse; ``recursion.orbit_data`` checks that it is its d_ab.
    """
    return tuple({alpha.q_monomials[alpha.J.index(j0p)]: None
                  for alpha, _, j0p in fixed_point_graph(data).values()})


@lru_cache(maxsize=None)
def _mori_facets(data: ToricData) -> tuple[tuple[int, ...], ...]:
    """Primitive inner facet normals of the effective-curve cone.

    The extreme rays of the dual cone {y : <y, g> >= 0 on every class g}, by double
    description, each with the mask of the classes it is tight on.  K independent
    classes start it: ray i is det times row i of their adjugate.  Each class g keeps
    the rays with <r, g> >= 0 and adds <p, g> n - <n, g> p for each pair with
    <p, g> > 0 > <n, g> when no third ray is tight on every class both are tight on.
    """
    gens = _curve_classes(data)
    for basis in combinations(range(len(gens)), data.K):
        det, adj = adjugate([[gens[b][i] for b in basis] for i in range(data.K)])
        if adj is not None:
            break
    else:
        raise InvalidModelError("the Mori cone generators do not span the degree lattice")
    rays = [(_primitive([det * x for x in row]), sum(1 << c for c in basis if c != b))
            for row, b in zip(adj, basis)]
    for t, g in enumerate(gens):
        pairings = [_dot(r, g) for r, _ in rays]
        kept = [(r, m | 1 << t if s == 0 else m) for (r, m), s in zip(rays, pairings) if s >= 0]
        for (p, p_tight), p_g in zip(rays, pairings):
            for (n, n_tight), n_g in zip(rays, pairings):
                common = p_tight & n_tight
                if p_g > 0 > n_g and sum(m & common == common for _, m in rays) == 2:
                    kept.append((_primitive([p_g * x - n_g * y for x, y in zip(n, p)]),
                                 common | 1 << t))
        rays = kept
    return tuple(r for r, _ in rays)


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    return tuple(x // gcd(*vec) for x in vec)


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def mori_cone_membership(data: ToricData, d: Sequence[int]) -> bool:
    """Membership in the effective-curve cone: <n, d> >= 0 for every facet
    normal n of the cone.  Exact, and true also on sums of generators of
    different fixed points that no single fixed point's dual cone holds.
    A d of the wrong length or off the lattice is refused as by ``degree_pairing``.
    """
    d = _lattice_degree(data, d)
    return all(_dot(n, d) >= 0 for n in _mori_facets(data))


def mori_generators(data: ToricData) -> list[tuple[int, ...]]:
    """Extreme rays of the effective-curve cone, as primitive vectors.

    A class is extreme iff no other class is tight on every facet it is tight on.
    """
    facets = _mori_facets(data)
    classes = _curve_classes(data)
    tight = [sum(1 << i for i, n in enumerate(facets) if _dot(n, g) == 0) for g in classes]
    return [g for g, t in zip(classes, tight) if sum(s & t == t for s in tight) == 1]


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

    Pairings are scaled to integers by the common denominator of ``ample``, and
    the bound to the integer ``top`` below it.  The box is then the set of
    lattice points of the polytope cut out by the rows c + <a, d> >= 0: one
    per Mori facet n (c = 0, a = n) and the bound row top - <w, d> >= 0.
    Fourier-Motzkin elimination (Schrijver 1986, section 12.2) drops d_K, ...,
    d_2 in turn, each new row divided by its gcd, so system k is the exact
    projection onto d_1..d_k; d_k then runs over the integer interval that
    system k leaves for each prefix d_1..d_{k-1}.
    """
    gens = _curve_classes(data)
    ample = [Fraction(a) for a in ample]
    scale = lcm(*(a.denominator for a in ample))
    weights = [a.numerator * (scale // a.denominator) for a in ample]
    if any(_dot(weights, g) <= 0 for g in gens):
        raise InvalidModelError("ample class must pair positively with every Mori generator")
    bound = Fraction(bound)
    top = bound.numerator * scale // bound.denominator
    if top < 0:
        return []
    # A row is (c, a_1, ..., a_k); systems[k - 1] holds the rows in d_1..d_k.
    # A combination with no coefficient left reads c >= 0, which d = 0 meets.
    rows = {(0, *n) for n in _mori_facets(data)} | {(top, *(-w for w in weights))}
    systems = [rows]
    for k in range(data.K, 1, -1):
        kept = {r[:k] for r in rows if not r[k]}
        for p in rows:
            for n in rows:
                if p[k] > 0 > n[k]:
                    combined = [p[k] * y - n[k] * x for x, y in zip(p[:k], n)]
                    if any(combined[1:]):
                        kept.add(_primitive(combined))
        rows = kept
        systems.insert(0, rows)
    prefixes = [()]
    for rows in systems:
        grown = []
        for prefix in prefixes:
            rests = [(r[0] + _dot(r[1:], prefix), r[-1]) for r in rows if r[-1]]
            low = max(-(rest // a) for rest, a in rests if a > 0)
            high = min(rest // -a for rest, a in rests if a < 0)
            grown += [(*prefix, x) for x in range(low, high + 1)]
        prefixes = grown
    return [d for _, d in sorted((_dot(weights, d), d) for d in prefixes)]
