"""Toric quotient data: fixed points and their graph, pairings, Mori cone, box degrees.

A model is a K x N integer matrix whose columns express the divisor classes u_j in
the basis p_1..p_K of the quotient torus, together with a chamber point omega.  The
torus-fixed points are the vertices of the moment polytope {x >= 0 : m x = omega},
each named by the K columns J of its support, and the invariant spheres are its
bounded edges: one simplex walk finds both, and each fixed point keeps its ratio test
as ``edges``, which ``fixed_point_graph`` indexes.  A ``Basis`` is (J, det, adj), J
sorted and adj M_J = det I, and every change of basis is one ``linalg.pivot``.
Smoothness means every fixed point's minor has determinant +-1, and all downstream
formulas assume it.  The Mori cone is built by double description.  The truncation
box, its lattice points under a bound on an ample class, is enumerated coordinate by
coordinate through the projections of that polytope, with no candidate grid: each
projection is the hull of the projected vertices, by the same double description,
and the bound scales it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .linalg import pivot
from .scalars import common_denominator, power_product

Basis = tuple[tuple[int, ...], int, list]


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
    name: str = ""


class ToricData(_ToricFields):
    """The single source of truth for a model: the matrix, chamber point and name.

    The constructor normalises the fields (int rows, ``Fraction`` omega) and
    validates their shapes; ``_replace`` and ``_make`` skip it, so they must
    start from normalised fields.  The equivariant parameters have no labels
    here: ``format_monomial`` and the class expressions call them L1..LN.  A
    subclass of the field tuple, it keeps an instance dict for its cached properties.
    """

    def __new__(cls, m, omega, name=""):
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
        return super().__new__(cls, rows, omega, name)

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

    @cached_property
    def _integral_omega(self) -> tuple[int, ...]:
        """omega times the lcm of its denominators: its signs and ratios, in ints."""
        scale = lcm(*(w.denominator for w in self.omega))
        return tuple(w.numerator * (scale // w.denominator) for w in self.omega)


class FixedPoint(NamedTuple):
    """A fixed point: its index subset and the monomial data localized there.

    A Laurent monomial in the equivariant parameters is its exponent tuple:
    ``p_monomials[i]`` is P_i, ``u_monomials[j]`` the value of U_j, and
    ``q_monomials`` (aligned with J) are exponent tuples over Q_1..Q_K that
    re-encode the degree lattice so the exponent identity
    Q^d = prod_{j in J} Q_j^{D_j(d)} holds; they generate the dual cone
    Z_+^K at this fixed point.  ``edges`` is the ratio test at this vertex of
    the moment polytope: each column j0 off J, in order, paired with the column
    j0' of J that leaves as j0 enters, or with None on an unbounded edge.
    """

    J: tuple[int, ...]
    det: int
    p_monomials: tuple[tuple[int, ...], ...]
    u_monomials: tuple[tuple[int, ...], ...]
    q_monomials: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int | None], ...]

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


def format_monomial(exps: Sequence[int]) -> str:
    """The Laurent monomial prod_j L{j+1}^exps[j] as a class expression, ``1`` when trivial."""
    parts = [f"L{j+1}" if e == 1 else f"L{j+1}^{e}" for j, e in enumerate(exps) if e]
    return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
def enumerate_fixed_points(data: ToricData) -> tuple[FixedPoint, ...]:
    """The K-subsets J whose column cone strictly contains omega, sorted.

    They are the vertices of the moment polytope {x >= 0 : m x = omega}, whose graph is
    connected (Balinski 1961): each vertex's ``edges`` walk it from ``_feasible_basis``, one
    pivot per new vertex, from its parent's basis.  omega on a wall is refused first, then
    the smallest J whose minor is not unimodular.
    """
    start = _feasible_basis(data)
    todo, found = [(start[0], start, None, None)], {}
    while todo:
        J, basis, j0, r = todo.pop()
        if J not in found:
            if j0 is not None:
                basis = _exchange(basis, j0, [_dot(row, data.columns[j0]) for row in basis[2]], r)
            found[J] = fp = _build_fixed_point(data, *basis)
            todo += [(_neighbour(J, j, out), basis, j, J.index(out))
                     for j, out in fp.edges if out is not None]
    bad = min((J for J, fp in found.items() if fp.det not in (1, -1)), default=None)
    if bad is not None:
        raise NonSmoothModelError(bad, found[bad].det)
    return tuple(found[J] for J in sorted(found))


def _feasible_basis(data: ToricData) -> Basis:
    """A basis with M_J^-1 omega >= 0: phase 1 of the simplex method, Bland's rule (which
    cannot cycle) on [m | diag(sign omega)] from its K artificial columns (det = prod sign
    omega, adj = det diag(sign omega)), in ints off det adj = det^2 M^-1; then ``_complete``
    keeps x's support.  An artificial column left means rank m < K or omega is outside."""
    k, n, omega = data.K, data.N, data._integral_omega
    cols = data.columns + tuple(tuple((w >= 0) - (w < 0) if r == i else 0 for r in range(k))
                                for i, w in enumerate(omega))
    det = prod(cols[n + i][i] for i in range(k))
    basis = tuple(range(n, n + k)), det, [[det * a for a in col] for col in cols[n:]]
    while True:
        J, det, adj = basis
        x = [det * _dot(row, omega) for row in adj]
        costs = [det * sum(row[i] for row, j in zip(adj, J) if j >= n) for i in range(k)]
        enter = next((j for j in range(n + k) if j not in J
                      and _dot(costs, cols[j]) > det * det * (j >= n)), None)
        if enter is None:
            break
        c = [_dot(row, cols[enter]) for row in adj]
        basis = _exchange(basis, enter, c, J.index(_leaving(x, [det * a for a in c], J)))
    basis = _complete(cols, basis, compress(J, x), range(n))
    if basis[0][-1] >= n:
        raise NonRegularChamberError("omega lies outside the image of the open orthant")
    return basis


def _exchange(basis: Basis, j: int, c: Sequence[int], r: int) -> Basis:
    """``basis`` with column j, or J[r] again, in place r by one ``pivot``, c = adj m_{.j}:
    j moves on to its sorted place s with row r of adj, flipping det and adj if r - s is odd."""
    J, det, adj = basis
    det, adj = pivot(det, adj, c, r)
    s = bisect_left(J, j) - (J[r] < j)
    adj.insert(s, adj.pop(r))
    if (r - s) % 2:
        det, adj = -det, [[-a for a in row] for row in adj]
    return _neighbour(J, j, J[r]), det, adj


def _complete(vectors: Sequence, basis: Basis, kept: Iterable[int], order: Iterable[int]) -> Basis:
    """``basis`` with its places that hold no ``kept`` label filled, in ``order``, by each
    vector whose coordinates adj v are nonzero at such a place, until it is full: the
    vectors taken are those outside the span of the kept ones and those before them."""
    kept = set(kept)
    for label in order:
        J, _, adj = basis
        if len(kept) == len(J):
            break
        c = [_dot(row, vectors[label]) for row in adj]
        if (r := next((p for p, j in enumerate(J) if c[p] and j not in kept), None)) is not None:
            basis = _exchange(basis, label, c, r)
            kept.add(label)
    return basis


def _leaving(x: Sequence[int], c: Sequence[int], J: Sequence[int]) -> int | None:
    """The J[i] with the least ratio x_i / c_i over c_i > 0, the first on a tie,
    compared by cross-multiplying; None when no c_i is positive."""
    best = None
    for i, ci in enumerate(c):
        if ci > 0 and (best is None or x[i] * c[best] < x[best] * ci):
            best = i
    return None if best is None else J[best]


def _neighbour(J: Sequence[int], j0: int, j0p: int) -> tuple[int, ...]:
    """The basis that J becomes when j0 enters and j0' leaves."""
    return tuple(sorted({*J} - {j0p} | {j0}))


def _build_fixed_point(data: ToricData, subset: tuple[int, ...], det: int,
                       adj: list[list[int]]) -> FixedPoint:
    """The monomial data and ratio test at a fixed point from its basis: inv = det adj, M^-1
    times det^2 (M^-1 when smooth), gives the chamber coefficients x in its rows, and
    U_{j0}'s exponents on J the rates c = M^-1 m_{.j0}.  A zero in x is a wall: refused."""
    inv = [[det * a for a in row] for row in adj]
    n = data.N
    x = [_dot(row, data._integral_omega) for row in inv]
    if 0 in x:
        J = _complete(data.columns, (subset, det, adj), compress(subset, x), range(n))[0]
        raise NonRegularChamberError(f"omega lies on the wall of cone {tuple(j + 1 for j in J)}")
    # P_i = prod_{j' in J} Lambda_{j'}^{inv[j'][i]}: solves prod_i P_i^{m_ij} = Lambda_j, j in J.
    p_monomials = [[0] * n for _ in inv]
    for j, row in zip(subset, inv):
        for exps, e in zip(p_monomials, row):
            exps[j] = e
    # U_j = prod_i P_i^{m_ij} / Lambda_j, so its exponent at j' in J is sum_i m_ij inv[j'][i].
    u_monomials = []
    for j, column in enumerate(data.columns):
        exps = [0] * n
        for i, mij in enumerate(column):
            if mij:
                for jj, row in zip(subset, inv):
                    exps[jj] += mij * row[i]
        exps[j] -= 1
        u_monomials.append(tuple(exps))
    return FixedPoint(
        J=tuple(subset),
        det=det,
        p_monomials=tuple(map(tuple, p_monomials)),
        u_monomials=tuple(u_monomials),
        # Q_j = prod_i Q_i^{inv[j][i]} re-encodes degrees: D_{j'}(col of inv) = delta.
        q_monomials=tuple(map(tuple, inv)),
        edges=tuple((j0, _leaving(x, [exps[j] for j in subset], subset))
                    for j0, exps in enumerate(u_monomials) if j0 not in subset),
    )


def check_compact_quotient(data: ToricData) -> None:
    """Refuse a quotient that is not compact, or one with an empty toric divisor.

    A column j0 paired with None in ``alpha.edges`` moves alpha along an unbounded
    edge of {x >= 0 : m x = omega}; the first, by alpha and then by j0, is named.
    A column in every J(alpha) is a divisor that meets no fixed point.
    """
    fixed = enumerate_fixed_points(data)
    for alpha in fixed:
        for j0, j0p in alpha.edges:
            if j0p is None:
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
    """The fixed-point graph, an index over each alpha's ``edges``: (J(alpha), j0)
    -> (alpha, beta, j0') for each invariant sphere, where j0' leaves J(alpha) when
    j0 enters and J(beta) = J(alpha) - j0' + j0.  The entries run by alpha, then
    by j0', then by j0; an unbounded edge has none.  Callers share the table.
    """
    fixed = {alpha.J: alpha for alpha in enumerate_fixed_points(data)}
    return {(J, j0): (alpha, fixed[_neighbour(J, j0, j0p)], j0p)
            for J, alpha in fixed.items()
            for j0p, j0 in sorted((j0p, j0) for j0, j0p in alpha.edges if j0p is not None)}


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
    """Primitive inner facet normals of the effective-curve cone."""
    return _facets(_curve_classes(data), data.K)


def _facets(gens: Sequence[Sequence[int]], k: int) -> tuple[tuple[int, ...], ...]:
    """Primitive inner facet normals of cone(gens) in Z^k, which gens must span.

    The extreme rays of the dual cone {y : <y, g> >= 0 on every g}, by double
    description, each with the mask of the gens it is tight on.  The first k
    independent gens start it, each completing the identity basis by one pivot:
    ray i is det times row i of their adjugate.  Each g keeps the rays with
    <r, g> >= 0 and adds <p, g> n - <n, g> p for each pair with
    <p, g> > 0 > <n, g> when no third ray is tight on every g both are tight on.
    """
    size = len(gens)
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    J, det, adj = _complete(gens, (tuple(range(size, size + k)), 1, identity), (), range(size))
    if J[-1] >= size:
        raise InvalidModelError("the Mori cone generators do not span the degree lattice")
    rays = [(_primitive([det * x for x in row]), sum(1 << c for c in J if c != b))
            for row, b in zip(adj, J)]
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
    lattice points of top P_1, where P_1 = {d in the Mori cone : <w, d> <= 1}
    is the hull of 0 and g / <w, g> for the curve classes g.  Its projection
    onto d_1..d_k is the hull of the projected vertices, cut out by rows
    c + <a, d> >= 0 (``_box_hulls``), so top P_1's is cut out by
    c top + <a, d> >= 0; d_k then runs over the integer interval that
    projection k leaves for each prefix d_1..d_{k-1}.
    """
    gens = _curve_classes(data)
    ample = [Fraction(a) for a in ample]
    scale = lcm(*(a.denominator for a in ample))
    weights = tuple(a.numerator * (scale // a.denominator) for a in ample)
    if any(_dot(weights, g) <= 0 for g in gens):
        raise InvalidModelError("ample class must pair positively with every Mori generator")
    bound = Fraction(bound)
    top = bound.numerator * scale // bound.denominator
    if top < 0:
        return []
    prefixes = [()]
    for rows in _box_hulls(data, weights):
        grown = []
        for prefix in prefixes:
            rests = [(top * r[0] + _dot(r[1:], prefix), r[-1]) for r in rows if r[-1]]
            low = max(-(rest // a) for rest, a in rests if a > 0)
            high = min(rest // -a for rest, a in rests if a < 0)
            grown += [(*prefix, x) for x in range(low, high + 1)]
        prefixes = grown
    return [d for _, d in sorted((_dot(weights, d), d) for d in prefixes)]


@lru_cache(maxsize=None)
def _box_hulls(data: ToricData,
               weights: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For k = 1..K, the rows (c, a) of the projection of P_1 onto d_1..d_k:
    the facets of the cone over (1, 0) and (<w, g>, g) for the curve classes g,
    cut to their first k + 1 coordinates.  The point of a class that is not
    extreme lies on the face <w, d> = 1 and adds no vertex."""
    points = [(1,) + (0,) * data.K] + [(_dot(weights, g), *g) for g in _curve_classes(data)]
    return tuple(_facets([p[:k + 1] for p in points], k + 1) for k in range(1, data.K + 1))
