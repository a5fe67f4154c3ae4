"""Brute-force cone membership for the tests: Caratheodory's subset search.

A vector lies in cone(G) iff it is a nonnegative combination of linearly
independent members of G (Caratheodory), and such a set extends, inside G, to
a basis of span(G).  So every basis of span(G) drawn from G is tried: solve
for the coordinates exactly and accept when they are all >= 0.  This costs
C(|G|, rank) solves per rejected vector and shares nothing with the facet
normals that ``qtoric.toric`` decides membership by.

``qtoric.toric`` builds the effective-curve cone from the torus-invariant
curve classes, and its facets by double description.  Three routes it
replaced are kept here as references.  ``wall_counter_classes`` counts the
fixed points on each wall to find the curve classes.  ``cofactor_facets``
tries every (K - 1)-subset of the generators for a facet.
``dual_cone_union``, ``union_facets`` and ``union_extreme_rays`` take the
cone of the union of every fixed point's dual-cone generators.
``rectangle_box`` is the box enumeration that projecting the box replaced:
it filters a rectangle of candidates by the bound and the facets.
``scan_fixed_points`` and ``wall_graph`` are the fixed points and their graph
that the simplex walk replaced: every K-subset of the columns is eliminated
from scratch by the Bareiss adjugate of ``linalg_oracle`` (where the walk
pivots from a neighbour's basis), and the fixed points are grouped by the
walls they share.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm

from linalg_oracle import adjugate, minor
from qtoric.toric import (
    InvalidModelError,
    NonRegularChamberError,
    NonSmoothModelError,
    OrbitInvariantError,
    _build_fixed_point,
    _curve_classes,
    _dot,
    _mori_facets,
    enumerate_fixed_points,
)


def _det(m) -> int:
    if not m:
        return 1
    return sum((-1) ** c * m[0][c] * _det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)) if m[0][c])


@lru_cache(maxsize=None)
def _bases(gens: tuple[tuple[int, ...], ...]):
    """(basis, coordinates, adjugate, det) for every basis of span(gens) in gens.

    With M[a][b] = basis[b][coords[a]] invertible, the coordinates of t in the
    basis are adjugate . t[coords] / det, provided t lies in span(gens).
    """
    dim = len(gens[0]) if gens else 0
    for rank in range(min(len(gens), dim), 0, -1):
        found = []
        for basis in combinations(gens, rank):
            for coords in combinations(range(dim), rank):
                m = [[g[a] for g in basis] for a in coords]
                det = _det(m)
                if det:
                    adj = [[(-1) ** (a + b) * _det([row[:a] + row[a + 1:]
                                                    for k, row in enumerate(m) if k != b])
                            for b in range(rank)] for a in range(rank)]
                    found.append((basis, coords, adj, det))
                    break
        if found:
            return found
    return []


def in_cone(generators, target) -> bool:
    """Exact membership of ``target`` in cone(generators)."""
    target = tuple(int(x) for x in target)
    if not any(target):
        return True
    return _in_cone(_bases(tuple(tuple(int(x) for x in g) for g in generators if any(g))),
                    target)


def _in_cone(bases, target) -> bool:
    """Whether the nonzero ``target`` is a nonnegative combination of one of ``bases``."""
    for basis, coords, adj, det in bases:
        scaled = [sum(row[a] * target[c] for a, c in enumerate(coords)) for row in adj]
        if any(det * y < 0 for y in scaled):
            continue
        combo = [sum(y * g[k] for y, g in zip(scaled, basis)) for k in range(len(target))]
        if combo == [det * t for t in target]:
            return True
    return False


def primitive(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    return tuple(int(x) // g for x in vec) if g > 1 else tuple(int(x) for x in vec)


def extreme_rays(generators) -> list[tuple[int, ...]]:
    """The primitive generators that no other generator combination reaches.

    The bases of span(generators) are built once.  Without g the others span
    the same space iff some basis avoids g, and their bases are exactly the
    ones that do; when none does the rank drops, g lies outside the others'
    span, and it is extreme.
    """
    prims = []
    for g in generators:
        p = primitive(g)
        if any(p) and p not in prims:
            prims.append(p)
    bases = _bases(tuple(prims))
    rays = []
    for g in prims:
        avoiding = [b for b in bases if g not in b[0]]
        if not avoiding or not _in_cone(avoiding, g):
            rays.append(g)
    return rays


def wall_counter_classes(data) -> tuple[tuple[int, ...], ...]:
    """The curve classes by counting walls: beta's dual-cone generator at j,
    for each wall J(beta) - j that another fixed point shares, each class at
    its first occurrence."""
    fixed = enumerate_fixed_points(data)
    walls = Counter(fp.J[:i] + fp.J[i + 1:] for fp in fixed for i in range(data.K))
    classes: dict[tuple[int, ...], None] = {}
    for fp in fixed:
        for i, g in enumerate(fp.q_monomials):
            if walls[fp.J[:i] + fp.J[i + 1:]] > 1:
                classes[g] = None
    return tuple(classes)


def dual_cone_union(data) -> tuple[tuple[int, ...], ...]:
    """Every fixed point's dual-cone generators, each at its first occurrence."""
    gens: list[tuple[int, ...]] = []
    for fp in enumerate_fixed_points(data):
        for g in fp.q_monomials:
            if g not in gens:
                gens.append(g)
    return tuple(gens)


def cofactor_facets(gens, k) -> tuple[tuple[int, ...], ...]:
    """Primitive inner facet normals of cone(gens) in Z^k.

    Each facet holds k - 1 independent generators, so every (k - 1)-subset is
    tried: its cofactor normal n_i = det(e_i, g_1, ..., g_{k-1}) is kept when
    every generator lies on one side, oriented so that they pair >= 0.
    """
    facets: list[tuple[int, ...]] = []
    spans = False
    for tight in combinations(gens, k - 1):
        normal = [_det([[int(c == i) for c in range(k)], *tight]) for i in range(k)]
        pairings = [sum(x * y for x, y in zip(normal, g)) for g in gens]
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


def union_facets(data) -> set[tuple[int, ...]]:
    """Primitive inner facet normals of cone(dual_cone_union(data))."""
    return set(cofactor_facets(dual_cone_union(data), data.K))


def union_extreme_rays(data) -> list[tuple[int, ...]]:
    """The primitive union generators, first occurrences in order, whose tight
    facet normals (``union_facets``) have rank K - 1."""
    facets = union_facets(data)
    k = data.K
    rays: list[tuple[int, ...]] = []
    for g in map(primitive, dual_cone_union(data)):
        tight = [n for n in facets if sum(x * y for x, y in zip(n, g)) == 0]
        if g not in rays and any(_det([*rows, g]) for rows in combinations(tight, k - 1)):
            rays.append(g)
    return rays


def rectangle_box(data, ample, bound) -> list[tuple[int, ...]]:
    """All effective degrees with <ample, d> <= bound, from a filtered rectangle.

    An effective d is sum_g c_g g with c_g >= 0 over the curve classes, so
    d_i lies between bound * min(0, g_i / <ample, g>) and bound * max(0, ...).
    Pairings are scaled to integers by the common denominator of ``ample``,
    and the bound to the integer ``top`` below it, so each coordinate's range
    runs between the integer ceil and floor of top * g_i / <ample, g>.  The
    rectangle costs the product of the ranges, not the size of the box.
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


def scan_fixed_points(data):
    """All K-subsets whose column cone strictly contains omega.

    Raises on boundary omega (non-regular) and on any non-unimodular fixed
    minor (non-smooth quotient), whichever subset comes first.  Each minor is
    eliminated once: its chamber coefficients minor^-1 omega = adj omega / det
    have the signs of ``scaled`` = det * (adj omega), read on omega times the
    lcm of its denominators, an int vector; and det * adj is the inverse when
    |det| = 1.
    """
    scale = lcm(*(w.denominator for w in data.omega))
    omega = [w.numerator * (scale // w.denominator) for w in data.omega]
    out = []
    for subset in combinations(range(data.N), data.K):
        det, adj = adjugate(minor(data, subset))
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
            out.append(_build_fixed_point(data, subset, det, adj))
    if not out:
        raise NonRegularChamberError("omega lies outside the image of the open orthant")
    return tuple(out)


def wall_graph(data) -> dict:
    """The fixed-point graph by wall grouping: (J(alpha), j0) -> (alpha, beta,
    j0'), where alpha and beta share the wall J(alpha) - j0' = J(beta) - j0.

    The fixed points are grouped by their walls once; the entries run by alpha,
    then by the position of j0' in J(alpha).  A direction that leaves alpha
    through two walls is an OrbitInvariantError.
    """
    fixed = scan_fixed_points(data)
    walls: dict[tuple[int, ...], list] = {}
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
