"""Brute-force cone membership for the tests: Caratheodory's subset search.

A vector lies in cone(G) iff it is a nonnegative combination of linearly
independent members of G (Caratheodory), and such a set extends, inside G, to
a basis of span(G).  So every basis of span(G) drawn from G is tried: solve
for the coordinates exactly and accept when they are all >= 0.  This costs
C(|G|, rank) solves per rejected vector and shares nothing with the facet
normals that ``qtoric.toric`` decides membership by.

``qtoric.toric`` builds the effective-curve cone from the torus-invariant
curve classes, and its facets by double description.  Two routes it replaced
are kept here as references.  ``cofactor_facets`` tries every
(K - 1)-subset of the generators for a facet.  ``dual_cone_union``,
``union_facets`` and ``union_extreme_rays`` take the cone of the union of
every fixed point's dual-cone generators.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd

from qtoric.toric import InvalidModelError, enumerate_fixed_points


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
