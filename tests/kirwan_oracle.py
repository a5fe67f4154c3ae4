"""The subset scan that ``qtoric.kirwan`` replaced, kept as the tests' reference.

Every column subset is tried by increasing size and, within a size, in
lexicographic order; a subset is a relation when it contains no relation found
before it and its divisors meet nowhere.  This costs 2^N - 1 subsets and
shares nothing with the library's incremental minimal transversals.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from qtoric.toric import ToricData, enumerate_fixed_points


def has_empty_intersection(data: ToricData, subset: Sequence[int]) -> bool:
    """True iff the divisors indexed by ``subset`` meet nowhere (face criterion).

    A fixed point lies on the divisor of column j exactly when j is off its
    index set, so the common intersection (a compact toric subvariety, hence
    containing a fixed point when nonempty) is empty iff the subset meets
    every fixed-point index set.
    """
    want = set(subset)
    return all(want & set(fp.J) for fp in enumerate_fixed_points(data))


def scan_relations(data: ToricData) -> tuple[tuple[int, ...], ...]:
    """The minimal empty-intersection subsets, by increasing size."""
    found: list[tuple[int, ...]] = []
    for size in range(1, data.N + 1):
        for subset in combinations(range(data.N), size):
            if any(set(prev) <= set(subset) for prev in found):
                continue
            if has_empty_intersection(data, subset):
                found.append(subset)
    return tuple(found)


def minimal_transversals(n: int, edges) -> set[tuple[int, ...]]:
    """The minimal subsets of range(n) that meet every edge, by brute force.

    Meeting every edge is closed upward, so a subset is minimal iff dropping
    any one of its columns loses it.
    """
    masks = [sum(1 << j for j in edge) for edge in edges]

    def meets_all(t):
        return all(t & e for e in masks)

    return {tuple(j for j in range(n) if t >> j & 1)
            for t in range(1 << n)
            if meets_all(t) and not any(t >> j & 1 and meets_all(t ^ 1 << j) for j in range(n))}
