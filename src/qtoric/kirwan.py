"""Multiplicative relation sets presenting the (equivariant) cohomology and
K-theory rings of a toric quotient, and their verification at fixed points.

A subset of divisor columns gives a relation exactly when the corresponding
divisors have empty common intersection, which by the face criterion means the
subset fits inside no fixed-point subset.  Relations are emitted in minimal
form only (the minimal non-faces, one per primitive collection).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .scalars import DegenerateSampleError, SampleContext
from .toric import ToricData, divisor_values, enumerate_fixed_points


@dataclass(frozen=True)
class KirwanRelation:
    """A minimal empty-intersection subset J, read multiplicatively: both
    prod_{j in J}(1 - U_j) = 0 in K-theory and prod_{j in J} u_j = 0 in cohomology.
    """

    J: tuple[int, ...]


def has_empty_intersection(data: ToricData, subset: Sequence[int]) -> bool:
    """True iff the divisors indexed by ``subset`` meet nowhere (face criterion).

    A fixed point lies on the divisor of column j exactly when j is off its
    index set, so the common intersection (a compact toric subvariety, hence
    containing a fixed point when nonempty) is empty iff the subset meets
    every fixed-point index set.
    """
    want = set(subset)
    return all(want & set(fp.J) for fp in enumerate_fixed_points(data))


@lru_cache(maxsize=None)
def kirwan_relations(data: ToricData) -> tuple[KirwanRelation, ...]:
    """All minimal empty-intersection subsets, by increasing cardinality,
    computed once per model."""
    found: list[tuple[int, ...]] = []
    for size in range(1, data.N + 1):
        for subset in combinations(range(data.N), size):
            if any(set(prev) <= set(subset) for prev in found):
                continue
            if has_empty_intersection(data, subset):
                found.append(subset)
    return tuple(KirwanRelation(J=j) for j in found)


def verify_relations_at_fixed_points(data: ToricData, ctx: SampleContext) -> dict:
    """Every relation must vanish identically on every fixed-point branch.

    K-theoretically some factor 1 - U_j(alpha) with j in J cap J(alpha) is
    exactly zero; cohomologically some u_j(p(alpha)) vanishes.  A product of
    rationals is 0 exactly when a factor is, so each side looks for a
    vanishing factor.  A violation is a data inconsistency and is reported,
    not raised.
    """
    report = {"ok": True, "checks": []}
    values = [(fp, fp.u_values(ctx.Lambda), divisor_values(data, fp, ctx.Lambda))
              for fp in enumerate_fixed_points(data)]
    for relation in kirwan_relations(data):
        for fp, uvals, dvals in values:
            k_vanishes = any(uvals[j] == 1 for j in relation.J)
            coh_vanishes = any(dvals[j] == 0 for j in relation.J)
            structural = bool(set(relation.J) & set(fp.J))
            ok = structural and k_vanishes and coh_vanishes
            report["checks"].append({
                "relation": [j + 1 for j in relation.J],
                "alpha": [j + 1 for j in fp.J],
                "ok": ok,
            })
            report["ok"] = report["ok"] and ok
    return report


def spectrum_point_count(data: ToricData, ctx: SampleContext) -> int:
    """Count the distinct fixed-point branches at a generic sample: the
    points p(alpha) that each fixed point's parameter values give.

    The relation equations are not solved here; one branch per fixed point is
    what their isolated solutions should number.  Two branches meeting at one
    point means the sample is degenerate.
    """
    points = []
    for fp in enumerate_fixed_points(data):
        points.append(fp.p_values(ctx.Lambda))
    if len(set(points)) != len(points):
        raise DegenerateSampleError("two branches met at the same solution")
    return len(points)
