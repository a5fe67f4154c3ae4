"""Multiplicative relation sets presenting the (equivariant) cohomology and
K-theory rings of a toric quotient, and their verification at fixed points.

A subset of divisor columns gives a relation exactly when the corresponding
divisors have empty common intersection, which by the face criterion means the
subset meets every fixed-point index set: it is a transversal of those sets.
Relations are emitted in minimal form only, the minimal transversals (one per
primitive collection), each as its sorted tuple of column indices.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import DegenerateSampleError, SampleContext
from .toric import ToricData, divisor_values, enumerate_fixed_points


@lru_cache(maxsize=None)
def kirwan_relations(data: ToricData) -> tuple[tuple[int, ...], ...]:
    """All minimal empty-intersection subsets J, as sorted column-index
    tuples by increasing cardinality, computed once per model.

    A fixed point lies on the divisor of column j exactly when j is off its
    index set, and a nonempty common intersection (a compact toric
    subvariety) contains a fixed point, so J gives a relation iff it meets
    every J(alpha).  The minimal such J are grown one fixed point at a time
    (Berge): a set, as a column bitmask, that already meets J(alpha) is kept,
    one that misses it grows by each column of J(alpha), and only the minimal
    sets survive.

    Each J is read multiplicatively: both prod_{j in J}(1 - U_j) = 0 in
    K-theory and prod_{j in J} u_j = 0 in cohomology.
    """
    minimal = {0}
    for fp in enumerate_fixed_points(data):
        alpha = sum(1 << j for j in fp.J)
        grown = {t if t & alpha else t | 1 << j for t in minimal for j in fp.J}
        minimal = {t for t in grown if not any(s != t and s & t == s for s in grown)}
    relations = (tuple(j for j in range(data.N) if t >> j & 1) for t in minimal)
    return tuple(sorted(relations, key=lambda r: (len(r), r)))


def verify_relations_at_fixed_points(data: ToricData, ctx: SampleContext) -> dict:
    """Every relation must vanish identically on every fixed-point branch.

    K-theoretically some factor 1 - U_j(alpha) with j in J cap J(alpha) is
    exactly zero; cohomologically some u_j(p(alpha)) vanishes.  A product of
    rationals is 0 exactly when a factor is, so each side looks for a
    vanishing factor.  A violation is a data inconsistency and is reported,
    not raised.  Two fixed points whose P values meet at the sample make it
    degenerate: ``DegenerateSampleError``, before any check.
    """
    fps = enumerate_fixed_points(data)
    points = {fp.p_values(ctx.Lambda) for fp in fps}
    if len(points) != len(fps):
        raise DegenerateSampleError("two branches met at the same solution")
    report = {"ok": True, "checks": []}
    values = [(fp, fp.u_values(ctx.Lambda), divisor_values(data, fp, ctx.Lambda)) for fp in fps]
    for relation in kirwan_relations(data):
        for fp, uvals, dvals in values:
            k_vanishes = any(uvals[j] == 1 for j in relation)
            coh_vanishes = any(dvals[j] == 0 for j in relation)
            structural = bool(set(relation) & set(fp.J))
            ok = structural and k_vanishes and coh_vanishes
            report["checks"].append({
                "relation": [j + 1 for j in relation],
                "alpha": [j + 1 for j in fp.J],
                "ok": ok,
            })
            report["ok"] = report["ok"] and ok
    return report
