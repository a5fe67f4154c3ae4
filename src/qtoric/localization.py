"""Fixed-point localization evaluators: the K-theoretic trace, equivariant
integration, and integration over spaces of degree-d spheres.

All three are finite residue sums over the fixed-point solutions; the class to
integrate is supplied as an expression tree (or any callable on the evaluation
environment) and evaluated exactly per fixed point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .scalars import PoleError, SampleContext
from .toric import (
    FixedPoint,
    ToricData,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    equivariant_p_values,
    map_space_model,
)


def _evaluate(phi, env: Mapping[str, Fraction]) -> Fraction:
    if hasattr(phi, "evaluate"):
        return Fraction(phi.evaluate(env))
    return Fraction(phi(env))


def _class_env(data: ToricData, ctx: SampleContext, pvals: Sequence[Fraction],
               p: str, lam: str) -> dict[str, Fraction]:
    """Symbols of a class expression: {p}1..{p}K, {lam}1..{lam}N, q and z."""
    env = {f"{p}{i+1}": pvals[i] for i in range(data.K)}
    env.update({f"{lam}{j+1}": ctx.Lambda[j] for j in range(data.N)})
    env["q"] = ctx.q
    env["z"] = ctx.z
    return env


def cotangent_euler(data: ToricData, fp: FixedPoint, ctx: SampleContext) -> Fraction:
    """prod_{j not in J(alpha)} (1 - U_j(alpha)): the cotangent Euler class at alpha."""
    out = Fraction(1)
    uvals = fp.u_values(ctx.Lambda)
    for j in range(data.N):
        if j in fp.J:
            continue
        factor = 1 - uvals[j]
        if factor == 0:
            raise PoleError(0, uvals[j])
        out *= factor
    return out


def ktheory_trace(data: ToricData, phi, ctx: SampleContext) -> Fraction:
    """sum_alpha Phi(P(alpha)) / prod_{j not in J(alpha)} (1 - U_j(alpha)).

    The residue sum over the solution branches of the relation equations; for
    Phi = 1 this is the holomorphic Euler characteristic of the structure
    sheaf, which equals 1 on every model here.
    """
    total = Fraction(0)
    for fp in enumerate_fixed_points(data):
        denom = cotangent_euler(data, fp, ctx)
        total += _evaluate(phi, _class_env(data, ctx, fp.p_values(ctx.Lambda), "P", "L")) / denom
    return total


def cohomology_integral(data: ToricData, phi, ctx: SampleContext) -> Fraction:
    """sum_alpha phi(p(alpha), lambda) / (det_alpha * prod_{j not in J} u_j(p(alpha))).

    The per-branch sign is the determinant of the fixed-point minor, the
    orientation that gives the point class of the projective line integral +1.
    """
    total = Fraction(0)
    for fp in enumerate_fixed_points(data):
        pvals = equivariant_p_values(data, fp, ctx.Lambda)
        dvals = divisor_values(data, fp, ctx.Lambda)
        denom = Fraction(fp.det)
        for j in range(data.N):
            if j in fp.J:
                continue
            if dvals[j] == 0:
                raise PoleError(0, dvals[j])
            denom *= dvals[j]
        total += _evaluate(phi, _class_env(data, ctx, pvals, "p", "l")) / denom
    return total


def map_space_integral(data: ToricData, d: Sequence[int], phi,
                       ctx: SampleContext) -> Fraction:
    """Integration over the space of degree-d spheres by its residue sum.

    Poles correspond to fixed points of the base together with a shift
    assignment r_j in {0..D_j(d)} for each j on the fixed point (none when
    some D_j(d) < 0 there); negative-index columns contribute their
    obstruction factors to the numerator.
    """
    pairing = degree_pairing(data, d)
    extended = map_space_model(data, d)
    denominator_copies = [
        (j, r) for j in range(data.N) if pairing[j] >= 0
        for r in range(pairing[j] + 1)
    ]
    total = Fraction(0)
    for fp in enumerate_fixed_points(data):
        if any(pairing[j] < 0 for j in fp.J):
            continue
        # lambda_j + r_j z on J moves p(alpha) by z times the integer shift
        # s_i = sum_j e_ij r_j, with the weights e_ij that read p off the lambdas.
        pvals = equivariant_p_values(data, fp, ctx.Lambda)
        dvals = divisor_values(data, fp, ctx.Lambda)
        ranges = [range(pairing[j] + 1) for j in fp.J]
        for shifts in product(*ranges):
            chosen = set(zip(fp.J, shifts))
            s = [sum(mon.exps[j] * r for j, r in chosen) for mon in fp.p_monomials]
            pstar = [p + si * ctx.z for p, si in zip(pvals, s)]
            ustar = [u + sum(si * row[j] for si, row in zip(s, data.m)) * ctx.z
                     for j, u in enumerate(dvals)]
            numerator = _evaluate(phi, _class_env(data, ctx, pstar, "p", "l"))
            for j, r in extended.obstructions:
                numerator *= ustar[j] + r * ctx.z
            denom = Fraction(fp.det)
            for j, r in denominator_copies:
                if (j, r) in chosen:
                    continue
                factor = ustar[j] - r * ctx.z
                if factor == 0:
                    raise PoleError(r, factor)
                denom *= factor
            total += numerator / denom
    return total
