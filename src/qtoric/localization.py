"""Fixed-point localization evaluators: the K-theoretic trace, equivariant
integration, and integration over spaces of degree-d spheres.

All three are finite residue sums over the fixed-point solutions; the class to
integrate is supplied as an expression tree (or any callable on the evaluation
environment) and evaluated exactly per fixed point.  The environment is built
once per sum, and each term updates only its p-symbols.

Each residue term is a ratio of integers, normalised once: the additive sums
read the sample's lambdas (and z) over their common denominator D, so every
factor u_j and u_j -+ r z is an int over D and the term's power of D is fixed
per sum; the trace's factors 1 - U_j are int pairs from integer powers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .scalars import PoleError, SampleContext, common_denominator, power_pair
from .toric import (
    FixedPoint,
    ToricData,
    degree_pairing,
    enumerate_fixed_points,
    weighted_numerators,
)


def _evaluate(phi, env: Mapping[str, Fraction]) -> Fraction:
    value = phi.evaluate(env) if hasattr(phi, "evaluate") else phi(env)
    return value if type(value) is Fraction else Fraction(value)


def _class_env(data: ToricData, ctx: SampleContext, p: str,
               lam: str) -> tuple[dict[str, Fraction], list[str]]:
    """Symbols of a class expression: {p}1..{p}K, {lam}1..{lam}N, q and z, and
    the names of the p-symbols, which each term sets."""
    names = [f"{p}{i+1}" for i in range(data.K)]
    env = dict.fromkeys(names)
    env.update({f"{lam}{j+1}": ctx.Lambda[j] for j in range(data.N)})
    env["q"] = ctx.q
    env["z"] = ctx.z
    return env, names


def _cotangent_pair(data: ToricData, fp: FixedPoint, ctx: SampleContext) -> tuple[int, int]:
    """prod_{j not in J(alpha)} (1 - U_j(alpha)), the cotangent Euler class at
    alpha, as an unnormalised pair (numerator, denominator) of ints."""
    num = den = 1
    for j in range(data.N):
        if j in fp.J:
            continue
        a, b = power_pair(ctx.Lambda, fp.u_monomials[j])  # U_j(alpha) = a / b
        if a == b:
            raise PoleError(0, Fraction(1))
        num, den = num * (b - a), den * b
    return num, den


def ktheory_trace(data: ToricData, phi, ctx: SampleContext) -> Fraction:
    """sum_alpha Phi(P(alpha)) / prod_{j not in J(alpha)} (1 - U_j(alpha)).

    The residue sum over the solution branches of the relation equations; for
    Phi = 1 this is the holomorphic Euler characteristic of the structure
    sheaf, which equals 1 on every model here.
    """
    env, names = _class_env(data, ctx, "P", "L")
    total = Fraction(0)
    for fp in enumerate_fixed_points(data):
        num, den = _cotangent_pair(data, fp, ctx)
        env.update(zip(names, fp.p_values(ctx.Lambda)))
        value = _evaluate(phi, env)
        total += Fraction(value.numerator * den, value.denominator * num)
    return total


def cohomology_integral(data: ToricData, phi, ctx: SampleContext) -> Fraction:
    """sum_alpha phi(p(alpha), lambda) / prod_{j not in J} u_j(p(alpha)).

    The denominator is the tangent Euler class at alpha alone (Atiyah-Bott),
    so the sum does not depend on the order of the columns.  Each u_j(p(alpha))
    is an int over the lambdas' common denominator D, so a term is
    phi * D^(N-K) / prod u_j with an integer denominator.
    """
    den, lam = common_denominator(ctx.Lambda)
    scale = den ** (data.N - data.K)
    env, names = _class_env(data, ctx, "p", "l")
    total = Fraction(0)
    for fp in enumerate_fixed_points(data):
        uvals = weighted_numerators(fp.u_monomials, lam)
        denom = 1
        for j in range(data.N):
            if j in fp.J:
                continue
            if uvals[j] == 0:
                raise PoleError(0, Fraction(0))
            denom *= uvals[j]
        env.update(zip(names, (Fraction(p, den)
                               for p in weighted_numerators(fp.p_monomials, lam))))
        value = _evaluate(phi, env)
        total += Fraction(value.numerator * scale, value.denominator * denom)
    return total


def map_space_integral(data: ToricData, d: Sequence[int], phi,
                       ctx: SampleContext) -> Fraction:
    """Integration over the space of degree-d spheres by its residue sum.

    Poles correspond to fixed points of the base together with a shift
    assignment r_j in {0..D_j(d)} for each j on the fixed point (none when
    some D_j(d) < 0 there); negative-index columns contribute their
    obstruction factors to the numerator.  The lambdas and z are read over
    their common denominator D: every factor u_j -+ r z is an int over D, and
    each term has the same numbers of numerator and denominator factors, so
    its power of D is fixed per call.
    """
    pairing = degree_pairing(data, d)
    # The obstruction factors: the missing copies (j, r), r = 1..-D_j(d), of
    # each column with D_j(d) < 0.
    obstructions = [(j, r) for j in range(data.N) for r in range(1, 1 - pairing[j])]
    denominator_copies = [
        (j, r) for j in range(data.N) if pairing[j] >= 0
        for r in range(pairing[j] + 1)
    ]
    den, nums = common_denominator((*ctx.Lambda, ctx.z))
    lam, z = nums[:-1], nums[-1]
    # A term skips K of the copies (its poles) and keeps every obstruction.
    excess = len(denominator_copies) - data.K - len(obstructions)
    num_scale, den_scale = (den ** excess, 1) if excess >= 0 else (1, den ** -excess)
    env, names = _class_env(data, ctx, "p", "l")
    total = Fraction(0)
    for fp in enumerate_fixed_points(data):
        if any(pairing[j] < 0 for j in fp.J):
            continue
        # lambda_j + r_j z on J moves p(alpha) by z times the integer shift
        # s_i = sum_j e_ij r_j, with the weights e_ij that read p off the lambdas.
        pvals = weighted_numerators(fp.p_monomials, lam)
        uvals = weighted_numerators(fp.u_monomials, lam)
        ranges = [range(pairing[j] + 1) for j in fp.J]
        for shifts in product(*ranges):
            chosen = set(zip(fp.J, shifts))
            s = [sum(mon[j] * r for j, r in chosen) for mon in fp.p_monomials]
            env.update(zip(names, (Fraction(p + si * z, den) for p, si in zip(pvals, s))))
            ustar = [u + sum(si * row[j] for si, row in zip(s, data.m)) * z
                     for j, u in enumerate(uvals)]
            value = _evaluate(phi, env)
            numerator = value.numerator * num_scale
            for j, r in obstructions:
                numerator *= ustar[j] + r * z
            denom = value.denominator * den_scale
            for j, r in denominator_copies:
                if (j, r) in chosen:
                    continue
                factor = ustar[j] - r * z
                if factor == 0:
                    raise PoleError(r, Fraction(0))
                denom *= factor
            total += Fraction(numerator, denom)
    return total
