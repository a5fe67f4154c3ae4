"""Fraction routes for the tests: the recursion coefficient of an orbit.

``qtoric.recursion`` builds the recursion coefficient along two routes, each
a product of int pairs normalised once.  These are the ``Fraction`` routines
they replaced, kept unchanged as an independent route: the residue-formula
arrangement through ``ratio_table`` at the root point, and the weights of
the binary-form monomials, every step a ``Fraction`` operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from localization_oracle import cotangent_euler
from qtoric.recursion import OrbitData
from qtoric.scalars import DegenerateSampleError, PoleError, SampleContext, ratio_table
from qtoric.toric import ToricData, degree_pairing


def edge_euler_class(data: ToricData, orbit: OrbitData, m: int, ctx: SampleContext,
                     mu: Fraction) -> Fraction:
    """The recursion coefficient from the residue formula arrangement:

        C = phi^alpha * prod_{r=1}^{m-1} (1 - mu^r)
              * prod_{j != j0} [prod_{r<=m D_j(d_ab)} / prod_{r<=0}] (1 - mu^{-r} U_j(alpha)).

    The bracket is the reciprocal of the universal finite ratio evaluated at
    the root point q0 = 1/mu.
    """
    lam_val = prod((lam ** e for lam, e in zip(ctx.Lambda, orbit.lambda_char)), start=Fraction(1))
    if lam_val != mu ** m:
        raise ValueError("context does not realize the orbit character as mu^m")
    phi = cotangent_euler(data, orbit.alpha, ctx)
    out = phi
    for r in range(1, m):
        factor = 1 - mu ** r
        if factor == 0:
            raise DegenerateSampleError("mu is a root of unity")
        out *= factor
    q0 = 1 / mu
    uvals = orbit.alpha.u_values(ctx.Lambda)
    pairing = degree_pairing(data, orbit.d_ab)
    for j in range(data.N):
        if j == orbit.j0:
            continue
        depth = m * pairing[j]
        fr = ratio_table(uvals[j], (depth,), q0)[depth]
        if fr == 0:
            raise PoleError(0, uvals[j])
        out /= fr
    return out


def edge_euler_class_from_forms(data: ToricData, orbit: OrbitData, m: int,
                                ctx: SampleContext, mu: Fraction) -> Fraction:
    """Independent first-principles route: weights of binary-form monomials.

    The pullback of each line U_j to the m-fold cover of the sphere has degree
    m D_j(d_ab); its section space contributes the weights U_j(alpha) mu^{-r},
    r = 0..m D_j, and for degree <= -2 the obstruction space contributes the
    inverse factors on the range m D_j + 1..-1.  The trivial summands of the
    cotangent representation and the reparameterization line account for
    exactly K + 1 trivial weights, which are removed rather than multiplied.
    """
    uvals = orbit.alpha.u_values(ctx.Lambda)
    pairing = degree_pairing(data, orbit.d_ab)
    numerator: list[Fraction] = []
    denominator: list[Fraction] = []
    for j in range(data.N):
        b = m * pairing[j]
        if b >= 0:
            for r in range(0, b + 1):
                numerator.append(uvals[j] * mu ** (-r))
        else:
            for r in range(b + 1, 0):
                denominator.append(uvals[j] * mu ** (-r))
    trivial = [w for w in numerator if w == 1]
    if len(trivial) != data.K + 1:
        raise DegenerateSampleError(
            f"expected {data.K + 1} trivial weights, found {len(trivial)}"
        )
    if any(w == 1 for w in denominator):
        raise DegenerateSampleError("trivial weight in the obstruction range")
    out = Fraction(1)
    removed = 0
    for w in numerator:
        if w == 1 and removed < len(trivial):
            removed += 1
            continue
        out *= 1 - w
    for w in denominator:
        out /= 1 - w
    return out
