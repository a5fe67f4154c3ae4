"""One-dimensional orbits and the simple-pole residue recursion.

Choosing a direction j0 off a fixed point alpha singles out an invariant
sphere to a second fixed point beta.  Away from roots of unity the component
series at alpha has simple poles in q at the inverse roots of the cotangent
character of that sphere, and their residues are proportional to the beta
component; the proportionality constant is the equivariant Euler class of the
virtual cotangent space at the multiple cover, computed here along two
independent routes that must agree.

The alpha component is built with q symbolic as products of binomials
1 - q^r u, so the pole order at the root point is a count of vanishing
factors and the residue is read off the factors; the beta side is evaluated
at the numeric root point, an independent route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from .monomials import Monomial
from .scalars import (
    BinomialProduct,
    DegenerateSampleError,
    PoleError,
    SampleContext,
    finite_ratio,
    random_fraction,
    sample_context,
    with_resampling,
)
from .linalg import solve_square
from .series import TruncationBox, component_series
from .toric import (
    FixedPoint,
    InvalidModelError,
    ToricData,
    degree_pairing,
    enumerate_fixed_points,
)


class OrbitInvariantError(InvalidModelError):
    """The solved orbit data violates a structural identity; bad input data."""


@dataclass(frozen=True)
class OrbitData:
    """An alpha -> beta edge of the fixed-point graph.

    ``j0`` enters (j0 not in J(alpha)), ``j0_prime`` leaves, ``d_ab`` is the
    degree of the connecting sphere and ``lambda_char`` the cotangent character
    U_{j0}(alpha) at the alpha end, as an exact parameter monomial.
    """

    alpha: FixedPoint
    beta: FixedPoint
    j0: int
    j0_prime: int
    d_ab: tuple[int, ...]
    lambda_char: Monomial


def orbit_data(data: ToricData, alpha: FixedPoint, j0: int) -> OrbitData | None:
    """Solve for the orbit leaving alpha in direction j0, or None if there is none."""
    if j0 in alpha.J:
        raise ValueError(f"column {j0 + 1} lies on the fixed point already")
    fixed = {fp.J: fp for fp in enumerate_fixed_points(data)}
    found: list[OrbitData] = []
    for j0p in alpha.J:
        new_subset = tuple(sorted(set(alpha.J) - {j0p} | {j0}))
        beta = fixed.get(new_subset)
        if beta is None:
            continue
        # Solve D_j(d) = 0 for j in J(alpha)\{j0p} and D_{j0}(d) = 1; the
        # equation index set is exactly J(beta), whose minor is unimodular.
        rows = [[data.m[i][j] for i in range(data.K)] for j in beta.J]
        rhs = [Fraction(1) if j == j0 else Fraction(0) for j in beta.J]
        sol = solve_square(rows, rhs)
        if sol is None:
            continue
        if any(x.denominator != 1 for x in sol):
            raise OrbitInvariantError("orbit degree came out non-integer")
        d_ab = tuple(int(x) for x in sol)
        lam = alpha.u_monomials[j0]
        _validate_orbit(data, alpha, beta, j0, j0p, d_ab, lam)
        found.append(OrbitData(alpha=alpha, beta=beta, j0=j0, j0_prime=j0p,
                               d_ab=d_ab, lambda_char=lam))
    if not found:
        return None
    if len(found) > 1:
        raise OrbitInvariantError(
            f"direction {j0 + 1} off {alpha.J} matched several fixed points"
        )
    return found[0]


def _validate_orbit(data: ToricData, alpha: FixedPoint, beta: FixedPoint,
                    j0: int, j0p: int, d_ab, lam: Monomial) -> None:
    pairing = degree_pairing(data, d_ab)
    if pairing[j0] != 1 or pairing[j0p] != 1:
        raise OrbitInvariantError(
            f"degree pairings at the endpoints are {pairing[j0]}, {pairing[j0p]}, expected 1"
        )
    for j in set(alpha.J) & set(beta.J):
        if pairing[j] != 0:
            raise OrbitInvariantError(f"shared column {j + 1} pairs to {pairing[j]} != 0")
    for j in range(data.N):
        if alpha.u_monomials[j] / beta.u_monomials[j] != lam ** pairing[j]:
            raise OrbitInvariantError(
                f"U_{j + 1} monomials disagree with the character power rule"
            )
    if beta.u_monomials[j0p] != lam.inverse():
        raise OrbitInvariantError("the leaving character is not the inverse")


def all_orbits(data: ToricData) -> list[OrbitData]:
    out = []
    for fp in enumerate_fixed_points(data):
        for j0 in range(data.N):
            if j0 in fp.J:
                continue
            orbit = orbit_data(data, fp, j0)
            if orbit is not None:
                out.append(orbit)
    return out


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


def root_context(data: ToricData, orbit: OrbitData, m: int, seed: int,
                 index: int = 0) -> tuple[SampleContext, Fraction]:
    """A generic context in which the orbit character is the exact m-th power mu^m.

    One parameter with unit exponent in the character monomial is solved for;
    the remaining parameters and mu are random.  Only this rational branch of
    the m-th root is exercised.
    """
    exps = orbit.lambda_char.exps
    solve_j = next((j for j, e in enumerate(exps) if abs(e) == 1), None)
    if solve_j is None:
        raise InvalidModelError(
            "no unit exponent in the orbit character; cannot sample a rational root"
        )
    base = sample_context(data.N, seed, index)
    rng = random.Random(f"{seed}:{index}:root")
    mu = random_fraction(rng)
    rest = Fraction(1)
    for j, e in enumerate(exps):
        if j != solve_j and e:
            rest *= base.Lambda[j] ** e
    target = mu ** m
    value = target / rest if exps[solve_j] == 1 else rest / target
    lambdas = list(base.Lambda)
    lambdas[solve_j] = value
    if value == 0 or value == 1:
        raise DegenerateSampleError("solved parameter landed on a degenerate value")
    ctx = SampleContext(q=base.q, Lambda=tuple(lambdas), lam=base.lam, z=base.z,
                        seed=seed)
    assert orbit.lambda_char.evaluate(ctx.Lambda) == mu ** m
    return ctx, mu


def edge_euler_class(data: ToricData, orbit: OrbitData, m: int, ctx: SampleContext,
                     mu: Fraction) -> Fraction:
    """The recursion coefficient from the residue formula arrangement:

        C = phi^alpha * prod_{r=1}^{m-1} (1 - mu^r)
              * prod_{j != j0} [prod_{r<=m D_j(d_ab)} / prod_{r<=0}] (1 - mu^{-r} U_j(alpha)).

    The bracket is the reciprocal of the universal finite ratio evaluated at
    the root point q0 = 1/mu.
    """
    lam_val = orbit.lambda_char.evaluate(ctx.Lambda)
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
        fr = finite_ratio(uvals[j], m * pairing[j], q0)
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


def verify_residue_recursion(data: ToricData, alpha: FixedPoint, j0: int, m: int,
                             box: TruncationBox, seed: int, sample: int = 0,
                             resamples: list | None = None) -> dict:
    """Check, degree by degree, that the residue of the alpha component at the
    rational root point equals the shifted, rescaled beta component.

    The residue is read off the factored alpha coefficient.  The right-hand
    side evaluates the beta component at the numeric root point and uses the
    recursion coefficient, whose two computations must also agree.  Root
    points come from ``root_context``, sampled as in ``with_resampling``.
    """
    orbit = orbit_data(data, alpha, j0)
    if orbit is None:
        raise ValueError(f"no orbit leaves {alpha.J} in direction {j0 + 1}")
    return with_resampling(lambda index: root_context(data, orbit, m, seed, index),
                           lambda root: _check_recursion(data, orbit, m, box, *root),
                           resamples=resamples, sample=sample)[0]


def _check_recursion(data: ToricData, orbit: OrbitData, m: int,
                     box: TruncationBox, ctx: SampleContext, mu: Fraction) -> dict:
    q0 = 1 / mu
    alpha_series = component_series(data, orbit.alpha, box, ctx, symbolic_q=True)
    beta_series = component_series(data, orbit.beta, box, ctx.with_q(q0))
    c_residue = edge_euler_class(data, orbit, m, ctx, mu)
    c_forms = edge_euler_class_from_forms(data, orbit, m, ctx, mu)
    phi = cotangent_euler(data, orbit.alpha, ctx)
    prefactor = -Fraction(1, m) * phi / c_residue
    shift = tuple(m * x for x in orbit.d_ab)
    rows = []
    ok = True
    for d in box.degrees:
        coeff = alpha_series.coefficient(d)
        lhs = coeff.residue(q0) if isinstance(coeff, BinomialProduct) else Fraction(0)
        prev = tuple(x - y for x, y in zip(d, shift))
        rhs = prefactor * beta_series.coefficient(prev)
        ok = ok and lhs == rhs
        rows.append({
            "degree": list(d),
            "lhs": str(lhs),
            "rhs": str(rhs),
            "ok": lhs == rhs,
        })
    return {
        "alpha": [j + 1 for j in orbit.alpha.J],
        "beta": [j + 1 for j in orbit.beta.J],
        "j0": orbit.j0 + 1,
        "j0_prime": orbit.j0_prime + 1,
        "d_ab": list(orbit.d_ab),
        "m": m,
        "mu": str(mu),
        "euler_class": str(c_residue),
        "euler_class_oracle": str(c_forms),
        "euler_oracle_agrees": c_residue == c_forms,
        "ok": ok and c_residue == c_forms,
        "degrees": rows,
    }
