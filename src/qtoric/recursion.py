"""One-dimensional orbits and the simple-pole residue recursion.

Choosing a direction j0 off a fixed point alpha singles out an invariant
sphere to a second fixed point beta: an edge of ``toric.fixed_point_graph``,
checked as it is handed out.  Away from roots of unity the component series
at alpha has simple poles in q at the inverse roots of the cotangent
character of that sphere, and their residues are proportional to the beta
component; the proportionality constant is the equivariant Euler class of the
virtual cotangent space at the multiple cover, computed here along two
independent routes that must agree: the residue arrangement and the weights
of binary forms.  Each route is a product of int pairs normalised once, into
one ``Fraction``; both, and the residue walk, read alpha's U values, which
each edge evaluates once at its root context.  The residue arrangement takes
phi^alpha from ``scalars.cotangent_pair``, the kernel the K-theoretic trace
divides by, so the forms route checks that kernel too.

The residues of the alpha component are read from the leading terms of its
coefficients at the root point (``series.component_residues``): a factor
1 - q^r u that vanishes there contributes one order, so the pole order is a
count and the residue is the product of the leads.  The beta side is
evaluated at the numeric root point, an independent route, and read by key
at d - m d_ab: that degree pairs below the bound with the ample class, so
off the box it is not effective and its coefficient is an exact zero.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .scalars import (
    DegenerateSampleError,
    PoleError,
    SampleContext,
    cotangent_pair,
    power_product,
    random_fraction,
    ratio_factor,
    sample_context,
    with_resampling,
)
from .series import TruncationBox, component_residues, component_series
from .toric import (
    FixedPoint,
    OrbitInvariantError,
    ToricData,
    degree_pairing,
    enumerate_fixed_points,
    fixed_point_graph,
)


class OrbitData(NamedTuple):
    """An alpha -> beta edge of the fixed-point graph.

    ``j0`` enters (j0 not in J(alpha)), ``j0_prime`` leaves, ``d_ab`` is the
    degree of the connecting sphere and ``lambda_char`` the cotangent character
    U_{j0}(alpha) at the alpha end, as the exponent tuple of a Laurent monomial
    in the equivariant parameters.
    """

    alpha: FixedPoint
    beta: FixedPoint
    j0: int
    j0_prime: int
    d_ab: tuple[int, ...]
    lambda_char: tuple[int, ...]


def orbit_data(data: ToricData, alpha: FixedPoint, j0: int) -> OrbitData | None:
    """The orbit leaving alpha in direction j0, or None if there is none."""
    if j0 in alpha.J:
        raise ValueError(f"column {j0 + 1} lies on the fixed point already")
    edge = fixed_point_graph(data).get((alpha.J, j0))
    if edge is None:
        return None
    alpha, beta, j0p = edge
    # d_ab is beta's dual-cone generator at j0: D_{j0} = 1, D = 0 on the wall.
    orbit = OrbitData(alpha=alpha, beta=beta, j0=j0, j0_prime=j0p,
                      d_ab=beta.q_monomials[beta.J.index(j0)],
                      lambda_char=alpha.u_monomials[j0])
    _validate_orbit(data, orbit)
    return orbit


def _validate_orbit(data: ToricData, orbit: OrbitData) -> None:
    """D_{j0'}(d_ab) = 1 and U_j(alpha) / U_j(beta) = char^{D_j(d_ab)} for all j;
    D_{j0} = 1 and D = 0 on the shared wall hold as d_ab is a row of beta's
    inverse, and the rule at j0' gives U_{j0'}(beta) = char^-1."""
    pairing = degree_pairing(data, orbit.d_ab)
    if pairing[orbit.j0_prime] != 1:
        raise OrbitInvariantError(
            f"degree pairing at the leaving column is {pairing[orbit.j0_prime]}, expected 1")
    for j, (a, b) in enumerate(zip(orbit.alpha.u_monomials, orbit.beta.u_monomials)):
        if any(x - y != e * pairing[j] for x, y, e in zip(a, b, orbit.lambda_char)):
            raise OrbitInvariantError(
                f"U_{j + 1} monomials disagree with the character power rule")


def all_orbits(data: ToricData) -> list[OrbitData]:
    """Every edge of the fixed-point graph, from each fixed point's bounded ``edges``."""
    return [orbit_data(data, fp, j0) for fp in enumerate_fixed_points(data)
            for j0, j0p in fp.edges if j0p is not None]


def root_context(data: ToricData, orbit: OrbitData, m: int, seed: int,
                 index: int = 0) -> tuple[SampleContext, Fraction]:
    """A generic context in which the orbit character is the exact m-th power mu^m.

    The first parameter with unit exponent in the character monomial is
    solved for in the shared draw ``sample_context(N, seed, index)``; the
    remaining parameters come from that draw and mu is drawn per edge.  One
    exists, since j0 is not in J(alpha) and so U_{j0}(alpha) has exponent -1
    at Lambda_{j0}.  Only this rational branch of the m-th root is exercised.
    """
    exps = orbit.lambda_char
    solve_j = next(j for j, e in enumerate(exps) if abs(e) == 1)
    base = sample_context(data.N, seed, index)
    mu = random_fraction(random.Random(f"{seed}:{index}:root"))
    # Lambda_s times t moves the character by t^{+-1}; a nonzero ratio, so value != 0.
    value = base.Lambda[solve_j] * (mu ** m / power_product(base.Lambda, exps)) ** exps[solve_j]
    if value == 1:
        raise DegenerateSampleError("solved parameter landed on a degenerate value")
    lambdas = list(base.Lambda)
    lambdas[solve_j] = value
    return base._replace(Lambda=tuple(lambdas)), mu


def edge_euler_class(data: ToricData, orbit: OrbitData, m: int, u: tuple[Fraction, ...],
                     mu: Fraction) -> Fraction:
    """The recursion coefficient at alpha's U values ``u``, from the residue formula arrangement:

        C = phi^alpha * prod_{r=1}^{m-1} (1 - mu^r)
              * prod_{j != j0} [prod_{r<=m D_j(d_ab)} / prod_{r<=0}] (1 - mu^{-r} U_j(alpha)).

    phi^alpha is the trace's cotangent Euler class (``cotangent_pair``),
    which raises ``PoleError(0, 1)`` at U_j = 1 off J(alpha).  For mu = a/b,
    1 - mu^r is (b^r - a^r) / b^r, and the bracket of column j is the
    reciprocal of the universal ratio at q0 = 1/mu, from ``ratio_factor``'s
    pairs: their product over r = 1..m D_j, or the inverse product over
    r = m D_j + 1..0.  A vanishing factor with r > 0 raises there, as
    ``PoleError(r, U_j)``; one with r <= 0 is a zero of the ratio, a pole of
    its reciprocal, and raises ``PoleError(0, U_j)``.  Every factor is an int
    pair, normalised once.
    """
    a, b = mu.numerator, mu.denominator
    if u[orbit.j0] != mu ** m:
        raise ValueError("context does not realize the orbit character as mu^m")
    num, den = _phi_alpha(orbit, u)
    for r in range(1, m):
        ar, br = a ** r, b ** r
        if ar == br:
            raise DegenerateSampleError("mu is a root of unity")
        num, den = num * (br - ar), den * br
    q0 = 1 / mu
    pairing = degree_pairing(data, orbit.d_ab)
    for j, x in enumerate(u):
        if j == orbit.j0:
            continue
        factor = ratio_factor(x, q0)
        depth = m * pairing[j]
        for r in range(1, depth + 1):
            f, g = factor(r)
            num, den = num * f, den * g
        for r in range(depth + 1, 1):
            f, g = factor(r)
            if not f:
                raise PoleError(0, x)
            num, den = num * g, den * f
    return Fraction(num, den)


def _phi_alpha(orbit: OrbitData, u: tuple[Fraction, ...]) -> tuple[int, int]:
    """phi^alpha at alpha's U values ``u``: ``cotangent_pair`` on the entries off J(alpha)."""
    return cotangent_pair((x.numerator, x.denominator)
                          for j, x in enumerate(u) if j not in orbit.alpha.J)


def edge_euler_class_from_forms(data: ToricData, orbit: OrbitData, m: int,
                                u: tuple[Fraction, ...], mu: Fraction) -> Fraction:
    """Independent first-principles route at U values ``u``: weights of binary-form monomials.

    The pullback of each line U_j to the m-fold cover of the sphere has degree
    m D_j(d_ab); its section space contributes the weights U_j(alpha) mu^{-r},
    r = 0..m D_j, and for degree <= -2 the obstruction space contributes the
    inverse factors on the range m D_j + 1..-1.  The trivial summands of the
    cotangent representation and the reparameterization line account for
    exactly K + 1 trivial weights, which are removed rather than multiplied.
    A weight is an int pair: a e^r / (b c^r) for U_j(alpha) = a/b and
    mu = c/e (a c^-r / (b e^-r) for r < 0), trivial exactly when its two
    entries are equal, and the product of the factors 1 - w is normalised once.
    """
    c, e = mu.numerator, mu.denominator
    pairing = degree_pairing(data, orbit.d_ab)
    numerator: list[tuple[int, int]] = []
    denominator: list[tuple[int, int]] = []
    for j, x in enumerate(u):
        a, b = x.numerator, x.denominator
        top = m * pairing[j]
        if top >= 0:
            numerator += [(a * e ** r, b * c ** r) for r in range(top + 1)]
        else:
            denominator += [(a * c ** -r, b * e ** -r) for r in range(top + 1, 0)]
    trivial = sum(w == v for w, v in numerator)
    if trivial != data.K + 1:
        raise DegenerateSampleError(
            f"expected {data.K + 1} trivial weights, found {trivial}"
        )
    if any(w == v for w, v in denominator):
        raise DegenerateSampleError("trivial weight in the obstruction range")
    num = den = 1
    for w, v in numerator:
        if w != v:
            num, den = num * (v - w), den * v
    for w, v in denominator:
        num, den = num * v, den * (v - w)
    return Fraction(num, den)


def verify_residue_recursion(data: ToricData, orbit: OrbitData, m: int,
                             box: TruncationBox, seed: int, sample: int = 0,
                             resamples: list | None = None) -> dict:
    """Check, degree by degree along ``orbit``, that the residue of the alpha
    component at the rational root point equals the shifted, rescaled beta
    component.

    The residue is read from the alpha coefficient's leading term there.  The
    right-hand side evaluates the beta component at the numeric root point and
    uses the recursion coefficient, whose two computations must also agree.
    Root points come from ``root_context``, sampled as in ``with_resampling``.
    """
    return with_resampling(lambda index: root_context(data, orbit, m, seed, index),
                           lambda root: _check_recursion(data, orbit, m, box, *root),
                           resamples=resamples, sample=sample)[0]


def _check_recursion(data: ToricData, orbit: OrbitData, m: int,
                     box: TruncationBox, ctx: SampleContext, mu: Fraction) -> dict:
    q0 = 1 / mu
    beta = component_series(data, orbit.beta, box, ctx._replace(q=q0)).coeffs
    u = orbit.alpha.u_values(ctx.Lambda)
    c_residue = edge_euler_class(data, orbit, m, u, mu)
    c_forms = edge_euler_class_from_forms(data, orbit, m, u, mu)
    residues = component_residues(data, orbit.alpha, box, u, q0)
    # -(1/m) phi^alpha / C, normalised once.
    num, den = _phi_alpha(orbit, u)
    prefactor = Fraction(-num * c_residue.denominator, m * den * c_residue.numerator)
    shift = tuple(m * x for x in orbit.d_ab)
    zero = Fraction(0)
    rows = []
    ok = True
    for d in box.degrees:
        lhs = residues.get(d, zero)
        # d - shift pairs below the bound, so off the box it is not effective:
        # an exact zero, as is every box degree the series leaves out.
        source = beta.get(tuple(x - y for x, y in zip(d, shift)))
        rhs = zero if source is None else prefactor * source
        agree = lhs == rhs
        ok = ok and agree
        rows.append({"degree": list(d), "lhs": str(lhs), "rhs": str(rhs), "ok": agree})
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
