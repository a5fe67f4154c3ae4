"""Fraction routes for the tests: localization sums, fixed-point values and
class expressions, and the extended model of a space of degree-d spheres.

``qtoric.localization`` builds each residue term from ints over the sample's
common denominator and normalises it once, ``qtoric.toric._weighted_sums``
sums integer numerators, and ``qtoric.exprs`` compiles a class expression
into closures at parse.  These are the ``Fraction`` routines they replaced,
kept as an independent route: every step is a ``Fraction`` operation, and an
expression is read by walking its tree.  The integrals divide each term by
the tangent Euler class alone, as the library does.  ``map_space_model``
builds the extended model whose obstructions this ``map_space_integral``
reads; the library reads them off the degree pairing.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from qtoric.exprs import ExprError, ZeroDivisorError
from qtoric.scalars import PoleError, SampleContext
from qtoric.toric import (
    FixedPoint,
    ToricData,
    degree_pairing,
    enumerate_fixed_points,
    integral_degree,
)

# -- toric: the additive fixed-point values ----------------------------------


def _weighted_sums(monomials: Sequence[Sequence[int]], values: Sequence) -> tuple[Fraction, ...]:
    """Each monomial's exponent vector as integer weights on ``values``."""
    return tuple(sum((e * v for e, v in zip(mon, values) if e), Fraction(0))
                 for mon in monomials)


def equivariant_p_values(data: ToricData, fp: FixedPoint,
                         lambdas: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _weighted_sums(fp.p_monomials, lambdas)


def divisor_values(data: ToricData, fp: FixedPoint,
                   lambdas: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _weighted_sums(fp.u_monomials, lambdas)


# -- exprs: the tree walk ------------------------------------------------------

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def _value(node: ast.expr, env: Mapping[str, Fraction]) -> Fraction:
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_value(node.left, env), _value(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return -_value(node.operand, env)
    if isinstance(node, ast.Constant):
        return Fraction(node.value)
    try:
        return Fraction(env[node.id])
    except KeyError:
        raise ExprError(f"unknown symbol '{node.id}'", 0) from None


def evaluate_tree(tree: ast.expr, env: Mapping[str, Fraction]) -> Fraction:
    """``Expression.evaluate`` by the tree walk, with the same errors."""
    try:
        return _value(tree, env)
    except RecursionError:
        raise ExprError("expression nested too deeply", 0) from None
    except ZeroDivisionError:  # a / 0 or 0^-k
        raise ZeroDivisorError("division by zero in class expression") from None


# -- the extended model of a space of degree-d spheres ---------------------------


@dataclass(frozen=True)
class ExtendedModel:
    """Quotient data for a space of degree-d spheres.

    Columns repeat each u_j once per copy in ``copies`` (pairs (j, r)), and
    ``labels`` names each copy's parameter, L{j+1} shifted by r z;
    ``obstructions`` lists the (j, r) factors that a
    negative intersection index moves into the numerator of the integration
    formula, where they represent the obstruction-bundle Euler class.
    """

    data: ToricData
    degree: tuple[int, ...]
    copies: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    obstructions: tuple[tuple[int, int], ...]


def map_space_model(data: ToricData, d: Sequence[int]) -> ExtendedModel:
    """Extend the model by D_j(d) shifted copies of each column.

    Copy count per column is max(D_j(d), 0) + 1 with labels shifted by r*z;
    for D_j(d) < 0 the missing factors are recorded as obstruction metadata.
    """
    pairing = degree_pairing(data, d)
    d = integral_degree(d)
    columns: list[tuple[int, ...]] = []
    labels: list[str] = []
    copies: list[tuple[int, int]] = []
    obstructions: list[tuple[int, int]] = []
    for j in range(data.N):
        base = f"L{j+1}"
        for r in range(max(pairing[j], 0) + 1):
            columns.append(data.columns[j])
            if r == 0:
                labels.append(base)
            else:
                labels.append(f"{base}+z" if r == 1 else f"{base}+{r}z")
            copies.append((j, r))
        if pairing[j] < 0:
            for r in range(1, -pairing[j] + 1):
                obstructions.append((j, r))
    extended = ToricData(
        m=tuple(tuple(col[i] for col in columns) for i in range(data.K)),
        omega=data.omega,
        name=f"{data.name}[d={d}]" if data.name else "",
    )
    return ExtendedModel(
        data=extended,
        degree=d,
        copies=tuple(copies),
        labels=tuple(labels),
        obstructions=tuple(obstructions),
    )


# -- localization: the sums ----------------------------------------------------


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
    """sum_alpha phi(p(alpha), lambda) / prod_{j not in J} u_j(p(alpha)): the
    tangent Euler class at alpha alone in each denominator."""
    total = Fraction(0)
    for fp in enumerate_fixed_points(data):
        pvals = equivariant_p_values(data, fp, ctx.Lambda)
        dvals = divisor_values(data, fp, ctx.Lambda)
        denom = Fraction(1)
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
            s = [sum(mon[j] * r for j, r in chosen) for mon in fp.p_monomials]
            pstar = [p + si * ctx.z for p, si in zip(pvals, s)]
            ustar = [u + sum(si * row[j] for si, row in zip(s, data.m)) * ctx.z
                     for j, u in enumerate(dvals)]
            numerator = _evaluate(phi, _class_env(data, ctx, pstar, "p", "l"))
            for j, r in extended.obstructions:
                numerator *= ustar[j] + r * ctx.z
            denom = Fraction(1)
            for j, r in denominator_copies:
                if (j, r) in chosen:
                    continue
                factor = ustar[j] - r * ctx.z
                if factor == 0:
                    raise PoleError(r, factor)
                denom *= factor
            total += numerator / denom
    return total
