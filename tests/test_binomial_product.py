"""Products of binomials 1 - q^r u at a root point against the dense route.

The library reads a residue at q0 from leading terms: each factor 1 - q^r u
is an order in eps = q/q0 - 1 and a lead (``root_factor``), and
``root_table`` (the tests' oracle) runs the same product as ``ratio_table``
over them.  The dense route (``dense_oracle``) expands the same coefficient
into one unreduced ratio of polynomials, divides q - q0 out of both sides
while both vanish there and reads the pole's order from what is left, so it
is an independent oracle for every residue the recursion takes.
"""

import random
from fractions import Fraction

import pytest

from dense_oracle import Ratio, finite_ratio_sym, residue_at
from ratio_oracle import divide, root_table
from qtoric.models import hirzebruch
from qtoric.recursion import all_orbits, root_context
from qtoric.scalars import (
    DoublePoleError,
    LeadingTerm,
    PoleError,
    ratio_table,
    sample_context,
)
from qtoric.series import component_residues, truncation_box
from qtoric.toric import ToricData, degree_pairing

F3 = ToricData(m=((1, 1, 0, -3), (0, 0, 1, 1)), omega=(Fraction(1), Fraction(1)), name="f3")


def dense_coefficient(data, fp, d, ctx) -> Ratio:
    """The component coefficient at d as one rational function of q."""
    out = Ratio([1])
    for u, depth in zip(fp.u_values(ctx.Lambda), degree_pairing(data, d)):
        out = out * finite_ratio_sym(u, depth)
    return out


def outcome(fn):
    """The value of fn(), or the class of the error it raised."""
    try:
        return fn()
    except (DoublePoleError, PoleError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", ["f1", "f3"])
def test_residue_matches_dense_oracle(name, m):
    data = {"f1": hirzebruch(), "f3": F3}[name]
    box = truncation_box(data, 3)
    simple = 0
    # One edge per fixed point: the edges out of one alpha share its
    # coefficients and differ only in the root point.
    for orbit in {o.alpha.J: o for o in all_orbits(data)}.values():
        ctx, mu = root_context(data, orbit, m, seed=11)
        q0 = 1 / mu
        expected = {}
        for d in box.degrees:
            dense = dense_coefficient(data, orbit.alpha, d, ctx)
            expected[d] = outcome(lambda: residue_at(dense, q0))
            # The library route on a box of this one degree.
            alone = box._replace(degrees=(d,))
            got = outcome(lambda: component_residues(data, orbit.alpha, alone, ctx, q0))
            got = got if isinstance(got, type) else got.get(d, 0)
            assert got == expected[d], (name, m, orbit.alpha.J, d)
            simple += expected[d] not in (0, DoublePoleError)
        whole = outcome(lambda: component_residues(data, orbit.alpha, box, ctx, q0))
        if DoublePoleError in expected.values():
            assert whole is DoublePoleError
        else:
            assert {d: whole.get(d, 0) for d in box.degrees} == expected
    assert simple > 0


def test_double_pole_raises_on_both_routes():
    q0 = Fraction(1, 2)
    # 1/(1 - 2q) and 1/((1 - 4q)(1 - 4q^2)): 1 - 2q and 1 - 4q^2 vanish at q = 1/2.
    leading = LeadingTerm(0, Fraction(3)) * root_table(2, (1,), q0)[1] * root_table(4, (2,), q0)[2]
    dense = Ratio([3]) * finite_ratio_sym(2, 1) * finite_ratio_sym(4, 2)
    assert leading.order == -2
    with pytest.raises(DoublePoleError):
        leading.residue()
    with pytest.raises(DoublePoleError):
        residue_at(dense, q0)
    with pytest.raises(PoleError):
        ratio_table(2, (1,), q0)


def test_random_products_match_dense_oracle():
    # Finite ratios at depths -3..3, each a run of factors 1 - q^r u, with u
    # often an inverse power of q0 inside the run, so that poles, removable
    # singularities and zeros of every order turn up; u = 1 at a negative
    # depth is the kill rule's exact zero.
    rng = random.Random(3)
    q0 = Fraction(-2, 3)
    seen = set()
    for _ in range(200):
        triples = []
        for _ in range(rng.randint(1, 4)):
            depth = rng.choice([-3, -2, -1, 1, 2, 3])
            run = range(1, depth + 1) if depth > 0 else range(depth + 1, 1)
            u = 1 / q0 ** rng.choice(run) if rng.random() < 0.5 else Fraction(rng.randint(2, 9), 7)
            triples.append((depth, u, rng.choice([1, -1])))

        def leading():
            out = LeadingTerm(0, Fraction(5, 3))
            for depth, u, e in triples:
                term = root_table(u, (depth,), q0)[depth]
                out = out * term if e > 0 else divide(out, term)
            return out.residue()

        def dense():
            out = Ratio([Fraction(5, 3)])
            for depth, u, e in triples:
                ratio = finite_ratio_sym(u, depth)
                out = out * ratio if e > 0 else out / ratio
            return residue_at(out, q0)

        res = outcome(leading)
        assert res == outcome(dense), triples
        seen.add(res if res in (0, DoublePoleError, ZeroDivisionError) else "simple")
    assert {0, DoublePoleError, "simple"} <= seen


def test_root_table_at_generic_q_matches_ratio_table():
    # Where no factor vanishes every entry is order 0 with the numeric value.
    for seed in range(5):
        ctx = sample_context(4, seed)
        for u in ctx.Lambda:
            depths = range(-4, 5)
            leading = root_table(u, depths, ctx.q)
            numeric = ratio_table(u, depths, ctx.q)
            assert leading.keys() == numeric.keys()
            for depth, term in leading.items():
                assert term == LeadingTerm(0, numeric[depth]), (u, depth)


def test_kill_rule_and_arithmetic():
    q0 = Fraction(3, 5)
    # r = 0, u = 1: the ratio at every negative depth is exactly zero, even
    # beside a pole, and so is its residue.
    zero = root_table(1, (-2,), q0)[-2]
    assert zero.lead == 0 and zero.residue() == 0
    pole = root_table(1 / q0, (1,), q0)[1]
    assert pole == LeadingTerm(-1, Fraction(-1))
    assert (zero * pole).residue() == 0
    assert pole.residue() == -1
    # Orders add and leads multiply.
    a, b = LeadingTerm(-1, Fraction(2, 7)), LeadingTerm(2, Fraction(-3, 4))
    assert a * b == LeadingTerm(1, Fraction(-3, 14))
    assert (a * b).residue() == 0 and a.residue() == Fraction(2, 7)
    with pytest.raises(DoublePoleError):
        LeadingTerm(-3, Fraction(-8, 21)).residue()
