"""The factored symbolic-q coefficients against the dense rational-function route.

``BinomialProduct`` reads pole orders and residues off its binomial factors.
The dense ``QRational`` route expands the same coefficient into a reduced
ratio of polynomials and finds the pole by polynomial division, so it is an
independent oracle for every residue the recursion takes.
"""

import random
from fractions import Fraction

import pytest

from qtoric.models import hirzebruch, load_bundled_model, projective_space
from qtoric.recursion import all_orbits, root_context
from qtoric.scalars import (
    BinomialProduct,
    DoublePoleError,
    PoleError,
    QRational,
    finite_ratio_sym,
    q_factor,
    residue_at,
    sample_context,
)
from qtoric.series import NovikovSeries, adams, component_series, truncation_box
from qtoric.toric import ToricData, degree_pairing, enumerate_fixed_points

F3 = ToricData(m=((1, 1, 0, -3), (0, 0, 1, 1)), omega=(Fraction(1), Fraction(1)), name="f3")


def dense_coefficient(data, fp, d, ctx, bundle=None) -> QRational:
    """The component coefficient at d as one reduced rational function of q."""
    uvals = fp.u_values(ctx.Lambda)
    out = QRational.constant(1)
    for u, depth in zip(uvals, degree_pairing(data, d)):
        out = out * finite_ratio_sym(u, depth)
    if bundle is not None:
        fibers = bundle.fiber_values(fp.p_values(ctx.Lambda))
        for fiber, delta in zip(fibers, bundle.delta(d)):
            fr = finite_ratio_sym(ctx.lam * fiber, delta)
            out = out * fr if bundle.parity == "E" else out / fr
    return out


def outcome(fn):
    """The value of fn(), or the class of the pole error it raised."""
    try:
        return fn()
    except (DoublePoleError, PoleError) as exc:
        return type(exc)


def oracle_model(name):
    if name == "p2_o1_o2_pi":
        model = load_bundled_model(name)
        return model.data, model.bundle
    return {"f1": hirzebruch(), "f3": F3}[name], None


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", ["f1", "f3", "p2_o1_o2_pi"])
def test_residue_matches_dense_oracle(name, m):
    data, bundle = oracle_model(name)
    box = truncation_box(data, 3)
    residues = 0
    # One edge per fixed point: the edges out of one alpha share its
    # coefficients and differ only in the root point.
    for orbit in {o.alpha.J: o for o in all_orbits(data)}.values():
        ctx, mu = root_context(data, orbit, m, seed=11)
        q0 = 1 / mu
        factored = component_series(data, orbit.alpha, box, ctx, bundle, symbolic_q=True)
        numeric = component_series(data, orbit.alpha, box, ctx, bundle)
        for d in box.degrees:
            dense = dense_coefficient(data, orbit.alpha, d, ctx, bundle)
            coeff = factored.coefficient(d)
            if dense.is_zero:
                assert coeff == 0, d
                continue
            assert coeff.evaluate(ctx.q) == dense.evaluate(ctx.q) == numeric.coefficient(d)
            res = outcome(lambda: coeff.residue(q0))
            assert res == outcome(lambda: residue_at(dense, q0)), (name, d)
            residues += res not in (0, DoublePoleError)
    assert residues > 0


def test_double_pole_raises_on_both_routes():
    q0 = Fraction(1, 2)
    # 1 - 2q and 1 - 4q^2 both vanish at q = 1/2.
    factored = BinomialProduct(3, [(1, 2, -1), (2, 4, -1)])
    dense = QRational.constant(3) / (q_factor(1, 2) * q_factor(2, 4))
    with pytest.raises(DoublePoleError):
        factored.residue(q0)
    with pytest.raises(DoublePoleError):
        residue_at(dense, q0)
    with pytest.raises(PoleError):
        factored.evaluate(q0)


def test_random_products_match_dense_oracle():
    # Exponents on r in -3..3, with u often chosen to vanish at q0, so that
    # poles, removable singularities and zeros of every order turn up.
    rng = random.Random(3)
    q0 = Fraction(-2, 3)
    seen = set()
    for _ in range(200):
        triples = []
        for _ in range(rng.randint(1, 4)):
            r = rng.choice([-3, -2, -1, 1, 2, 3])
            u = 1 / q0 ** r if rng.random() < 0.5 else Fraction(rng.randint(2, 9), 7)
            triples.append((r, u, rng.choice([1, -1])))
        factored = BinomialProduct(Fraction(5, 3), triples)
        dense = QRational.constant(Fraction(5, 3))
        for r, u, e in triples:
            dense = dense * q_factor(r, u) if e > 0 else dense / q_factor(r, u)
        res = outcome(lambda: factored.residue(q0))
        assert res == outcome(lambda: residue_at(dense, q0)), triples
        assert outcome(lambda: factored.evaluate(q0)) == outcome(lambda: dense.evaluate(q0))
        seen.add(res if res in (0, DoublePoleError) else "simple")
    assert seen == {0, DoublePoleError, "simple"}


def test_kill_rule_and_arithmetic():
    assert BinomialProduct.finite_ratio(1, -2).is_zero
    assert not BinomialProduct.finite_ratio(Fraction(1, 3), -2).is_zero
    a = BinomialProduct.finite_ratio(Fraction(2, 5), 3)
    b = BinomialProduct.finite_ratio(Fraction(7, 4), -2)
    q = Fraction(-3, 11)
    assert (a * b).evaluate(q) == a.evaluate(q) * b.evaluate(q)
    assert (a / b).evaluate(q) == a.evaluate(q) / b.evaluate(q)
    assert (a / a).evaluate(q) == 1
    assert BinomialProduct.finite_ratio(1, 0).evaluate(q) == 1
    assert not hasattr(a, "__add__")
    with pytest.raises(TypeError):
        a * Fraction(2)
    assert not hasattr(a, "numerator") and not hasattr(a, "denominator")


@pytest.mark.parametrize("data", [projective_space(1), hirzebruch()], ids=["p1", "f1"])
def test_adams_matches_dense_power_substitution(data):
    box = truncation_box(data, 4)
    ctx = sample_context(data.N, 97)
    for fp in enumerate_fixed_points(data):
        factored = component_series(data, fp, box, ctx, symbolic_q=True)
        dense = NovikovSeries(box, {d: dense_coefficient(data, fp, d, ctx)
                                    for d in box.degrees})
        left = adams(factored, 2)
        # The dense side maps q -> q^2 by power substitution, Q^d -> Q^{2d}.
        right = {kd: c.subst_power(2) for d, c in dense.coeffs.items()
                 if box.contains(kd := tuple(2 * x for x in d))}
        assert set(left.coeffs) == set(right)
        assert left.coeffs
        for d, c in left.coeffs.items():
            assert c.evaluate(ctx.q) == right[d].evaluate(ctx.q)
            half = tuple(x // 2 for x in d)
            assert c.evaluate(ctx.q) == factored.coeffs[half].evaluate(ctx.q ** 2)
