"""The Mori cone by facet normals against the brute-force Caratheodory oracle.

``qtoric.toric`` decides membership by the integer facet normals of the
effective-curve cone; ``cone_oracle`` searches generator subsets.  The
del Pezzo surface dP6 is the model whose cone is strictly larger than the
union of its fixed points' cones, and Hypothesis draws Hirzebruch surfaces,
projective bundles over P^1 and P^2 and their products.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_oracle import extreme_rays, in_cone, primitive
from qtoric import toric
from qtoric.series import truncation_box
from qtoric.toric import (
    InvalidModelError,
    ToricData,
    box_degrees,
    degree_pairing,
    enumerate_fixed_points,
    mori_cone_membership,
    mori_generators,
)


def raw_generators(data):
    return toric._mori_generators_raw(data)


def pairing(ample, d):
    return sum(Fraction(a) * x for a, x in zip(ample, d))


def oracle_box(data, ample, bound, member=None):
    """Effective degrees up to ``bound`` from the symmetric candidate box.

    |d_i| <= bound * max_g |g_i| / <ample, g> holds for every effective d, so
    the box is complete without any one-sided refinement; the oracle filters.
    """
    gens = raw_generators(data)
    member = member if member is not None else (lambda d: in_cone(gens, d))
    limits = [max(Fraction(abs(g[i])) / pairing(ample, g) for g in gens) * bound
              for i in range(data.K)]
    grid = product(*[range(-int(lim), int(lim) + 1) for lim in limits])
    found = [d for d in grid if pairing(ample, d) <= bound and member(d)]
    return sorted(found, key=lambda d: (pairing(ample, d), d))


def test_dp6_cone_shape(dp6):
    assert len(enumerate_fixed_points(dp6)) == 6
    assert len(raw_generators(dp6)) == 9
    assert len(toric._mori_facets(dp6)) == 5


def test_dp6_membership_matches_oracle(dp6):
    gens = raw_generators(dp6)
    grid = list(product(range(-2, 3), repeat=4))
    memberships = [mori_cone_membership(dp6, d) for d in grid]
    assert [overall for overall, _ in memberships] == [in_cone(gens, d) for d in grid]
    # Effective degrees that no single fixed point's cone holds.
    hull_only = [d for d in product(range(-1, 3), repeat=4)
                 if mori_cone_membership(dp6, d) == (True, (False,) * 6)]
    assert len(hull_only) == 39
    assert all(in_cone(gens, d) for d in hull_only)


def test_dp6_box_degrees_match_oracle(dp6):
    gens = raw_generators(dp6)
    seen = {}

    def member(d):
        if d not in seen:
            seen[d] = in_cone(gens, d)
        return seen[d]

    for bound in range(4):
        assert box_degrees(dp6, dp6.omega, bound) == oracle_box(dp6, dp6.omega, bound, member)


def test_dp6_mori_generators_are_the_minus_one_curves(dp6):
    rays = mori_generators(dp6)
    assert rays == extreme_rays(raw_generators(dp6))
    # The curve of the j-th hexagon divisor meets itself in -1 and its two
    # neighbours in +1.
    minus_one_curves = set()
    for j in range(6):
        pairing_j = [0] * 6
        pairing_j[j], pairing_j[(j - 1) % 6], pairing_j[(j + 1) % 6] = -1, 1, 1
        minus_one_curves.add(tuple(pairing_j))
    assert {degree_pairing(dp6, ray) for ray in rays} == minus_one_curves


def test_oracle_in_cone_basics(p1xp1):
    gens = [(1, 0), (0, 1)]
    cases = {(3, 5): True, (0, 0): True, (-1, 2): False, (4, 0): True}
    for target, expected in cases.items():
        assert in_cone(gens, target) is expected
        # P^1 x P^1 has exactly this cone.
        assert mori_cone_membership(p1xp1, target)[0] is expected


def test_oracle_in_cone_needs_combination(dp6):
    # (1, 1) needs both generators of a non-orthant cone
    gens = [(2, 1), (1, 2)]
    assert in_cone(gens, (1, 1))
    assert not in_cone(gens, (1, 0))
    # On dP6, (-1, 1, 1, 1) is a sum of generators of different fixed points.
    overall, flags = mori_cone_membership(dp6, (-1, 1, 1, 1))
    assert overall and not any(flags)
    assert in_cone(raw_generators(dp6), (-1, 1, 1, 1))
    assert not any(in_cone(fp.degree_generators, (-1, 1, 1, 1))
                   for fp in enumerate_fixed_points(dp6))


def test_cone_normals_and_rays_are_primitive(all_models, dp6):
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((3,)) == (1,)
    for data in all_models + [dp6]:
        for vec in toric._mori_facets(data) + tuple(mori_generators(data)):
            assert primitive(vec) == vec


def test_mori_generators_drop_interior(all_models, dp6):
    assert sorted(extreme_rays([(1, 0), (0, 1), (1, 1), (2, 0)])) == [(0, 1), (1, 0)]
    for data in all_models + [dp6]:
        assert mori_generators(data) == extreme_rays(raw_generators(data))
    # dP6 has 9 generators, 3 of them inside the cone.
    assert len(raw_generators(dp6)) - len(mori_generators(dp6)) == 3


def test_generators_must_span(monkeypatch):
    flat = ToricData(m=((1, 1, 0, 0), (0, 0, 1, 1)), omega=(1, 1), name="flat-generators")
    monkeypatch.setattr(toric, "_mori_generators_raw", lambda data: ((1, 1), (2, 2)))
    with pytest.raises(InvalidModelError, match="span"):
        toric._mori_facets(flat)


@pytest.mark.parametrize("bound", [2, -1])
def test_one_ample_check_for_both_entry_points(f1, bound):
    ample = (Fraction(1), Fraction(-5))
    with pytest.raises(InvalidModelError) as direct:
        box_degrees(f1, ample, bound)
    with pytest.raises(InvalidModelError) as boxed:
        truncation_box(f1, bound, ample)
    assert str(direct.value) == str(boxed.value)
    assert "ample class must pair positively" in str(direct.value)


# Generated families.


def hirzebruch_rows(a):
    return ((1, 1, 0, -a), (0, 0, 1, 1))


def projective_bundle_rows(n, a):
    """P(O + O(a)) over P^n."""
    return ((1,) * (n + 1) + (0, -a), (0,) * (n + 1) + (1, 1))


def product_rows(first, second):
    """The charge matrix of a product: the two matrices block-diagonally."""
    return (tuple(row + (0,) * len(second[0]) for row in first)
            + tuple((0,) * len(first[0]) + row for row in second))


factors = st.one_of(
    st.integers(0, 6).map(hirzebruch_rows),
    st.builds(projective_bundle_rows, st.integers(1, 2), st.integers(0, 4)),
)
models = st.one_of(factors, st.tuples(factors, factors).map(lambda f: product_rows(*f)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rows=models, bound=st.integers(0, 3))
def test_generated_models_match_oracle(rows, bound):
    data = ToricData(m=rows, omega=(1,) * len(rows))
    gens = raw_generators(data)
    reach = 2 if data.K == 2 else 1
    for d in product(range(-reach, reach + 1), repeat=data.K):
        assert mori_cone_membership(data, d)[0] == in_cone(gens, d)
    if data.K == 4:
        bound = min(bound, 2)
    assert box_degrees(data, data.omega, bound) == oracle_box(data, data.omega, bound)

