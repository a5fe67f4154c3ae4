"""The Mori cone by facet normals against the brute-force Caratheodory oracle.

``qtoric.toric`` decides membership by the integer facet normals of the
effective-curve cone; ``cone_oracle`` searches generator subsets.  The
del Pezzo surface dP6 is the model whose cone is strictly larger than the
union of its fixed points' cones, and Hypothesis draws Hirzebruch surfaces,
projective bundles over P^1 and P^2 and their products.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor, lcm
from unittest import mock

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



def sheared(rows, s):
    """The same model in the basis p_1, p_2 + s p_1: the charge matrix T M for
    T the shear of the first two rows.  Degrees change by T^-T, so the Mori
    generators gain negative coordinates; omega and ample classes change by T."""
    if len(rows) < 2:
        return rows
    return (rows[0], tuple(s * x + y for x, y in zip(rows[0], rows[1])), *rows[2:])


def candidate_rectangle(data, ample, bound):
    """Each coordinate's range from the Fraction ends bound' * g_i / <ample, g>,
    bound' the largest multiple of 1/scale at most ``bound`` (integral degrees
    pair with ``ample`` in multiples of 1/scale, scale the lcm of its denominators)."""
    scale = lcm(*(Fraction(a).denominator for a in ample))
    reach = Fraction(floor(Fraction(bound) * scale), scale)
    gens = raw_generators(data)
    ranges = []
    for i in range(data.K):
        ends = [reach * g[i] / pairing(ample, g) for g in gens]
        ranges.append(range(ceil(min(0, *ends)), floor(max(0, *ends)) + 1))
    return ranges


def recorded_box(data, ample, bound):
    """``box_degrees`` and the candidate ranges it enumerated."""
    seen = []

    def recording(*ranges):
        seen.append(ranges)
        return product(*ranges)
    with mock.patch.object(toric, "product", recording):
        degrees = box_degrees(data, ample, bound)
    return degrees, [list(r) for r in seen[0]] if seen else None


weight = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=models, shear=st.integers(-2, 2), weights=st.lists(weight, min_size=4, max_size=4),
       bound=st.fractions(min_value=0, max_value=Fraction(7, 2), max_denominator=4))
def test_fractional_ample_and_bound_match_oracle(rows, shear, weights, bound):
    # A positive ample class of the unsheared model pairs positively with its
    # generators, and so does its image under the shear with the new ones.
    k = len(rows)
    ample, omega = tuple(weights[:k]), (1,) * k
    if k >= 2:
        ample = (ample[0], shear * ample[0] + ample[1], *ample[2:])
        omega = (1, shear + 1, *omega[2:])
    data = ToricData(m=sheared(rows, shear), omega=omega)
    if k == 4:
        bound = min(bound, 1)
    degrees, ranges = recorded_box(data, ample, bound)
    assert degrees == oracle_box(data, ample, bound)
    if ranges is not None:
        assert ranges == [list(r) for r in candidate_rectangle(data, ample, bound)]


def test_fractional_bound_on_a_sheared_surface():
    # F_2 with p_2 + p_1 as second class: generators with negative
    # coordinates, so the lower end of a range is a ceil below 0, here of
    # -21/2 at the bound 7/2.
    data = ToricData(m=sheared(hirzebruch_rows(2), 1), omega=(1, 2))
    ample = (Fraction(3, 2), Fraction(11, 6))
    assert any(min(g) < 0 for g in raw_generators(data))
    for bound in (Fraction(7, 2), Fraction(5, 3), 3, 0):
        degrees, ranges = recorded_box(data, ample, bound)
        assert degrees == oracle_box(data, ample, bound)
        assert ranges == [list(r) for r in candidate_rectangle(data, ample, bound)]
    assert recorded_box(data, ample, Fraction(7, 2))[1][0][0] == -10
