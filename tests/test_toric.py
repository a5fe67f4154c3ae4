from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import dual_cone_flags, fixed_point
from linalg_oracle import determinant, minor, solve_square
from localization_oracle import map_space_model
from qtoric.models import projective_space
from qtoric.scalars import sample_context
from qtoric.toric import (
    InvalidModelError,
    NonRegularChamberError,
    NonSmoothModelError,
    ToricData,
    box_degrees,
    degree_pairing,
    enumerate_fixed_points,
    format_monomial,
    mori_cone_membership,
    mori_generators,
)


def subsets(data):
    return [fp.J for fp in enumerate_fixed_points(data)]


def test_f1_fixed_points(f1):
    assert subsets(f1) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_p1_fixed_points_and_p_values(p1):
    fps = enumerate_fixed_points(p1)
    assert [fp.J for fp in fps] == [(0,), (1,)]
    # P_1({1}) = L1, P_1({2}) = L2
    assert fps[0].p_monomials[0] == (1, 0)
    assert fps[1].p_monomials[0] == (0, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projective_space_count(n):
    assert len(enumerate_fixed_points(projective_space(n))) == n + 1


def test_f1_u_monomial_table(f1):
    # U_1 = P_1/L1, U_2 = P_1/L2, U_3 = P_2/L3, U_4 = P_2 P_1^{-1}/L4,
    # read off the matrix columns; restrictions below.
    assert f1.columns == ((1, 0), (1, 0), (0, 1), (-1, 1))
    alpha = fixed_point(f1, (0, 2))
    assert alpha.u_monomials[0] == (0, 0, 0, 0)
    assert alpha.u_monomials[1] == (1, -1, 0, 0)    # L1/L2
    assert alpha.u_monomials[2] == (0, 0, 0, 0)
    assert alpha.u_monomials[3] == (-1, 0, 1, -1)   # L3/(L1 L4)


def test_u_invariants_all_models(all_models):
    for data in all_models:
        for fp in enumerate_fixed_points(data):
            for j in range(data.N):
                # U_j = prod_i P_i^{m_ij} / L_j, evaluated on the stored P monomials
                exps = [0] * data.N
                for i in range(data.K):
                    for jj, e in enumerate(fp.p_monomials[i]):
                        exps[jj] += data.m[i][j] * e
                exps[j] -= 1
                assert tuple(exps) == fp.u_monomials[j]
                assert (fp.u_monomials[j] == (0,) * data.N) == (j in fp.J)


def test_smoothness_determinants(all_models):
    for data in all_models:
        for fp in enumerate_fixed_points(data):
            assert fp.det in (1, -1)


def test_non_smooth_rejected():
    data = ToricData(m=((1, 2),), omega=(Fraction(1),))
    with pytest.raises(NonSmoothModelError) as info:
        enumerate_fixed_points(data)
    assert info.value.det == 2


def test_non_regular_omega_rejected(f1):
    boundary = ToricData(m=f1.m, omega=(Fraction(0), Fraction(1)))
    with pytest.raises(NonRegularChamberError):
        enumerate_fixed_points(boundary)


def test_omega_on_a_cone_boundary_of_a_threefold_is_rejected():
    # F_1 x P^1 with omega = (0, 1, 1): on the boundary of cone (1, 3, 5)
    # (coefficients 0, 1, 1), and inside cone (1, 4, 5), so dropping the wall
    # check would return fixed points rather than raise.
    boundary = ToricData(m=((1, 1, 0, -1, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)),
                         omega=(0, 1, 1))
    with pytest.raises(NonRegularChamberError, match=r"wall of cone \(1, 3, 5\)"):
        enumerate_fixed_points(boundary)


# The matrix of tests/data/threefold7.model.  At omega = (3, 5, 7, 7) the
# minor on columns (1, 2, 3, 5) has coefficients (7, -4, 0, 5): omega lies
# outside that cone, not on its wall, and there are 10 fixed points.
THREEFOLD7 = ((1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0, 0),
              (1, 0, 0, 1, 0, 1, 0), (1, 0, 1, 0, 0, 0, 1))


def chamber_oracle(data):
    """The fixed points' subsets, or the error, from Fraction chamber coefficients.

    A wall comes before a non-smooth minor: a chamber point on a wall has no
    quotient to be smooth."""
    solved = [(subset, solve_square(minor(data, subset), data.omega))
              for subset in combinations(range(data.N), data.K)]
    solved = [(subset, coefficients) for subset, coefficients in solved if coefficients is not None]
    if any(min(coefficients) == 0 for _, coefficients in solved):
        return NonRegularChamberError
    out = [subset for subset, coefficients in solved if min(coefficients) > 0]
    if any(abs(determinant(minor(data, subset))) != 1 for subset in out):
        return NonSmoothModelError
    return out or NonRegularChamberError


def _with_omega(rows):
    """The matrix and an omega with one coordinate per row."""
    return st.tuples(st.just(rows), st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        min_size=len(rows), max_size=len(rows)))


@given(rows_omega=st.sampled_from([((1, 1, 0, -1), (0, 0, 1, 1)), ((1, 1, 0, -2), (0, 0, 1, 1)),
                                   ((1, 0, 1, 1), (0, 1, 1, 2)), ((2, 0, 1), (0, 1, 1)),
                                   THREEFOLD7]).flatmap(_with_omega))
@example(rows_omega=(THREEFOLD7, [3, 5, 7, 7]))
# omega is column 3, on the walls of cones (1, 3) and (2, 3), and cone (1, 2)
# is non-smooth: the wall is named, though the non-smooth subset comes first.
@example(rows_omega=(((2, 0, 1), (0, 1, 1)), [1, 1]))
@settings(max_examples=200, deadline=None)
def test_chamber_signs_on_integer_omega_match_fraction_coefficients(rows_omega):
    # omega with denominators, on walls, outside the chamber, on a non-smooth
    # minor and beside a cone it lies outside with a zero coefficient: the
    # scaled integer omega gives the same verdict.
    rows, omega = rows_omega
    data = ToricData(m=rows, omega=omega)
    expected = chamber_oracle(data)
    if isinstance(expected, list):
        assert [fp.J for fp in enumerate_fixed_points(data)] == expected
    else:
        with pytest.raises(expected):
            enumerate_fixed_points(data)


def test_degree_pairing_examples(f1, p1):
    assert degree_pairing(f1, (1, 0)) == (1, 1, 0, -1)
    assert degree_pairing(f1, (0, 0)) == (0, 0, 0, 0)
    assert degree_pairing(p1, (3,)) == (3, 3)
    with pytest.raises(InvalidModelError):
        degree_pairing(p1, (1, 2))


def test_a_non_integral_degree_is_refused_not_truncated(f1, p1):
    # Q^{3/2} is not a Novikov monomial: it is not read as Q^1.
    for data, d, text in ((p1, (Fraction(3, 2),), "3/2"), (p1, (Fraction(1, 2),), "1/2"),
                          (f1, (1, Fraction(-1, 3)), "1, -1/3"), (p1, (0.5,), "0.5")):
        for fn in (degree_pairing, map_space_model):
            with pytest.raises(ValueError, match=rf"^degree \({text}\) is not integral$"):
                fn(data, d)
    # An integral Fraction or float is the integer it equals.
    assert degree_pairing(p1, (Fraction(2),)) == degree_pairing(p1, (2.0,)) == (2, 2)
    assert degree_pairing(f1, (Fraction(1), 0)) == (1, 1, 0, -1)
    assert map_space_model(f1, (Fraction(1), Fraction(-1))) == map_space_model(f1, (1, -1))
    assert map_space_model(f1, (Fraction(1), 0)).data.name == "f1[d=(1, 0)]"


def test_degree_reencoding_identity(all_models):
    # Q^d = prod_{j in J} Q_j(alpha)^{D_j(d)} as exponent vectors, on a box.
    for data in all_models:
        test_degrees = [tuple(1 if i == k else 0 for i in range(data.K))
                        for k in range(data.K)]
        test_degrees += [tuple(range(1, data.K + 1)), tuple([-1] * data.K)]
        for fp in enumerate_fixed_points(data):
            pair_positions = list(fp.J)
            for d in test_degrees:
                pairing = degree_pairing(data, d)
                combo = [0] * data.K
                for pos, j in enumerate(pair_positions):
                    for i, e in enumerate(fp.q_monomials[pos]):
                        combo[i] += pairing[j] * e
                assert tuple(combo) == d


def test_mori_membership_f1(f1):
    assert mori_cone_membership(f1, (1, 0)) is True
    by_subset = dict(zip(subsets(f1), dual_cone_flags(f1, (1, 0))))
    assert by_subset[(0, 2)] is True
    assert by_subset[(1, 3)] is False  # D_4 = -1 there
    assert mori_cone_membership(f1, (0, 0)) is True
    assert dual_cone_flags(f1, (0, 0)) == (True,) * 4


def test_mori_membership_negative(p1):
    assert mori_cone_membership(p1, (-1,)) is False
    assert dual_cone_flags(p1, (-1,)) == (False, False)


def test_mori_membership_refuses_what_degree_pairing_refuses(f1):
    with pytest.raises(InvalidModelError, match="degree must have 2 coordinates"):
        mori_cone_membership(f1, (1,))
    with pytest.raises(ValueError, match=r"^degree \(1/2, 0\) is not integral$"):
        mori_cone_membership(f1, (Fraction(1, 2), 0))


def test_mori_overall_matches_flag_union(f1, p1xp1):
    # On these models the effective cone is the union of the per-point cones.
    for data in (f1, p1xp1):
        for d1 in range(-2, 3):
            for d2 in range(-2, 3):
                d = (d1, d2)
                assert mori_cone_membership(data, d) == any(dual_cone_flags(data, d))


def test_mori_generators(p1, f1):
    assert mori_generators(p1) == [(1,)]
    assert sorted(mori_generators(f1)) == [(0, 1), (1, 0)]


def test_map_space_p1_degree_one(p1):
    ext = map_space_model(p1, (1,))
    assert ext.data.N == 4  # N(d) = N + sum D_j = 4
    assert ext.labels == ("L1", "L1+z", "L2", "L2+z")
    assert ext.copies == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert ext.obstructions == ()


def test_map_space_degree_zero_recovers_data(f1):
    ext = map_space_model(f1, (0, 0))
    assert (ext.data.m, ext.data.omega, ext.labels) == (f1.m, f1.omega, ("L1", "L2", "L3", "L4"))


def test_map_space_f1_doubles_columns(f1):
    ext = map_space_model(f1, (0, 1))  # D = (0, 0, 1, 1)
    assert [c for c, _ in ext.copies] == [0, 1, 2, 2, 3, 3]
    assert ext.obstructions == ()


def test_map_space_obstructions(f1):
    ext = map_space_model(f1, (1, 0))  # D = (1, 1, 0, -1)
    assert ext.obstructions == ((3, 1),)
    # the negative column keeps its single unshifted copy
    assert (3, 0) in ext.copies


def test_box_degrees(p1, f1):
    assert box_degrees(p1, (Fraction(1),), 3) == [(0,), (1,), (2,), (3,)]
    assert box_degrees(f1, (Fraction(1), Fraction(1)), 0) == [(0, 0)]
    box = box_degrees(f1, (Fraction(1), Fraction(1)), 2)
    assert set(box) == {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)}


def test_toric_data_validation():
    with pytest.raises(InvalidModelError):
        ToricData(m=((1, 1), (0,)), omega=(1, 1))
    with pytest.raises(InvalidModelError):
        ToricData(m=((1,),), omega=(1, 1))
    with pytest.raises(InvalidModelError):
        ToricData(m=((1, 0), (0, 1), (1, 1)), omega=(1, 1, 1))  # N < K


def test_p_values_solve(p1):
    ctx = sample_context(p1.N, 3)
    fps = enumerate_fixed_points(p1)
    assert fps[0].p_values(ctx.Lambda) == (ctx.Lambda[0],)
    assert fps[1].p_values(ctx.Lambda) == (ctx.Lambda[1],)


def test_fixed_point_values_need_one_lambda_per_column(f1):
    # A lambda list shorter than N is refused, not read as a shorter monomial.
    ctx = sample_context(f1.N, 3)
    for fp in enumerate_fixed_points(f1):
        for values in (fp.p_values, fp.u_values):
            with pytest.raises(ValueError, match="^not enough values for this monomial$"):
                values(ctx.Lambda[:-1])
            assert len(values(ctx.Lambda)) == len(values(ctx.Lambda + (Fraction(5),)))


def test_format_monomial(f1):
    assert format_monomial((0, 0, 0, 0)) == "1"
    assert format_monomial((1, -1, 0, 0)) == "L1*L2^-1"
    assert format_monomial((-1, 0, 1, -2)) == "L1^-1*L3*L4^-2"
    alpha = fixed_point(f1, (0, 2))
    assert [format_monomial(u) for u in alpha.u_monomials] == \
        ["1", "L1*L2^-1", "1", "L1^-1*L3*L4^-1"]
