from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linalg_oracle import adjugate, solve_square
from linalg_oracle import determinant as oracle_determinant
from qtoric import toric
from qtoric.linalg import pivot


def test_determinant_small():
    assert adjugate([[1, 1], [0, 1]])[0] == 1
    assert adjugate([[1, -1], [0, 1]])[0] == 1
    assert adjugate([[0, 1], [1, 0]])[0] == -1
    assert adjugate([[1, 2], [2, 4]])[0] == 0
    assert adjugate([[2]])[0] == 2


def test_adjugate_small():
    assert adjugate([[1, -1], [0, 1]]) == (1, [[1, 1], [0, 1]])
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert adjugate([[2, 0], [0, 1]]) == (2, [[1, 0], [0, 2]])
    assert adjugate([[1, 2], [2, 4]]) == (0, None)


def test_adjugate_shape_errors():
    with pytest.raises(ValueError):
        adjugate([[1, 2]])
    with pytest.raises(ValueError):
        adjugate([[1, 2], [3]])[0]


@st.composite
def integer_matrices(draw):
    """Square matrices of size 1-6 with entries in [-3, 3]; a third are made
    singular (a row repeats another's multiple) and a third need a row swap
    (a zero in the top-left corner)."""
    n = draw(st.integers(1, 6))
    entries = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["random", "singular", "swap"]))
    if kind == "singular":
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        scale = draw(entries) if src != dst else 0
        a[dst] = [scale * x for x in a[src]]
    elif kind == "swap":
        a[0][0] = 0
    return a


@settings(max_examples=300, deadline=None)
@given(a=integer_matrices())
@example(a=[[0, 1], [1, 0]])
@example(a=[[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example(a=[[1, 2], [2, 4]])
def test_adjugate_matches_the_rational_oracle(a):
    n = len(a)
    det, adj = adjugate(a)
    assert det == oracle_determinant(a)
    columns = [solve_square(a, [int(i == j) for i in range(n)]) for j in range(n)]
    if det == 0:
        assert adj is None and all(col is None for col in columns)
        return
    assert all(type(x) is int for row in adj for x in row)
    product = [[sum(adj[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[det * int(i == j) for j in range(n)] for i in range(n)]
    assert [[Fraction(adj[i][j], det) for i in range(n)] for j in range(n)] == columns


@settings(max_examples=300, deadline=None)
@given(a=integer_matrices(), data=st.data())
def test_pivot_is_the_adjugate_of_the_exchanged_matrix(a, data):
    det, adj = adjugate(a)
    if det == 0:
        return
    n = len(a)
    v = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    c = [sum(x * y for x, y in zip(row, v)) for row in adj]
    places = [r for r in range(n) if c[r]]
    if not places:
        return
    r = data.draw(st.sampled_from(places))
    exchanged = [[v[i] if j == r else x for j, x in enumerate(row)] for i, row in enumerate(a)]
    assert pivot(det, adj, c, r) == adjugate(exchanged)


@settings(max_examples=300, deadline=None)
@given(a=integer_matrices())
@example(a=[[0, 1], [1, 0]])
@example(a=[[1, 2], [2, 4]])
def test_completing_the_identity_is_the_reference_adjugate(a):
    # Each column of a, in order, takes the first place still held by a column
    # of the identity that its coordinates reach, and the places are re-sorted.
    n = len(a)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    J, det, adj = toric._complete(list(zip(*a)), (tuple(range(n, 2 * n)), 1, identity),
                                  (), range(n))
    reference = adjugate(a)
    if reference[0]:
        assert (J, det, adj) == (tuple(range(n)), *reference)
    else:
        assert J[-1] >= n
