from fractions import Fraction

import pytest

from qtoric.linalg import determinant, inverse_unimodular, solve_square


def test_determinant_small():
    assert determinant([[1, 1], [0, 1]]) == 1
    assert determinant([[1, -1], [0, 1]]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[2]]) == 2


def test_solve_square_exact():
    sol = solve_square([[1, 1], [0, 1]], [Fraction(3), Fraction(1)])
    assert sol == [Fraction(2), Fraction(1)]
    assert solve_square([[1, 2], [2, 4]], [1, 2]) is None


def test_solve_square_shape_errors():
    with pytest.raises(ValueError):
        solve_square([[1, 2]], [1])


def test_inverse_unimodular():
    assert inverse_unimodular([[1, -1], [0, 1]]) == [[1, 1], [0, 1]]
    assert inverse_unimodular([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        inverse_unimodular([[2, 0], [0, 1]])

