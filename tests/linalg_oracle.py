"""Reference eliminations for the tests: determinants, square solves, adjugates.

``qtoric`` never eliminates a matrix from scratch: each basis change is one
fraction-free pivot (``qtoric.linalg.pivot``) on the old determinant and
adjugate.  ``determinant`` and ``solve_square`` are the ``Fraction`` routines
that an integer elimination once replaced; ``adjugate`` is that elimination,
Bareiss's fraction-free Gauss-Jordan, which the pivot in turn replaced.  They
share no code with ``qtoric.linalg``.  ``minor`` reads a model's K x K minor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def minor(data, subset: Sequence[int]) -> list[list[int]]:
    """The columns ``subset`` of the model's matrix, in that order."""
    return [[row[j] for j in subset] for row in data.m]


def _rows(a: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in a]


def determinant(a: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination with pivoting."""
    m = _rows(a)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def solve_square(a: Sequence[Sequence], b: Sequence) -> list[Fraction] | None:
    """Solve ``a x = b`` exactly; returns None when ``a`` is singular."""
    m = _rows(a)
    n = len(m)
    rhs = [Fraction(x) for x in b]
    if len(rhs) != n or any(len(row) != n for row in m):
        raise ValueError("solve_square needs a square system")
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / m[col][col]
        for r in range(n):
            if r == col or m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
            rhs[r] -= factor * rhs[col]
    return [rhs[i] / m[i][i] for i in range(n)]


def adjugate(a: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """``(det, adj)`` with ``adj a = det I``; ``adj`` is None when det = 0.

    One fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968) brings ``[a | I]`` to ``[d I | M]``.  Each step divides by the
    previous pivot, a leading minor of the row-swapped matrix, and by
    Sylvester's identity every quotient is exact.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("adjugate needs a square matrix")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign, prev = 1, 1
    for k in range(n):
        swap = next((r for r in range(k, n) if m[r][k] != 0), None)
        if swap is None:
            return 0, None
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top, pivot = m[k], m[k][k]
        for i in range(n):
            if i != k:
                factor = m[i][k]
                m[i] = [(pivot * x - factor * y) // prev for x, y in zip(m[i], top)]
        prev = pivot
    # The row operations multiplied [a | I] by M with M a = prev I, and prev is
    # the determinant of the row-swapped matrix: sign * prev = det a.
    return sign * prev, [[sign * x for x in row[n:]] for row in m]
