"""Rational Gaussian elimination for the tests: determinants and square solves.

``qtoric.linalg`` reads determinants and inverses off one fraction-free
integer elimination; these are the ``Fraction`` routines it replaced, kept as
an independent route that shares no code with it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


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
