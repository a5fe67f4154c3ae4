"""Exact determinants and adjugates of integer matrices.

One fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968)
brings ``[a | I]`` to ``[d I | M]`` with every division exact, so the adjugate
of an integer matrix comes out over the integers with no rational arithmetic.
The matrices are K x K minors, with K up to 12 on the committed models.
"""

from __future__ import annotations

from typing import Sequence


def adjugate(a: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """``(det, adj)`` with ``adj a = det I``; ``adj`` is None when det = 0.

    Each step divides by the previous pivot, a leading minor of the
    row-swapped matrix, and by Sylvester's identity every quotient is exact.
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
