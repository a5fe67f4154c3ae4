"""One fraction-free basis exchange: Edmonds' integer-preserving pivot (Edmonds 1967;
Bareiss, Math. Comp. 22, 1968).  A basis M is carried as ``(det, adj)`` with
``adj M = det I``, and replacing one column updates both with every division exact,
so no basis is eliminated from scratch and no rational arithmetic is needed.
"""

from __future__ import annotations

from typing import Sequence


def pivot(det: int, adj: Sequence[Sequence[int]], c: Sequence[int], r: int) -> tuple[int, list]:
    """``(det', adj')`` of M with column r replaced by v, where ``c = adj v`` and c_r != 0:
    det' = c_r, row r stays, and each other row i becomes (c_r adj_i - c_i adj_r) / det,
    an exact quotient since it is an entry of adj'."""
    cr, top = c[r], adj[r]
    return cr, [top if i == r else [(cr * a - ci * b) // det for a, b in zip(row, top)]
                for i, (row, ci) in enumerate(zip(adj, c))]
