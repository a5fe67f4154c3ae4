"""Small constructors the tests share: a fixed point looked up by its
columns, a degree's per-fixed-point dual-cone flags, the constant series,
and the sum and truncated product of two series.

No command needs them: the library enumerates its fixed points and builds
its series by the component walk and ``series_exp``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from qtoric.series import NovikovSeries, TruncationBox
from qtoric.toric import FixedPoint, ToricData, degree_pairing, enumerate_fixed_points


def fixed_point(data: ToricData, subset: Sequence[int]) -> FixedPoint:
    want = tuple(sorted(subset))
    for fp in enumerate_fixed_points(data):
        if fp.J == want:
            return fp
    raise KeyError(f"{want} is not a fixed point of this model")


def dual_cone_flags(data: ToricData, d: Sequence[int]) -> tuple[bool, ...]:
    """Per fixed point alpha, whether d lies in alpha's dual cone: D_j(d) >= 0 on J(alpha)."""
    pairing = degree_pairing(data, d)
    return tuple(all(pairing[j] >= 0 for j in fp.J) for fp in enumerate_fixed_points(data))


def constant_series(box: TruncationBox, value=1) -> NovikovSeries:
    zero = tuple(0 for _ in range(box.data.K))
    return NovikovSeries(box, {zero: Fraction(value)})


def _same_box(a: NovikovSeries, b: NovikovSeries) -> None:
    if a.box != b.box:
        raise ValueError("series live on different boxes")


def add(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    """The sum, a merge of the two coefficient dicts."""
    _same_box(a, b)
    return NovikovSeries(a.box, {d: a.coeffs.get(d, 0) + b.coeffs.get(d, 0)
                                 for d in a.coeffs | b.coeffs})


def multiply(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    """Truncated product; sound when both supports pair positively with ample."""
    _same_box(a, b)
    out: dict[tuple[int, ...], object] = {}
    for d1, c1 in a.coeffs.items():
        for d2, c2 in b.coeffs.items():
            d = tuple(x + y for x, y in zip(d1, d2))
            if a.box.contains(d):
                out[d] = out.get(d, Fraction(0)) + c1 * c2
    return NovikovSeries(a.box, out)
