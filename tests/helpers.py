"""Small constructors the tests share: a fixed point looked up by its
columns, the constant series, and the truncated product of two series.

No command needs them: the library enumerates its fixed points and builds
its series by the component walk and ``series_exp``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from qtoric.series import NovikovSeries, TruncationBox
from qtoric.toric import FixedPoint, ToricData, enumerate_fixed_points


def fixed_point(data: ToricData, subset: Sequence[int]) -> FixedPoint:
    want = tuple(sorted(subset))
    for fp in enumerate_fixed_points(data):
        if fp.J == want:
            return fp
    raise KeyError(f"{want} is not a fixed point of this model")


def constant_series(box: TruncationBox, value=1, mode: str = "k") -> NovikovSeries:
    zero = tuple(0 for _ in range(box.data.K))
    return NovikovSeries(box, {zero: Fraction(value)}, mode)


def multiply(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    """Truncated product; sound when both supports pair positively with ample."""
    a._check_compatible(b)
    out: dict[tuple[int, ...], object] = {}
    for d1, c1 in a.coeffs.items():
        for d2, c2 in b.coeffs.items():
            d = tuple(x + y for x, y in zip(d1, d2))
            if a.box.contains(d):
                out[d] = out.get(d, Fraction(0)) + c1 * c2
    return NovikovSeries(a.box, out, a.mode)
