from __future__ import annotations

import pytest

from qtoric.models import hirzebruch, product_of_lines, projective_space
from qtoric.toric import ToricData


@pytest.fixture
def p1():
    return projective_space(1)


@pytest.fixture
def p2():
    return projective_space(2)


@pytest.fixture
def f1():
    return hirzebruch()


@pytest.fixture
def p1xp1():
    return product_of_lines()


@pytest.fixture
def dp6():
    """The del Pezzo surface of degree 6: its fan is the hexagon.

    Its Mori cone is not the union of the fixed points' cones, so it is the
    model on which membership needs the facets of the convex hull.
    """
    return ToricData(
        m=((1, -1, 1, 0, 0, 0), (0, 1, -1, 1, 0, 0), (0, 0, 1, -1, 1, 0), (0, 0, 0, 1, -1, 1)),
        omega=(1, 1, 1, 1),
        name="dp6",
    )


@pytest.fixture
def all_models(p1, p2, f1, p1xp1):
    return [p1, p2, f1, p1xp1]
