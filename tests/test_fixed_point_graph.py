"""The fixed-point graph: one edge per column off each fixed point, every
edge with its reverse, the curve classes of the wall-counting route, and the
residue recursion on every edge of the 8-ray surface and the 7-ray 3-fold."""

from fractions import Fraction
from pathlib import Path

import pytest

from cone_oracle import wall_counter_classes
from qtoric import toric
from qtoric.models import bundled_model_names, load_bundled_model, resolve_model
from qtoric.recursion import all_orbits, verify_residue_recursion
from qtoric.series import truncation_box
from qtoric.toric import (
    FixedPoint,
    OrbitInvariantError,
    ToricData,
    enumerate_fixed_points,
    fixed_point_graph,
)

DATA = Path(__file__).parent / "data"
MODELS = [*(load_bundled_model(name).data for name in bundled_model_names()),
          *(resolve_model(str(DATA / f"{name}.model")).data
            for name in ("surface8", "threefold7", "threefold7x2"))]
EDGES = {"surface8": 16, "threefold7": 30, "threefold7x2": 600}


@pytest.mark.parametrize("data", MODELS, ids=lambda data: data.name)
def test_one_edge_per_column_off_each_fixed_point(data):
    graph = fixed_point_graph(data)
    fixed = enumerate_fixed_points(data)
    for alpha in fixed:
        off = [j for j in range(data.N) if j not in alpha.J]
        assert [j0 for (J, j0) in sorted(graph) if J == alpha.J] == off, alpha.J
    assert len(graph) == len(fixed) * (data.N - data.K)
    assert len(graph) == EDGES.get(data.name, len(graph))


@pytest.mark.parametrize("data", MODELS, ids=lambda data: data.name)
def test_every_edge_has_its_reverse(data):
    graph = fixed_point_graph(data)
    for (J, j0), (alpha, beta, j0p) in graph.items():
        assert alpha.J == J and j0 in beta.J and j0p not in beta.J
        assert set(alpha.J) - {j0p} == set(beta.J) - {j0}
        assert graph[beta.J, j0p] == (beta, alpha, j0)


@pytest.mark.parametrize("data", MODELS, ids=lambda data: data.name)
def test_curve_classes_are_the_wall_counting_route(data):
    assert toric._curve_classes(data) == wall_counter_classes(data)


def test_a_direction_through_two_walls_is_refused(monkeypatch):
    # Three fixed points pairwise sharing a wall: the direction 3 leaves
    # (1, 2) through both of its walls.  No chamber point of this matrix lies
    # in all three cones, so the fixed points are stood in for.
    data = ToricData(m=((1, 0, 1), (0, 1, 1)), omega=(Fraction(2), Fraction(1)),
                     name="three-walls")
    fake = tuple(FixedPoint(J, 1, (), (), ()) for J in ((0, 1), (0, 2), (1, 2)))
    monkeypatch.setattr(toric, "enumerate_fixed_points", lambda data: fake)
    with pytest.raises(OrbitInvariantError,
                       match=r"direction 3 off \(0, 1\) matched several fixed points"):
        fixed_point_graph(data)


@pytest.mark.parametrize("name", ["surface8", "threefold7"])
def test_recursion_on_every_edge(name):
    model = resolve_model(str(DATA / f"{name}.model"))
    box = truncation_box(model.data, 2, model.ample)
    residues = 0
    for orbit in all_orbits(model.data):
        for m in (1, 2):
            report = verify_residue_recursion(model.data, orbit, m, box, seed=11)
            assert report["ok"] and report["euler_oracle_agrees"], (orbit.alpha.J, orbit.j0, m)
            residues += sum(row["lhs"] != "0" for row in report["degrees"])
    assert residues  # not only zeros on both sides
