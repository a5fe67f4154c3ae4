"""The fixed-point graph: one edge per column off each fixed point, every
edge with its reverse, the curve classes of the wall-counting route, and the
residue recursion on every edge of the 8-ray surface and the 7-ray 3-fold.

The simplex walk's fixed points, their edges and the graph against the subset
scan and wall grouping it replaced (``cone_oracle``), entry for entry and in
order, the errors it names, and a K = 12 model that the scan took minutes on.
No ratio test runs after the walk."""

import contextlib
import hashlib
import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from cone_oracle import scan_fixed_points, wall_counter_classes, wall_graph
from qtoric import cli, linalg, toric
from qtoric.models import bundled_model_names, load_bundled_model, parse_model_text, resolve_model
from qtoric.recursion import all_orbits, verify_residue_recursion
from qtoric.series import truncation_box
from qtoric.toric import (
    NonRegularChamberError,
    NonSmoothModelError,
    ToricData,
    check_compact_quotient,
    enumerate_fixed_points,
    fixed_point_graph,
    mori_generators,
)
from test_mori_cone import blown_up_fans, fan_surface, product_rows
from test_qdiff import F1_SKEW

DATA = Path(__file__).parent / "data"
MODELS = [*(load_bundled_model(name).data for name in bundled_model_names()),
          *(resolve_model(str(path)).data for path in sorted(DATA.glob("*.model"))
            if path.stem != "threefold7x3")]
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


def product(first, second):
    return ToricData(m=product_rows(first.m, second.m), omega=first.omega + second.omega,
                     name=f"{first.name}x{second.name}")


def shear(data, steps):
    """The same quotient with row t minus f times row s, for each (t, f, s) in turn."""
    m, omega = [list(row) for row in data.m], list(data.omega)
    for t, f, s in steps:
        m[t] = [a - f * b for a, b in zip(m[t], m[s])]
        omega[t] -= f * omega[s]
    return ToricData(m=m, omega=omega, name=f"{data.name}_sheared")


BY_NAME = {data.name: data for data in MODELS}
PRODUCTS = [product(BY_NAME["surface8"], BY_NAME["threefold7"]),
            product(BY_NAME["threefold7x2"], BY_NAME["p1"])]
# Chamber points with negative coordinates: phase 1 starts from -1 artificial columns.
NEGATIVE = [parse_model_text(F1_SKEW.replace("omega 2 1", "omega 2 -1")).data,
            shear(BY_NAME["surface8"], [(1, 3, 0), (3, 1, 2), (5, 1, 4)])]
assert [data.omega for data in NEGATIVE] == [(2, -1), (12, -11, 14, -9, 3, -1)]


def assert_walk_is_the_scan(data):
    assert enumerate_fixed_points(data) == scan_fixed_points(data)
    # The order too: the curve classes, and so the Mori generators, follow it.
    assert list(fixed_point_graph(data).items()) == list(wall_graph(data).items())


@pytest.mark.parametrize("data", MODELS + PRODUCTS + NEGATIVE, ids=lambda data: data.name)
def test_walk_is_the_subset_scan(data):
    # The scan builds its fixed points with the walk's ``_build_fixed_point``,
    # so their ``edges`` agree by construction: this checks J and the monomials,
    # and test_edges_are_the_wall_grouping checks ``edges``.
    assert_walk_is_the_scan(data)


def walk_edges(data):
    return {alpha.J: dict(alpha.edges) for alpha in enumerate_fixed_points(data)}


def wall_edges(data):
    """Each fixed point's edges by the wall grouping: J -> {j0: j0'}, with None
    where no wall leads on from J."""
    graph = wall_graph(data)
    return {alpha.J: {j0: graph[alpha.J, j0][2] if (alpha.J, j0) in graph else None
                      for j0 in range(data.N) if j0 not in alpha.J}
            for alpha in scan_fixed_points(data)}


@pytest.mark.parametrize("data", MODELS, ids=lambda data: data.name)
def test_edges_are_the_wall_grouping(data):
    edges = walk_edges(data)
    assert edges == wall_edges(data)
    assert all(None not in at_alpha.values() for at_alpha in edges.values())


@pytest.mark.parametrize("m", [((1, 1, -1),), ((1, 0, 1),)], ids=["o_minus_1", "zero_column"])
def test_unbounded_edges_are_the_directions_no_wall_has(m):
    # O(-1) over P^1, and a column with zero image: both leave a fixed point
    # along an unbounded edge, which the wall grouping has no entry for and
    # the orbit list skips.
    data = ToricData(m=m, omega=(1,))
    edges = walk_edges(data)
    assert edges == wall_edges(data)
    assert any(None in at_alpha.values() for at_alpha in edges.values())
    assert [(orbit.alpha.J, orbit.j0) for orbit in all_orbits(data)] == sorted(wall_graph(data))


@pytest.mark.parametrize("data", [load_bundled_model("f1").data, BY_NAME["threefold7"]],
                         ids=lambda data: data.name)
def test_nothing_after_the_walk_runs_a_ratio_test(data, monkeypatch):
    routes = (fixed_point_graph, check_compact_quotient, all_orbits, mori_generators)
    expected = [route(data) for route in routes]
    for cached in (fixed_point_graph, toric._curve_classes, toric._mori_facets):
        cached.cache_clear()

    def refuse(*args):
        raise AssertionError("a ratio test after the walk")

    monkeypatch.setattr(toric, "_leaving", refuse)
    assert [route(data) for route in routes] == expected


@settings(max_examples=30, deadline=None, derandomize=True)
@given(fan=blown_up_fans(3, 8))
def test_walk_is_the_subset_scan_on_generated_surfaces(fan):
    assert_walk_is_the_scan(fan_surface(*fan))


@pytest.mark.parametrize("row, subset, det", [((1, 2, 3), (1,), 2), ((3, 2, 1), (0,), 3)])
def test_the_smallest_non_smooth_subset_is_named(row, subset, det):
    # Every column is a fixed point.  On the first row the walk starts at
    # column 1 and meets column 3 before column 2, so naming the first
    # non-smooth vertex met fails here.
    data = ToricData(m=(row,), omega=(1,))
    for route in (enumerate_fixed_points, scan_fixed_points):
        with pytest.raises(NonSmoothModelError) as info:
            route(data)
        assert (info.value.subset, info.value.det) == (subset, det)


OUTSIDE = "outside the image of the open orthant"


@pytest.mark.parametrize("m, omega, message", [
    # omega = (0, 1) is column 4: it lies on the walls of (1, 4), (2, 4) and
    # (3, 4), and both routes name the first.
    (((1, 1, 1, 0), (0, 0, 1, 1)), (0, 1), "on the wall of cone (1, 4)"),
    # F_1 with omega on column 3, the wall between its chambers, and on column
    # 4, an edge of its effective cone: phase 1 ends at the named basis.
    (((1, 1, 0, -1), (0, 0, 1, 1)), (0, 1), "on the wall of cone (1, 3)"),
    (((1, 1, 0, -1), (0, 0, 1, 1)), (-1, 1), "on the wall of cone (1, 4)"),
    # No x >= 0 solves m x = omega.
    (((1, 1),), (-1,), OUTSIDE),
    (((1, 0, 1), (0, 1, 1)), (1, -1), OUTSIDE),
    # m has rank 1 < K: omega = (1, 1) is in the image of the closed orthant.
    (((1, 1), (1, 1)), (1, 1), OUTSIDE),
])
def test_a_chamber_point_off_the_chamber_gets_the_scans_message(m, omega, message):
    data = ToricData(m=m, omega=omega)
    for route in (enumerate_fixed_points, scan_fixed_points):
        with pytest.raises(NonRegularChamberError, match=f"^omega lies {re.escape(message)}$"):
            route(data)


def test_threefold7_cubed_inspects_in_seconds():
    # K = 12, N = 21: 293,930 K-subsets, 1,000 fixed points.
    path = str(DATA / "threefold7x3.model")
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert cli.main(["inspect", path]) == 0
    assert time.perf_counter() - start < 5
    # The report lists the Mori generators in the graph's order.
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "df269bacec253d8335335f9d82ab9dde082ca67489c97cf1ea9fa7eba274c228")
    result = json.loads(out.getvalue())["result"]
    assert (len(result["fixed_points"]), len(result["kirwan_relations"]),
            len(result["mori_generators"])) == (1000, 27, 15)
    assert len(fixed_point_graph(resolve_model(path).data)) == 9000


@pytest.mark.parametrize("name, vertices", [("threefold7x2", 100), ("threefold7x3", 1000)])
def test_one_pivot_per_vertex(name, vertices, monkeypatch):
    # After phase 1, the walk pivots once into each vertex but its start, and
    # the Mori cone's start once per place of the identity it completes.
    data = resolve_model(str(DATA / f"{name}.model")).data
    toric._curve_classes(data)
    calls = []
    pivot, feasible_basis = toric.pivot, toric._feasible_basis

    def counted(*args):
        calls.append(None)
        return pivot(*args)

    def start(model):
        basis = feasible_basis(model)
        calls.clear()
        return basis

    monkeypatch.setattr(toric, "pivot", counted)
    monkeypatch.setattr(toric, "_feasible_basis", start)
    assert len(toric.enumerate_fixed_points.__wrapped__(data)) == vertices
    assert len(calls) == vertices - 1
    calls.clear()
    toric._mori_facets.__wrapped__(data)
    assert len(calls) == data.K


def test_no_adjugate_or_minor_is_left_in_the_library():
    names = [*vars(linalg), *vars(toric), *dir(toric.ToricData)]
    assert [name for name in names if "adjugate" in name or "minor" in name] == []


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
