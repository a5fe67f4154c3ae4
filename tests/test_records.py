"""The record types: what their constructors normalise and refuse, and what
importing the package costs.

The records are ``typing.NamedTuple``s; ``ToricData`` and ``BundleData``
normalise and validate their fields in ``__new__``.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qtoric
from qtoric.models import parse_model_text
from qtoric.series import BundleData
from qtoric.toric import InvalidModelError, ToricData, enumerate_fixed_points, mori_generators

FOOTPRINT = Path(__file__).resolve().parent / "import_footprint.py"


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(Path(qtoric.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(FOOTPRINT)], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


def test_toric_data_normalises_lists_and_ints():
    data = ToricData(m=[[1, 1, 0, Fraction(-1)], [0, 0, 1, 1]], omega=[1, Fraction(3, 2)])
    assert data.m == ((1, 1, 0, -1), (0, 0, 1, 1))
    assert all(type(x) is int for row in data.m for x in row)
    assert data.omega == (Fraction(1), Fraction(3, 2))
    assert all(type(w) is Fraction for w in data.omega)
    assert data.lambda_names == ("L1", "L2", "L3", "L4")
    assert data.name == ""
    assert (data.K, data.N) == (2, 4)
    assert data.columns == ((1, 0), (1, 0), (0, 1), (-1, 1))
    assert ToricData(m=((1, 1),), omega=(1,), lambda_names=("a", "b")).lambda_names == ("a", "b")


def test_list_labels_give_the_record_of_tuple_labels():
    listed = ToricData(m=((1, 1),), omega=(1,), lambda_names=["a", "b"])
    tupled = ToricData(m=((1, 1),), omega=(1,), lambda_names=("a", "b"))
    assert listed.lambda_names == ("a", "b")
    assert listed == tupled and hash(listed) == hash(tupled)
    # The cached functions key on the record, so they run on it.
    assert [fp.J for fp in enumerate_fixed_points(listed)] == [(0,), (1,)]
    assert mori_generators(listed) == [(1,)]


@pytest.mark.parametrize("m, omega, names, message", [
    ((), (), (), "need at least one matrix row"),
    (((1, 1), (0, 1, 1)), (1, 1), (), "matrix rows have unequal lengths"),
    (((1,), (0,)), (1, 1), (), r"need N >= K, got K=2, N=1"),
    (((1, 1),), (1, 1), (), "omega must have 1 coordinates"),
    (((1, 1),), (1,), ("a",), "need one parameter label per column"),
])
def test_toric_data_refuses_malformed_fields(m, omega, names, message):
    with pytest.raises(InvalidModelError, match=f"^{message}$"):
        ToricData(m=m, omega=omega, lambda_names=names)


def test_bundle_data_normalises_exponents_and_checks_parity():
    bundle = BundleData(exponents=[[1, Fraction(2)], [0, 1]])
    assert bundle.exponents == ((1, 2), (0, 1))
    assert all(type(x) is int for row in bundle.exponents for x in row)
    assert (bundle.parity, bundle.L) == ("E", 2)
    assert BundleData(exponents=((1,),), parity="PiE").parity == "PiE"
    with pytest.raises(ValueError, match="^parity must be 'E' or 'PiE'$"):
        BundleData(exponents=((1,),), parity="O")


def test_two_parses_of_one_model_share_the_fixed_point_cache():
    text = "name records-f1\nmatrix 2 4\n1 1 0 -1\n0 0 1 1\nomega 1 1\n"
    first, second = parse_model_text(text).data, parse_model_text(text).data
    assert first is not second
    assert first == second and hash(first) == hash(second)
    before = enumerate_fixed_points.cache_info()
    assert enumerate_fixed_points(first) is enumerate_fixed_points(second)
    after = enumerate_fixed_points.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
