"""Per-call tables against per-degree formulas.

``qdiff._Word`` builds one multiplier per distinct exponent tuple (applied
to a whole series by ``word_oracle.apply_word_table``), and the relation
check behind ``verify_shifted_identity`` and ``verify_coh_relation`` one
product per side and exponent tuple; the box
keeps its degrees' pairing rows, canonical keys and predecessor positions.
Each is compared with the formula it replaces (``word_oracle``,
``degree_pairing``) at every box degree, on the bundled models, on the rank
2-4 families of the cone-box benchmark, and on F_1 in a basis whose second
row is not effective.
"""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import word_oracle
from helpers import add
from qtoric.models import bundled_model_names, load_bundled_model
from qtoric.qdiff import (
    _binomials,
    _relation_sides,
    _verify_shift,
    verify_coh_relation,
    verify_shifted_identity,
)
from qtoric.scalars import TruncationError, sample_context
from qtoric.series import NovikovSeries, truncation_box
from qtoric.toric import ToricData, degree_pairing, enumerate_fixed_points


def hirzebruch_rows(a):
    return ((1, 1, 0, -a), (0, 0, 1, 1))


def product_rows(*factors):
    """The charge matrix of a product: the factors' matrices block-diagonally."""
    width = sum(len(rows[0]) for rows in factors)
    out, start = [], 0
    for rows in factors:
        out += [(0,) * start + row + (0,) * (width - start - len(row)) for row in rows]
        start += len(rows[0])
    return tuple(out)


LINE, PLANE = ((1, 1),), ((1, 1, 1),)
# (name, rows, bound): F_0..F_3 and the products of the cone-box benchmark.
FAMILIES = [
    *((f"F{a}", hirzebruch_rows(a), 4) for a in range(4)),
    ("p1x3", product_rows(LINE, LINE, LINE), 3),
    ("p1x4", product_rows(LINE, LINE, LINE, LINE), 2),
    ("p1xp1xp2", product_rows(LINE, LINE, PLANE), 2),
    ("f1xp1", product_rows(hirzebruch_rows(1), LINE), 3),
    ("f2xp1", product_rows(hirzebruch_rows(2), LINE), 3),
    # F_1 with its second row replaced by the second minus the first: the new
    # e_2 = (-1, -1, 1, 2) is not effective, so d - e_2 is often off the cone.
    ("F1skew", ((1, 1, 0, -1), (-1, -1, 1, 2)), 9),
]
OMEGA = {"F1skew": (2, 1)}
MODELS = [*bundled_model_names(), *(name for name, _, _ in FAMILIES)]


def model(name):
    for family, rows, bound in FAMILIES:
        if family == name:
            omega = OMEGA.get(name, (1,) * len(rows))
            return ToricData(m=rows, omega=omega, name=name), bound
    return load_bundled_model(name).data, 3


def dense_series(box, seed, mode="k"):
    """A nonzero coefficient at every box degree, so no product can hide."""
    rng = random.Random(seed)
    return NovikovSeries(box, {d: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                           rng.randint(1, 9))
                               for d in box.degrees}, mode)


def words(data):
    """Per row: the full word (a column repeats for r = 0..|m_ij| - 1), its
    positive and negative halves, and the full word with every r raised by 1."""
    out = []
    for row in data.m:
        full = [(j, r) for j, mij in enumerate(row) for r in range(abs(mij))]
        out += [full, [(j, r) for j, r in full if row[j] > 0],
                [(j, r) for j, r in full if row[j] < 0], [(j, r + 1) for j, r in full]]
    return [word for word in out if word]


@pytest.mark.parametrize("name", MODELS)
def test_word_multipliers_match_the_per_degree_formula(name):
    # Every fixed point and word in turn on one series and context, so a
    # table that outlives its call shows up at the next one.
    data, bound = model(name)
    box = truncation_box(data, bound)
    ctx = sample_context(data.N, 61)
    s = dense_series(box, 3)
    for fp in enumerate_fixed_points(data):
        for word in words(data):
            assert (word_oracle.apply_word_table(s, data, fp, word, ctx)
                    == word_oracle.apply_word(s, data, fp, word, ctx)), (fp.J, word)


def test_the_words_reach_negative_exponents_and_repeated_columns():
    # The exponent k - r of some factor is negative at some box degree, and a
    # column repeats with two values of r, on every Hirzebruch family.
    for name in ("F2", "F3", "f2xp1"):
        data, bound = model(name)
        box = truncation_box(data, bound)
        exponents = {sum(row[j] * x for row, x in zip(data.m, d)) - r
                     for word in words(data) for j, r in word for d in box.degrees}
        assert min(exponents) < 0
        assert any(len({r for j, r in word if j == col}) > 1
                   for word in words(data) for col in range(data.N))


@pytest.mark.parametrize("name", MODELS)
def test_shifted_identity_reports_match_the_whole_series_route(name):
    # Dense random components fail at nearly every degree, so the reports
    # agree only if both sides agree there, the shifted side off the box too.
    data, bound = model(name)
    box = truncation_box(data, bound)
    ctx = sample_context(data.N, 71)
    family = {fp.J: dense_series(box, 7 + k)
              for k, fp in enumerate(enumerate_fixed_points(data))}
    for i, row in enumerate(data.m):
        lhs = [(j, r) for j, mij in enumerate(row) for r in range(mij)]
        rhs = [(j, r) for j, mij in enumerate(row) for r in range(-mij)]
        for lhs_word, rhs_word in ((lhs, rhs), (rhs, [(j, r + 1) for j, r in lhs])):
            report = verify_shifted_identity(data, family, ctx, lhs_word, i, rhs_word)
            assert report == word_oracle.verify_shifted_identity(
                data, family, ctx, lhs_word, i, rhs_word), (i, lhs_word, rhs_word)
            assert not report["ok"]


def shifts(K):
    """Every +-e_i, and e_i + e_k and e_i - e_k for i < k."""
    basis = [tuple(int(x == i) for x in range(K)) for i in range(K)]
    out = basis + [tuple(-x for x in e) for e in basis]
    for a, b in itertools.combinations(basis, 2):
        out += [tuple(x + y for x, y in zip(a, b)), tuple(x - y for x, y in zip(a, b))]
    return out


@pytest.mark.parametrize("name", MODELS)
def test_coh_relation_products_match_the_per_degree_formula(name):
    # A dense random family fails at nearly every degree, so the two reports
    # agree only if their lhs and rhs products agree there.
    data, bound = model(name)
    box = truncation_box(data, bound)
    ctx = sample_context(data.N, 67)
    family = {fp.J: dense_series(box, 5 + k, "coh")
              for k, fp in enumerate(enumerate_fixed_points(data))}
    for d0 in shifts(data.K):
        report = verify_coh_relation(data, d0, family, ctx)
        assert report == word_oracle.verify_coh_relation(data, d0, family, ctx), d0
        assert sum(len(c["failures"]) for c in report["checks"]) >= len(box.degrees) // 2


@pytest.mark.parametrize("name", MODELS)
def test_k_relation_of_every_shift_matches_the_per_degree_formula(name):
    # The shifts -e_i read sources beyond the bound, which are skipped, and
    # e_i - e_k sources off the cone, which are exact zeros.
    data, bound = model(name)
    box = truncation_box(data, bound)
    ctx = sample_context(data.N, 73)
    family = {fp.J: dense_series(box, 9 + k)
              for k, fp in enumerate(enumerate_fixed_points(data))}
    for d0 in shifts(data.K):
        checks = _verify_shift(data, family, d0, *_relation_sides(degree_pairing(data, d0)),
                               lambda fp: _binomials(data, fp, ctx), "relation")
        assert ([c["failures"] for c in checks]
                == word_oracle.k_relation_failures(data, d0, family, ctx)), d0


def test_the_shifts_reach_every_source_branch():
    # Some shift's source is a box degree, some an exact zero, some beyond
    # the bound, on the bundled f1 and on the skew basis.
    for name in ("f1", "F1skew"):
        data, bound = model(name)
        box = truncation_box(data, bound)
        kinds = set()
        for d0 in shifts(data.K):
            for d in box.degrees:
                source = tuple(x - y for x, y in zip(d, d0))
                kinds.add("key" if source in box.keys else
                          "beyond" if box.beyond(source) else "zero")
        assert kinds == {"key", "zero", "beyond"}, name


def test_coh_relation_steps_both_ways():
    # Some d0 has columns of both signs, so each side's product is exercised.
    for name in ("F1", "p1x3", "f2xp1"):
        data, _ = model(name)
        assert any(min(degree_pairing(data, d0)) < 0 < max(degree_pairing(data, d0))
                   for d0 in shifts(data.K))


@pytest.mark.parametrize("name", MODELS)
def test_box_pairing_rows_and_keys(name):
    data, bound = model(name)
    box = truncation_box(data, bound)
    assert list(box.pairings) == list(box.degrees)
    for d, predecessors in zip(box.degrees, box.predecessors):
        assert box.pairings[d] == degree_pairing(data, d)
        assert box.keys[d] == d
        below = [tuple(x - (k == i) for k, x in enumerate(d)) for i in range(data.K)]
        assert predecessors == tuple((box.degrees.index(e), i) for i, e in enumerate(below)
                                     if e in box.degrees)


def pairs(key, value):
    """A one-term mapping as the constructor reads one: through ``items()``,
    so that a key may be a list."""
    return SimpleNamespace(items=lambda: [(key, value)])


def test_constructor_keys(p1):
    box = truncation_box(p1, 2)
    for key in ([1], (Fraction(1),), (1,)):
        s = NovikovSeries(box, pairs(key, Fraction(3)))
        [stored] = s.coeffs
        assert stored == (1,) and type(stored) is tuple and type(stored[0]) is int
    for key in ([3], (3,), [-1], (-1,), (Fraction(1, 2),)):
        with pytest.raises(TruncationError):
            NovikovSeries(box, pairs(key, Fraction(1)))


def test_series_equality_respects_the_mode(p1):
    box = truncation_box(p1, 2)
    k = NovikovSeries(box, {(0,): Fraction(1), (1,): Fraction(2)})
    coh = NovikovSeries(box, dict(k.coeffs), mode="coh")
    assert k != coh
    assert k == NovikovSeries(box, dict(k.coeffs))
    with pytest.raises(ValueError):
        add(k, coh)
