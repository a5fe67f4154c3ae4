import json
import operator
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localization_oracle
from qtoric import cli, recursion
from qtoric.exprs import ExprError, parse_expression
from qtoric.models import (
    ModelFormatError,
    bundled_model_names,
    hirzebruch,
    load_bundled_model,
    parse_model_text,
    product_of_lines,
    projective_space,
    resolve_model,
)
from qtoric.scalars import PoleError, sample_context
from qtoric.toric import enumerate_fixed_points


# --- expression language ---------------------------------------------------


def test_expression_evaluation():
    env = {"P1": Fraction(2), "P2": Fraction(3), "L1": Fraction(5)}
    cases = [
        ("P1 + P2", 5),
        ("P1*P2 - L1", 1),
        ("3/2*P1", 3),
        ("P1^3", 8),
        ("P1^-1", Fraction(1, 2)),
        ("-(P1 - P2)^2", -1),
        ("2 - -3", 5),
        ("(P1 + 1)*(P2 - 1)", 6),
        ("7", 7),
    ]
    for text, expected in cases:
        assert parse_expression(text).evaluate(env) == expected


def test_expression_precedence():
    env = {}
    assert parse_expression("2 + 3 * 4").evaluate(env) == 14
    assert parse_expression("2 * 3 ^ 2").evaluate(env) == 18
    assert parse_expression("10 - 4 - 3").evaluate(env) == 3


def test_expression_errors():
    for bad in ("", "2 +", "P1 P2", "(1", "1 ^ x", "$"):
        with pytest.raises(ExprError):
            parse_expression(bad)
    with pytest.raises(ExprError):
        parse_expression("Px + 1").evaluate({})


SYMBOLS = {"P1": Fraction(2, 3), "L2": Fraction(-5, 7), "q": Fraction(3), "z_1": Fraction(-1, 2)}
GAPS = st.sampled_from(["", "", " ", "  ", "\n", "\t", "\r\n"])
SUM, PRODUCT, NEGATION, POWER, ATOM = range(5)  # precedence, loosest first
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@st.composite
def grammar_trees(draw, depth=4):
    """(text, precedence, value) of a random tree of the grammar, rendered
    with random spacing, leading zeros and redundant parentheses; the value
    is computed here, and is None where the tree divides by zero."""

    def operand(tree, level):
        text, precedence, value = tree
        if precedence < level or draw(st.integers(0, 7)) == 0:
            text = "(" + draw(GAPS) + text + draw(GAPS) + ")"
        return text + draw(GAPS), value

    kinds = ["number", "symbol"] + (["negation", "power", "sum", "product"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "number":
        n = draw(st.integers(0, 999))
        return "0" * draw(st.integers(0, 2)) + str(n), ATOM, Fraction(n)
    if kind == "symbol":
        name = draw(st.sampled_from(sorted(SYMBOLS)))
        return name, ATOM, SYMBOLS[name]
    if kind == "negation":
        text, value = operand(draw(grammar_trees(depth - 1)), NEGATION)
        return "-" + draw(GAPS) + text, NEGATION, None if value is None else -value
    if kind == "power":
        base, value = operand(draw(grammar_trees(depth - 1)), ATOM)
        k = draw(st.integers(-3, 3))
        exponent = ("-" + draw(GAPS) if k < 0 else "") + "0" * draw(st.integers(0, 1)) + str(abs(k))
        defined = value is not None and (value != 0 or k >= 0)
        return base + "^" + draw(GAPS) + exponent, POWER, value ** k if defined else None
    # Left-associative: the right operand binds tighter than the operator.
    level, right_level = (SUM, PRODUCT) if kind == "sum" else (PRODUCT, NEGATION)
    op = draw(st.sampled_from("+-" if kind == "sum" else "*/"))
    left, a = operand(draw(grammar_trees(depth - 1)), level)
    right, b = operand(draw(grammar_trees(depth - 1)), right_level)
    defined = a is not None and b is not None and (op != "/" or b != 0)
    value = OPERATORS[op](a, b) if defined else None
    return left + op + draw(GAPS) + right, level, value


@settings(max_examples=400, deadline=None)
@given(tree=grammar_trees(), before=GAPS, after=GAPS)
def test_parser_reads_every_tree_of_the_grammar(tree, before, after):
    text, _, value = tree
    expr = parse_expression(before + text + after)
    if value is None:
        with pytest.raises(ZeroDivisionError):
            expr.evaluate(SYMBOLS)
    else:
        assert expr.evaluate(SYMBOLS) == value


# Environments that lack symbols, hold ints, or hold zeros (zero divisors).
environments = st.dictionaries(
    st.sampled_from(sorted(SYMBOLS)),
    st.one_of(st.sampled_from([0, 1, -2, Fraction(0), Fraction(2, 3), Fraction(-5, 7)]),
              st.fractions(min_value=-9, max_value=9, max_denominator=20)))


def outcome(evaluate, *args):
    try:
        value = evaluate(*args)
    except (ExprError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    assert type(value) is Fraction
    return value


@settings(max_examples=400, deadline=None)
@given(tree=grammar_trees(), env=environments)
def test_compiled_expression_matches_the_tree_walk(tree, env):
    # The closures compiled at parse against the Fraction tree walk they
    # replaced: the same value, or the same unknown-symbol or zero-divisor error.
    expr = parse_expression(tree[0])
    assert outcome(expr.evaluate, env) == outcome(localization_oracle.evaluate_tree, expr.tree, env)


def test_deep_nesting_is_an_expression_error():
    with pytest.raises(ExprError, match="nested too deeply"):
        parse_expression("1" + "+P1" * 5000)
    expr = parse_expression("-" * 300 + "P1")
    env = {"P1": Fraction(2)}
    assert expr.evaluate(env) == 2

    def deep(n, evaluate, *args):
        return deep(n - 1, evaluate, *args) if n else outcome(evaluate, *args)
    # Evaluated with little stack left: the same error from both routes.
    depth = sys.getrecursionlimit() - 200
    compiled = deep(depth, expr.evaluate, env)
    assert compiled == deep(depth, localization_oracle.evaluate_tree, expr.tree, env)
    assert compiled == (ExprError, "expression nested too deeply (at position 0)")


REJECTED = [
    "", " \n ", "2**3", "2 ** 3", "2^(3)", "2^x", "2^3^2", "2^-(3)", "2^--3", "0x10", "0b1",
    "0o7", "1_000", "1.5", "1e3", "10j", "+1", "1 + +2", "_x", "P1é", "f(1)", "P1(2)",
    "P1.numerator", "P1[0]", "1 < 2", "1 == 1", "P1 and q", "P1 or q", "not q", "7 // 2",
    "7 % 2", "P1 @ q", "1 & 2", "1 | 2", "1 ^^ 2", "1 << 2", "~1", "1 if q else 2",
    "1if q else 2", "lambda: 1", "(x := 1)", "'1'", "1 # comment", "1 +\\\n2", "()",
    "(1, 2)", "[1]", "if", "True", "None", "lambda", "q is q", "(yield)",
]
ODD_BUT_ACCEPTED = {
    "P1^ - 2": Fraction(9, 4), "007": 7, "2^-007": Fraction(1, 128), "00": 0,
    "1\n+\n2": 3, "\t(1 +\r\n 2 )\n": 3, "--1": 1, "2 - -3": 5, "(2^3)^2": 64,
    "-2^2": -4, "2*-3": -6, "2^\n3": 8, "3/2*P1": 1, "z_1^2": Fraction(1, 4),
}


def test_language_table(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for text in REJECTED:
            with pytest.raises(ExprError):
                parse_expression(text)
        for text, value in ODD_BUT_ACCEPTED.items():
            assert parse_expression(text).evaluate(SYMBOLS) == value, text
    assert not caught  # Python warns "invalid decimal literal" on 1if
    assert capsys.readouterr().err == ""


# --- model files -------------------------------------------------------------


def test_bundled_models_match_builtins():
    pairs = [
        ("p1", projective_space(1)),
        ("p2", projective_space(2)),
        ("f1", hirzebruch()),
        ("p1xp1", product_of_lines()),
    ]
    for name, builtin in pairs:
        model = load_bundled_model(name)
        assert model.data.m == builtin.m
        assert model.data.omega == builtin.omega
        assert enumerate_fixed_points(model.data) == enumerate_fixed_points(builtin)


def test_bundled_f1_has_four_fixed_points():
    model = load_bundled_model("f1")
    assert len(enumerate_fixed_points(model.data)) == 4


def test_bundle_block_parses():
    model = load_bundled_model("p2_o1_o2")
    assert model.bundle is not None
    assert model.bundle.parity == "E"
    assert model.bundle.exponents == ((1, 2),)
    assert model.bound == 5
    assert load_bundled_model("p2_o1_o2_pi").bundle.parity == "PiE"


def test_empty_model_is_schema_error():
    with pytest.raises(ModelFormatError) as info:
        parse_model_text("")
    assert any(d.code == "empty-model" for d in info.value.diagnostics)


def test_non_integer_matrix_entry_diagnostic():
    text = "name x\nmatrix 1 2\n1 1/2\nomega 1\n"
    with pytest.raises(ModelFormatError) as info:
        parse_model_text(text)
    diag = [d for d in info.value.diagnostics if d.code == "non-integer-entry"]
    assert diag and diag[0].line == 3


def test_model_diagnostics_cover_shapes():
    head = "name x\nmatrix 1 2\n1 1\nomega 1\n"  # a rank-1 model on lines 1-4
    surface = "name x\nmatrix 2 4\n1 1 0 -1\n0 0 1 1\nomega 1 1\n"
    bad_cases = {  # text -> (code, line of the diagnostic)
        "name x\nmatrix 1 2\n1\nomega 1\n": ("row-shape", 3),
        "name x\nmatrix 1 2\n1 1\n": ("missing-directive", 3),
        "name x\nname y\nmatrix 1 2\n1 1\nomega 1\n": ("duplicate-directive", 2),
        head + "bundle Q 1\n1\n": ("bundle-parity", 5),
        "name x\nbundle E 1\nmatrix 1 2\n1 1\nomega 1\n": ("bundle-order", 2),
        head + "frobnicate 3\n": ("unknown-directive", 5),
        "name x\nmatrix 1 2\n1 1\nomega 1 2\n": ("omega-shape", 4),
        "name x\nmatrix 1 2\n1 1\n\n# weights\nomega 1 2\n": ("omega-shape", 6),
        head + "truncation bound -3\n": ("bad-number", 5),
        head + "sampling samples 0\n": ("bad-number", 5),
        head + "sampling seed x\n": ("bad-number", 5),
        head + "sampling samples 1.5\n": ("bad-number", 5),
        surface + "truncation ample 1 1 5\n": ("ample-shape", 6),
        surface + "truncation ample 2\n": ("ample-shape", 6),
        head + "truncation bound 3 9\n": ("directive-shape", 5),
        head + "sampling seed 4 junk\n": ("directive-shape", 5),
        head + "truncation bound\n": ("directive-shape", 5),
        head + "sampling seed\n": ("directive-shape", 5),
        head + "truncation bound 3\ntruncation bound 4\n": ("duplicate-directive", 6),
        surface + "truncation ample 1 1\n#\ntruncation ample 1 2\n": ("duplicate-directive", 8),
        head + "sampling seed 1\nsampling seed 2\n": ("duplicate-directive", 6),
        head + "sampling samples 2\nsampling samples 3\n": ("duplicate-directive", 6),
        head + "bundle E 1\n": ("matrix-shape", 5),
        head + "bundle E 2\n1\n": ("row-shape", 6),
    }
    for text, (code, line) in bad_cases.items():
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text)
        found = [(d.code, d.line) for d in info.value.diagnostics]
        assert (code, line) in found, (text, info.value)


# Spellings that ``int`` or ``Fraction`` read but model files refuse: digit
# separators, exponents, and digits that are not ASCII (Arabic-Indic, superscript).
NOT_ASCII_NUMBERS = ["1_0", "1/1_0", "1e3", "1E0", "\u0661", "\u00b9"]
SPELLING_HEAD = "name x\nmatrix 1 2\n1 1\nomega 1\n"  # lines 1-4


def spelling_cases(text):
    """Model text -> (code, line) with ``text`` in each numeric position."""
    return {
        f"name x\nmatrix {text} 2\n1 1\nomega 1\n": ("directive-shape", 2),
        f"name x\nmatrix 1 {text}\n1 1\nomega 1\n": ("directive-shape", 2),
        SPELLING_HEAD + f"bundle E {text}\n1\n": ("bundle-parity", 5),
        f"name x\nmatrix 1 2\n1 {text}\nomega 1\n": ("bad-number", 3),
        SPELLING_HEAD + f"bundle E 2\n{text} 1\n": ("bad-number", 6),
        f"name x\nmatrix 1 2\n1 1\nomega {text}\n": ("bad-number", 4),
        SPELLING_HEAD + f"truncation bound {text}\n": ("bad-number", 5),
        SPELLING_HEAD + f"truncation ample {text}\n": ("bad-number", 5),
        SPELLING_HEAD + f"sampling seed {text}\n": ("bad-number", 5),
        SPELLING_HEAD + f"sampling samples {text}\n": ("bad-number", 5),
    }


@pytest.mark.parametrize("text", NOT_ASCII_NUMBERS)
def test_model_numbers_are_ascii_in_every_position(text):
    for model, (code, line) in spelling_cases(text).items():
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(model)
        # The refused number is the file's one fault: a refused block's rows are
        # skipped, and a refused directive is not reported missing.
        assert [d[:2] for d in info.value.diagnostics] == [(code, line)], model


REFUSED_ROW = "name x\nmatrix 2 4\n1 1 1_0 0\n0 0 1 1\nomega 20 1\n"  # lines 1-5


@pytest.mark.parametrize("text, code, line", [
    (REFUSED_ROW, "bad-number", 3),
    ("name x\nmatrix 2 x\n1 1 0 -1\n0 0 1 1\nomega 1 1\n", "directive-shape", 2),
    ("name x\nmatrix 2 4\n1 1 0\n0 0 1 1\nomega 1 1\n", "row-shape", 3),
    (REFUSED_ROW + "bundle E 1\n1\n# second row\n2\n", "bad-number", 3),
    # Zero counts, refused on their own line.
    ("name x\nmatrix 0 2\nomega 1\n", "directive-shape", 2),
    ("name x\nmatrix 1 0\n1 1\nomega 1\n", "directive-shape", 2),
    (SPELLING_HEAD + "bundle E 0\n1\n", "bundle-parity", 5),
])
def test_a_refused_block_is_one_diagnostic(text, code, line):
    # A block directive owns its next K rows: after a refused count or row, no
    # row is read as a directive, and the matrix is neither missing nor absent
    # for the bundle block after it.
    with pytest.raises(ModelFormatError) as info:
        parse_model_text(text)
    assert [d[:2] for d in info.value.diagnostics] == [(code, line)]


@pytest.mark.parametrize("first, fault", [("1 1 0 -1", ("row-shape", 4)),
                                          ("1 1 1_0 0", ("bad-number", 3))])
def test_a_block_owns_its_next_rows_whatever_they_hold(first, fault):
    # The omega line is the second of two matrix rows, whether or not the first
    # row is refused, so omega is missing either way.
    with pytest.raises(ModelFormatError) as info:
        parse_model_text(f"name x\nmatrix 2 4\n{first}\nomega 20 1\n")
    assert [d[:2] for d in info.value.diagnostics] == [fault, ("missing-directive", 4)]
    assert info.value.diagnostics[-1].message == "missing 'omega'"


def test_model_numbers_keep_their_ascii_spellings():
    model = parse_model_text("name x\nmatrix 02 2\n+1 2/1\n1.0 -0\nomega 3/2 2.50\n"
                             "bundle E 01\n-2/1\n+1.0\ntruncation bound 5/2\n"
                             "truncation ample 1.5 +1\nsampling seed -07\n")
    assert model.data.m == ((1, 2), (1, 0))
    assert model.data.omega == (Fraction(3, 2), Fraction(5, 2))
    assert model.bundle.exponents == ((-2,), (1,))
    assert model.bound == Fraction(5, 2) and model.ample == (Fraction(3, 2), 1)
    assert model.seed == -7


@pytest.mark.parametrize("gap", ["# second row\n", "\n", "  \t\n", "  # indented\n\n"])
def test_block_rows_skip_blank_and_comment_lines(gap):
    text = ("name x\nmatrix 2 4\n1 1 0 -1\n" + gap + "0 0 1 1\nomega 1 1\n"
            "bundle E 1\n" + gap + "1\n" + gap + "2 # last row\n")
    model = parse_model_text(text)
    assert model.data.m == ((1, 1, 0, -1), (0, 0, 1, 1))
    assert model.bundle.exponents == ((1,), (2,))


def test_model_sampling_defaults():
    text = "name x\nmatrix 1 2\n1 1\nomega 1\nsampling seed 7\nsampling samples 9\n"
    model = parse_model_text(text)
    assert model.seed == 7 and model.samples == 9


def test_resolve_model_by_name_and_path(tmp_path):
    assert resolve_model("p1").data.name == "p1"
    assert resolve_model("p1.model").data.name == "p1"
    path = tmp_path / "mine.model"
    path.write_text("name mine\nmatrix 1 2\n1 1\nomega 1\n")
    assert resolve_model(str(path)).data.name == "mine"
    with pytest.raises(FileNotFoundError):
        resolve_model("nope")
    assert "f1" in bundled_model_names()


# --- command line -------------------------------------------------------------


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_inspect_p1(capsys):
    code, report = run(["inspect", "p1"], capsys)
    assert code == 0
    assert report["result"]["fixed_points"][0]["J"] == [1]
    assert len(report["result"]["fixed_points"]) == 2
    assert report["result"]["mori_generators"] == [[1]]
    assert report["model"]["sha256"]


def test_cli_trace_value_one(capsys):
    code, report = run(["trace", "f1", "--phi", "1", "--samples", "3"], capsys)
    assert code == 0
    assert [v["value"] for v in report["result"]["values"]] == ["1", "1", "1"]


def test_cli_verify_dq(capsys):
    code, report = run(["verify-dq", "f1", "--deg", "3", "--seed", "5"], capsys)
    assert code == 0 and report["ok"]


def test_cli_verify_recursion_single_edge(capsys):
    code, report = run(
        ["verify-recursion", "p1", "--m", "1", "--edge", "1:2", "--deg", "3",
         "--samples", "1"], capsys)
    assert code == 0 and report["ok"]
    assert len(report["result"]["edges"]) == 1


@pytest.mark.parametrize("model, edge", [
    ("f1", "1,2:3"),    # {1, 2} is not a fixed point of F_1
    ("f1", "1,3:3"),    # j0 = 3 lies on alpha
    ("f1", "1,3:5"),    # F_1 has 4 columns
    ("p1", "1:0"),      # column 0 is out of range too
], ids=["alpha-not-fixed", "j0-on-alpha", "j0-past-n", "j0-zero"])
def test_cli_edge_without_an_orbit_exits_two(model, edge, capsys):
    code, report = run(["verify-recursion", model, "--edge", edge, "--samples", "1"], capsys)
    assert code == 2
    assert report["error"] == f"no orbit matches --edge {edge!r}"


def test_cli_edge_solves_one_orbit_once(monkeypatch, capsys):
    calls = []

    def counted(data, alpha, j0):
        calls.append((alpha.J, j0))
        return real(data, alpha, j0)

    real = recursion.orbit_data
    monkeypatch.setattr(cli, "orbit_data", counted)
    monkeypatch.setattr(recursion, "orbit_data", counted)
    code, report = run(["verify-recursion", "f1", "--edge", "1,3:2", "--deg", "2",
                        "--samples", "3"], capsys)
    assert code == 0 and report["ok"] and len(report["result"]["edges"]) == 3
    assert calls == [((0, 2), 1)]


def test_cli_integrate_xd(capsys):
    code, report = run(
        ["integrate-xd", "p1", "--degree", "0", "--phi", "p1 - l2"], capsys)
    assert code == 0
    assert report["result"]["value"] == report["result"]["direct_integral"] == "1"


def test_cli_integrate_xd_in_another_column_order(tmp_path, capsys):
    # P^1 x P^1 with its columns interleaved has a fixed-point minor with
    # det -1; the point class still integrates to 1.
    path = tmp_path / "interleaved.model"
    path.write_text("name interleaved\nmatrix 2 4\n1 0 1 0\n0 1 0 1\nomega 1 1\n")
    code, report = run(["integrate-xd", str(path), "--degree", "0,0", "--phi", "p1*p2",
                        "--seed", "11"], capsys)
    assert code == 0 and report["ok"]
    assert report["result"]["value"] == report["result"]["direct_integral"] == "1"


SURFACE8_PATH = str(Path(__file__).parent / "data" / "surface8.model")


def test_cli_on_the_eight_ray_surface(capsys):
    # A blow-up of P^2 with 8 rays: its Mori cone comes from 8 curve classes.
    data = resolve_model(SURFACE8_PATH).data
    for argv in (["inspect"], ["verify-dq", "--deg", "3"],
                 ["verify-recursion", "--deg", "2", "--m", "2"]):
        code, report = run([argv[0], SURFACE8_PATH, "--seed", "11", *argv[1:]], capsys)
        assert code == 0 and report["ok"], argv
    # Both directions of each of the 8 curves, once per sample.
    assert len(report["result"]["edges"]) == 16 * report["samples"]
    divisors = ["(" + "+".join(f"{data.m[i][j]}*p{i + 1}" for i in range(data.K)) + f"-l{j + 1})"
                for j in range(data.N)]
    c1 = "(" + "+".join(divisors) + ")"
    c2 = "+".join(f"{a}*{b}" for k, a in enumerate(divisors) for b in divisors[k + 1:])
    for phi, value in (("1", "0"), (f"{c1}^2", "4"), (c2, "8")):
        code, report = run(["integrate-xd", SURFACE8_PATH, "--degree", "0,0,0,0,0,0",
                            "--phi", phi, "--seed", "11"], capsys)
        assert code == 0 and report["ok"]
        assert report["result"]["value"] == report["result"]["direct_integral"] == value


THREEFOLD7_PATH = str(Path(__file__).parent / "data" / "threefold7.model")


def test_cli_on_the_seven_ray_threefold(capsys):
    # Four of its minors give omega a zero chamber coefficient beside a
    # negative one: omega lies outside those cones, not on a wall.
    code, report = run(["inspect", THREEFOLD7_PATH], capsys)
    assert code == 0 and report["ok"]
    assert len(report["result"]["fixed_points"]) == 10
    assert report["result"]["mori_generators"] == [
        [0, -1, 0, 1], [1, 1, 0, -1], [0, -1, 1, 0], [1, 1, -1, 0], [-2, -1, 1, 1]]
    code, report = run(["trace", THREEFOLD7_PATH, "--phi", "1", "--samples", "2"], capsys)
    assert code == 0 and report["ok"]
    assert [v["value"] for v in report["result"]["values"]] == ["1", "1"]
    code, report = run(["verify-dq", THREEFOLD7_PATH, "--deg", "2"], capsys)
    assert code == 0 and report["ok"]


def test_cli_ifunction_with_bundle(capsys):
    code, report = run(["ifunction", "p2_o1_o2", "--deg", "2", "--bundle"], capsys)
    assert code == 0
    comps = report["result"]["components"]
    assert len(comps) == 3
    assert comps[0]["coefficients"]["[0]"] == "1"


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no integer string conversion limit")


@needs_digit_limit
def test_cli_renders_coefficients_beyond_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, report = run(["ifunction", "p2_o1_o2", "--bundle", "--deg", "30", "--seed", "11",
                        "--samples", "1"], capsys)
    assert code == 0
    longest = max(len(c) for comp in report["result"]["components"]
                  for c in comp["coefficients"].values())
    assert longest > 4300
    assert sys.get_int_max_str_digits() == limit


@needs_digit_limit
def test_cli_parses_inputs_under_the_digit_limit(capsys):
    code, report = run(["integrate-xd", "p1", "--degree", "1" * 5000, "--phi", "1"], capsys)
    assert code == 2
    assert "limit" in report["error"]


def test_cli_determinism(capsys):
    _, first = run(["kirwan", "f1", "--seed", "11"], capsys)
    code = cli.main(["kirwan", "f1", "--seed", "11"])
    second = json.loads(capsys.readouterr().out)
    assert first == second
    blob1 = json.dumps(first, indent=2, sort_keys=True)
    blob2 = json.dumps(second, indent=2, sort_keys=True)
    assert blob1 == blob2


def test_cli_input_errors_exit_two(tmp_path, capsys):
    empty = tmp_path / "empty.model"
    empty.write_text("")
    assert cli.main(["inspect", str(empty)]) == 2
    capsys.readouterr()
    assert cli.main(["inspect", "missing-model"]) == 2
    capsys.readouterr()
    assert cli.main(["trace", "p1", "--phi", "(((", "--samples", "1"]) == 2
    capsys.readouterr()


def test_cli_deep_expressions_are_input_errors(capsys):
    for phi in ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1", "+".join(["1"] * 30000)):
        code, report = run(["trace", "p1", "--phi=" + phi, "--samples", "1"], capsys)
        assert code == 2
        assert "(at position" in report["error"]  # an ExprError, not a crash


@pytest.mark.parametrize("argv, phis", [
    (["trace", "p1"], ("0^-1", "1/0", "1/(P1-P1)")),
    (["integrate-xd", "f1", "--degree", "1,1"], ("0^-1", "1/0", "1/(p1-p1)")),
], ids=["trace", "integrate-xd"])
def test_cli_class_dividing_by_zero_is_an_input_error(argv, phis, capsys):
    for phi in phis:
        code, report = run(argv + ["--phi", phi, "--samples", "1"], capsys)
        assert (code, report) == (2, {"error": "division by zero in class expression"}), phi


def test_cli_class_dividing_by_zero_at_one_context_is_resampled(capsys):
    lambda1 = sample_context(2, 5, 0).Lambda[0]
    code, report = run(["trace", "p1", "--phi", f"1/(L1 - {lambda1})", "--samples", "1",
                        "--seed", "5"], capsys)
    assert code == 0 and report["ok"]
    assert report["resamples"] == [
        {"index": 0, "reason": "ZeroDivisorError: division by zero in class expression"}]
    assert report["result"]["values"][0]["q"] == str(sample_context(2, 5, 1).q)


def test_cli_rejects_vacuous_counts(tmp_path, capsys):
    for argv in (["trace", "p1", "--phi", "1", "--samples", "0"],
                 ["kirwan", "p1", "--samples", "-2"],
                 ["verify-dq", "p1", "--deg", "-1"],
                 ["verify-coh", "p1", "--deg", "-1"],
                 ["verify-recursion", "p1", "--deg", "-1"]):
        assert cli.main(argv) == 2, argv
        capsys.readouterr()
    # m = 0 would read as a degenerate sample (exit 1) without the input check.
    for m in ("0", "-1"):
        code, report = run(["verify-recursion", "p1", "--m", m], capsys)
        assert code == 2
        assert report["error"] == f"--m must be at least 1, got {m}"
    path = tmp_path / "bad.model"
    path.write_text("name x\nmatrix 1 2\n1 1\nomega 1\n"
                    "sampling samples 0\ntruncation bound -3\n")
    code, report = run(["verify-dq", str(path)], capsys)
    assert code == 2
    assert "line 5: [bad-number]" in report["error"]
    assert "line 6: [bad-number]" in report["error"]


def test_cli_malformed_edge_names_the_expected_form(capsys):
    for edge in ("1,2", "1:2:3", "1,x:2"):
        code, report = run(["verify-recursion", "p1", "--edge", edge], capsys)
        assert code == 2
        assert report["error"] == ("--edge must have the form 'a1,a2:j0' "
                                   f"(1-based indices), got {edge!r}")


# Spellings that ``int`` reads but the integer flags refuse: a digit
# separator, surrounding space, a digit of another script, and a decimal point.
# So do a model file's integer fields (``sampling seed``, ``sampling samples``);
# its matrix and bundle entries, rationals of integral value, read 1.0 as 1.
NOT_INTEGERS = ["1_0", " 1", "1 ", "١", "1.0", ""]


@pytest.mark.parametrize("text", NOT_INTEGERS)
def test_cli_degree_and_edge_read_integers_as_model_files_do(text, capsys):
    # Commas and spaces separate a degree's coordinates; so " 1" is the degree 1.
    if text.strip() == text:
        code, report = run(["integrate-xd", "p1", "--degree", text, "--phi", "1"], capsys)
        assert code == 2 and "error" in report, report
    edge = f"1:{text}"
    code, report = run(["verify-recursion", "p1", "--edge", edge], capsys)
    assert code == 2
    assert report["error"] == ("--edge must have the form 'a1,a2:j0' "
                               f"(1-based indices), got {edge!r}")
    code, report = run(["verify-recursion", "f1", "--edge", f"1,{text}:2"], capsys)
    assert code == 2


@pytest.mark.parametrize("flag", ["--seed", "--samples", "--deg", "--m"])
@pytest.mark.parametrize("text", NOT_INTEGERS)
def test_cli_integer_flags_read_integers_as_model_files_do(flag, text, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-recursion", "p1", flag, text])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid integer value: {text!r}" in capsys.readouterr().err


def test_cli_signed_and_padded_integers_are_read(capsys):
    code, report = run(["integrate-xd", "f1", "--degree", "+01, -1", "--phi", "1",
                        "--seed", "+007", "--samples", "01"], capsys)
    assert code == 0 and report["result"]["degree"] == [1, -1] and report["seed"] == 7
    code, report = run(["verify-recursion", "f1", "--edge", "+01,03:02", "--m", "+1",
                        "--deg", "02", "--samples", "1"], capsys)
    assert code == 0 and report["ok"]
    assert [(e["alpha"], e["j0"]) for e in report["result"]["edges"]] == [([1, 3], 2)]


def test_cli_bundle_flag_needs_a_bundle_block(capsys):
    code, report = run(["ifunction", "p2", "--bundle", "--samples", "1"], capsys)
    assert (code, report) == (2, {"error": "--bundle: model 'p2' has no bundle block"})


# O(-1) over P^1, and threefold7's matrix at an omega where columns 2 and 6
# lie in all 6 fixed points.
NOT_COMPACT = "name o_minus_1\nmatrix 1 3\n1 1 -1\nomega 1\n"
EMPTY_DIVISOR = Path(THREEFOLD7_PATH).read_text().replace("omega 3 5 7 7",
                                                          "omega 20 19 43 16")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("text, error", [
    (NOT_COMPACT, "column 3 leaves fixed point (1,) along an unbounded edge: "
                  "the quotient is not compact"),
    (EMPTY_DIVISOR, "divisor D_2 is empty: column 2 lies in every fixed point "
                    "(omega is outside the moving cone)"),
], ids=["not-compact", "empty-divisor"])
def test_cli_refuses_non_compact_models_and_empty_divisors(text, error, command, tmp_path,
                                                           capsys):
    path = tmp_path / "refused.model"
    path.write_text(text)
    data = resolve_model(str(path)).data
    assert enumerate_fixed_points(data)  # the library still lists the fixed points
    flags = {"trace": ["--phi", "1"],
             "integrate-xd": ["--degree", ",".join("0" * data.K), "--phi", "1"]}
    code, report = run([command, str(path), "--samples", "1", *flags.get(command, [])], capsys)
    assert (code, report) == (2, {"error": error})


def test_cli_bound_defaults_to_the_model_file(capsys):
    # p2_o1_o2.model sets "truncation bound 5"; --deg still wins.
    for command in ("ifunction", "verify-dq", "verify-coh", "verify-recursion"):
        _, report = run([command, "p2_o1_o2", "--samples", "1"], capsys)
        assert report["parameters"]["deg"] == "5", command
    _, report = run(["verify-dq", "p2_o1_o2", "--deg", "2", "--samples", "1"], capsys)
    assert report["parameters"]["deg"] == "2"


RUNNER_CASES = [
    (["trace", "f1", "--phi", "1"], ("values",), "q"),
    (["kirwan", "f1"], ("verification", "checks"), "q"),
    (["verify-dq", "f1", "--deg", "2"], ("checks",), "q"),
    (["verify-coh", "f1", "--deg", "2"], ("relations",), "q"),
    (["verify-recursion", "p1", "--edge", "1:2", "--deg", "2"], ("edges",), "mu"),
]


@pytest.mark.parametrize("argv, path, key", RUNNER_CASES,
                         ids=[argv[0] for argv, _, _ in RUNNER_CASES])
def test_cli_samples_counts_the_contexts_checked(argv, path, key, capsys):
    reports = {}
    for n in (1, 3):
        code, report = run(argv + ["--samples", str(n), "--seed", "7"], capsys)
        assert code == 0 and report["ok"] and report["samples"] == n
        entries = report["result"]
        for step in path:
            entries = entries[step]
        reports[n] = entries
    contexts = {(e["sample"], e[key]) for e in reports[3]}
    assert sorted(i for i, _ in contexts) == [0, 1, 2]      # one context per sample
    assert len({c for _, c in contexts}) == 3                # three distinct contexts
    assert len(reports[3]) == 3 * len(reports[1])
    assert [e for e in reports[3] if e["sample"] == 0] == reports[1]


def test_cli_resamples_are_reported_and_reproducible(monkeypatch, capsys):
    first = sample_context(3, 5, 0)
    real = cli.ktheory_trace

    def trace(data, phi, ctx):
        if ctx == first:
            raise PoleError(2, Fraction(1, 2))
        return real(data, phi, ctx)

    monkeypatch.setattr(cli, "ktheory_trace", trace)
    argv = ["trace", "p2", "--phi", "1", "--samples", "2", "--seed", "5"]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["resamples"] == [
        {"index": 0, "reason": "PoleError: vanishing factor 1 - q^2 u at u=1/2"}]
    assert [v["q"] for v in report["result"]["values"]] == [
        str(sample_context(3, 5, 1).q), str(sample_context(3, 5, 100).q)]


def test_cli_recursion_resamples_name_their_edge(monkeypatch, capsys):
    # Every edge samples the same context indices, so each skipped index is
    # tagged with the edge (alpha, j0) whose sampling skipped it.
    real = recursion._check_recursion
    p1 = projective_space(1)
    one, two = sorted(recursion.all_orbits(p1), key=lambda o: o.alpha.J)
    skipped, kept = (recursion.root_context(p1, two, 1, 5, index) for index in (100, 101))

    def check(data, orbit, m, box, ctx, mu):
        if orbit.alpha.J == (1,) and ctx == skipped[0]:
            raise PoleError(1, mu)
        return real(data, orbit, m, box, ctx, mu)

    monkeypatch.setattr(recursion, "_check_recursion", check)
    code, report = run(["verify-recursion", "p1", "--deg", "2", "--samples", "2",
                        "--seed", "5"], capsys)
    assert code == 0 and report["ok"]
    assert [(r["alpha"], r["j0"], r["index"]) for r in report["resamples"]] == [([2], 1, 100)]
    assert report["resamples"][0]["reason"].startswith("PoleError: ")
    edges = {(e["alpha"][0], e["sample"]): e["mu"] for e in report["result"]["edges"]}
    assert edges[(1, 1)] == str(recursion.root_context(p1, one, 1, 5, 100)[1])
    assert edges[(2, 1)] == str(kept[1])


def test_cli_inspect_checks_no_context(capsys):
    _, report = run(["inspect", "f1", "--samples", "4"], capsys)
    assert report["samples"] == 0 and report["resamples"] == []


def test_cli_identity_failure_exits_one(monkeypatch, capsys):
    def fake(model, seed, samples, args):
        return cli._report("inspect", model, seed, samples, {}, False, {"broken": True})

    monkeypatch.setitem(cli.COMMANDS, "inspect", fake)
    assert cli.main(["inspect", "p1"]) == 1
    capsys.readouterr()


def test_cli_closed_stdout_exits_141_quietly():
    # qtoric ifunction p2 --deg 30 | head -c 10: the report (about 200 kB)
    # outgrows the pipe, so the writer meets the closed end.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "qtoric.cli", "ifunction", "p2", "--deg", "30"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_CLOSED_STDOUT == 141
    assert head == b'{\n  "comma'
    assert stderr == b""


def test_cli_seed_is_flag_then_model_then_one(monkeypatch, tmp_path, capsys):
    # A QTORIC_SEED in the environment changes nothing: the seed is the flag,
    # else the model's sampling seed, else 1.
    monkeypatch.setenv("QTORIC_SEED", "99")
    path = tmp_path / "seeded.model"
    path.write_text("name seeded\nmatrix 1 2\n1 1\nomega 1\nsampling seed 7\n")
    for argv, seed in ((["kirwan", "p1"], 1), (["kirwan", str(path)], 7),
                       (["kirwan", str(path), "--seed", "5"], 5),
                       (["kirwan", "p1", "--seed", "5"], 5)):
        code, report = run(argv + ["--samples", "1"], capsys)
        assert code == 0 and report["seed"] == seed
