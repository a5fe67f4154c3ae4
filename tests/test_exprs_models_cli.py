import json
import sys
from fractions import Fraction

import pytest

from qtoric import cli
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
    bad_cases = {
        "name x\nmatrix 1 2\n1\nomega 1\n": "row-shape",
        "name x\nmatrix 1 2\n1 1\n": "missing-directive",
        "name x\nname y\nmatrix 1 2\n1 1\nomega 1\n": "duplicate-directive",
        "name x\nmatrix 1 2\n1 1\nomega 1\nbundle Q 1\n1\n": "bundle-parity",
        "name x\nbundle E 1\nmatrix 1 2\n1 1\nomega 1\n": "bundle-order",
        "name x\nmatrix 1 2\n1 1\nomega 1\nfrobnicate 3\n": "unknown-directive",
        "name x\nmatrix 1 2\n1 1\nomega 1 2\n": "omega-shape",
    }
    for text, code in bad_cases.items():
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text)
        assert any(d.code == code for d in info.value.diagnostics), (text, info.value)


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
        ["verify-recursion", "p1", "--m", "1", "--edge", "1:2", "--deg", "3"], capsys)
    assert code == 0 and report["ok"]
    assert len(report["result"]["edges"]) == 1


def test_cli_integrate_xd(capsys):
    code, report = run(
        ["integrate-xd", "p1", "--degree", "0", "--phi", "p1 - l2"], capsys)
    assert code == 0
    assert report["result"]["value"] == report["result"]["direct_integral"] == "1"


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


def test_cli_identity_failure_exits_one(monkeypatch, capsys):
    def fake(model, seed, samples, args):
        return cli._report("inspect", model, seed, samples, {}, False, {"broken": True})

    monkeypatch.setitem(cli.COMMANDS, "inspect", fake)
    assert cli.main(["inspect", "p1"]) == 1
    capsys.readouterr()


def test_cli_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV, "99")
    _, report = run(["kirwan", "p1"], capsys)
    assert report["seed"] == 99
