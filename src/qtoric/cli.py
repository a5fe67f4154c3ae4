"""Command line surface: model input, dispatch, JSON reports.

Every command echoes the model hash, seed and sample count, and identical
model + seed produce byte-identical reports.  Exit codes: 0 all checks pass,
1 some identity failed, 2 input error.

Exact coefficients can run to tens of thousands of digits, so the report is
computed and rendered with the interpreter's limit on integer string
conversion lifted; every input is parsed before that, under the limit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .exprs import ExprError, parse_expression
from .kirwan import kirwan_relations, spectrum_point_count, verify_relations_at_fixed_points
from .localization import cohomology_integral, ktheory_trace, map_space_integral
from .models import ModelFile, ModelFormatError, resolve_model
from .qdiff import verify_coh_relation, verify_dq_system
from .recursion import all_orbits, verify_residue_recursion
from .scalars import sample_context, with_resampling
from .series import assemble_series, truncation_box
from .toric import (
    InvalidModelError,
    degree_pairing,
    enumerate_fixed_points,
    mori_generators,
)

SEED_ENV = "QTORIC_SEED"


def _default_seed(model: ModelFile, flag_seed: int | None) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return int(env)
    if model.seed is not None:
        return model.seed
    return 1


def _report(command: str, model: ModelFile, seed: int, samples: int,
            parameters: dict, ok: bool, result) -> dict:
    return {
        "command": command,
        "model": {"name": model.data.name, "sha256": model.sha256},
        "seed": seed,
        "samples": samples,
        "parameters": parameters,
        "ok": ok,
        "result": result,
    }


def _parse_degree(text: str, k: int) -> tuple[int, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != k:
        raise InvalidModelError(f"degree needs {k} comma-separated integers")
    return tuple(int(p) for p in parts)


def cmd_inspect(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    fps = enumerate_fixed_points(data)
    names = data.lambda_names
    result = {
        "K": data.K,
        "N": data.N,
        "fixed_points": [
            {
                "J": [j + 1 for j in fp.J],
                "det": fp.det,
                "P": [mon.format(names) for mon in fp.p_monomials],
                "U": [mon.format(names) for mon in fp.u_monomials],
                "degree_cone": [list(g) for g in fp.degree_generators],
            }
            for fp in fps
        ],
        "smooth": True,
        "kirwan_relations": [[j + 1 for j in rel.J] for rel in kirwan_relations(data)],
        "mori_generators": [list(g) for g in mori_generators(data)],
        "bundle": None if model.bundle is None else {
            "parity": model.bundle.parity,
            "exponents": [list(r) for r in model.bundle.exponents],
        },
    }
    return _report("inspect", model, seed, samples, {}, True, result)


def cmd_kirwan(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    ctx = sample_context(data.N, seed)
    verification = verify_relations_at_fixed_points(data, ctx)
    count, _ = with_resampling(
        lambda t: sample_context(data.N, seed, t),
        lambda c: spectrum_point_count(data, c),
    )
    result = {
        "relations": [[j + 1 for j in rel.J] for rel in kirwan_relations(data)],
        "verification": verification,
        "spectrum_points": count,
        "fixed_points": len(enumerate_fixed_points(data)),
    }
    ok = verification["ok"] and count == len(enumerate_fixed_points(data))
    return _report("kirwan", model, seed, samples, {}, ok, result)


def cmd_trace(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    phi = args.phi_class
    values = []
    for i in range(samples):
        value, ctx = with_resampling(
            lambda t, i=i: sample_context(data.N, seed, i * 100 + t),
            lambda c: ktheory_trace(data, phi, c),
        )
        values.append({
            "sample": i,
            "q": str(ctx.q),
            "Lambda": [str(x) for x in ctx.Lambda],
            "value": str(value),
        })
    return _report("trace", model, seed, samples, {"phi": args.phi}, True,
                   {"values": values})


def cmd_ifunction(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    if args.deg is not None:
        bound = args.deg
    else:
        bound = model.bound if model.bound is not None else 4
    box = truncation_box(data, bound, model.ample)
    ctx = sample_context(data.N, seed)
    bundle = model.bundle if args.bundle else None
    family = assemble_series(data, box, ctx, bundle=bundle)
    result = {
        "bound": str(Fraction(bound)),
        "q": str(ctx.q),
        "Lambda": [str(x) for x in ctx.Lambda],
        "fiber_weight": str(ctx.lam),
        "components": [
            {
                "alpha": [j + 1 for j in J],
                "coefficients": {
                    str(list(d)): str(series.coefficient(d))
                    for d in series.support()
                },
            }
            for J, series in sorted(family.items())
        ],
    }
    parameters = {"deg": str(Fraction(bound)), "bundle": bool(bundle)}
    return _report("ifunction", model, seed, samples, parameters, True, result)


def cmd_verify_dq(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    bound = args.deg if args.deg is not None else 4
    box = truncation_box(data, bound, model.ample)
    ctx = sample_context(data.N, seed)
    family = assemble_series(data, box, ctx)
    outcome = verify_dq_system(data, family, ctx)
    return _report("verify-dq", model, seed, samples, {"deg": str(Fraction(bound))},
                   outcome["ok"], outcome)


def cmd_verify_recursion(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    bound = args.deg if args.deg is not None else 3
    box = truncation_box(data, bound, model.ample)
    m = args.m
    edges = all_orbits(data)
    if args.edge:
        want_alpha, want_j0 = args.edge_key
        edges = [o for o in edges if o.alpha.J == want_alpha and o.j0 == want_j0]
        if not edges:
            raise InvalidModelError(f"no orbit matches --edge {args.edge!r}")
    reports = [
        verify_residue_recursion(data, orbit.alpha, orbit.j0, m, box, seed)
        for orbit in edges
    ]
    ok = all(r["ok"] for r in reports)
    parameters = {"m": m, "deg": str(Fraction(bound)), "edge": args.edge or "all"}
    return _report("verify-recursion", model, seed, samples, parameters, ok,
                   {"edges": reports})


def cmd_verify_coh(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    bound = args.deg if args.deg is not None else 4
    box = truncation_box(data, bound, model.ample)
    ctx = sample_context(data.N, seed)
    checks = []
    for i in range(data.K):
        d0 = tuple(1 if k == i else 0 for k in range(data.K))
        checks.append(verify_coh_relation(data, d0, box, ctx))
    ok = all(c["ok"] for c in checks)
    return _report("verify-coh", model, seed, samples, {"deg": str(Fraction(bound))},
                   ok, {"relations": checks})


def cmd_integrate_xd(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    d = args.degree_vec
    phi = args.phi_class
    value, ctx = with_resampling(
        lambda t: sample_context(data.N, seed, t),
        lambda c: map_space_integral(data, d, phi, c),
    )
    baseline = None
    if all(x == 0 for x in d):
        baseline = str(cohomology_integral(data, phi, ctx))
    result = {
        "degree": list(d),
        "pairings": list(degree_pairing(data, d)),
        "value": str(value),
        "z": str(ctx.z),
        "Lambda": [str(x) for x in ctx.Lambda],
        "direct_integral": baseline,
    }
    ok = baseline is None or baseline == str(value)
    parameters = {"degree": args.degree, "phi": args.phi}
    return _report("integrate-xd", model, seed, samples, parameters, ok, result)


COMMANDS = {
    "inspect": cmd_inspect,
    "kirwan": cmd_kirwan,
    "trace": cmd_trace,
    "ifunction": cmd_ifunction,
    "verify-dq": cmd_verify_dq,
    "verify-recursion": cmd_verify_recursion,
    "verify-coh": cmd_verify_coh,
    "integrate-xd": cmd_integrate_xd,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtoric",
        description="Exact localization data and q-series for toric quotients.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("model", help="model file path or bundled model name")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        if name in ("trace", "integrate-xd"):
            p.add_argument("--phi", required=True, help="class expression")
        if name in ("ifunction", "verify-dq", "verify-recursion", "verify-coh"):
            p.add_argument("--deg", type=int, default=None, help="truncation bound")
        if name == "ifunction":
            p.add_argument("--bundle", action="store_true",
                           help="include the model's bundle block")
        if name == "verify-recursion":
            p.add_argument("--m", type=int, default=1, help="cover multiplicity")
            p.add_argument("--edge", default=None,
                           help="single edge as 'a1,a2:j0' in 1-based indices")
        if name == "integrate-xd":
            p.add_argument("--degree", required=True, help="curve degree, comma separated")
    return parser


def _parse_inputs(model: ModelFile, flags: argparse.Namespace) -> None:
    """Parse the curve degree, class expression and edge flags in place."""
    if getattr(flags, "degree", None) is not None:
        flags.degree_vec = _parse_degree(flags.degree, model.data.K)
    if getattr(flags, "phi", None) is not None:
        flags.phi_class = parse_expression(flags.phi)
    if getattr(flags, "edge", None):
        alpha_part, j0_part = flags.edge.split(":")
        flags.edge_key = (tuple(sorted(int(x) - 1 for x in alpha_part.split(","))),
                          int(j0_part) - 1)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the limit on integer string conversion, restoring it on exit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def run_command(command: str, model: ModelFile, flags: argparse.Namespace) -> dict:
    seed = _default_seed(model, flags.seed)
    samples = flags.samples if flags.samples is not None else (model.samples or 5)
    _parse_inputs(model, flags)
    with _unlimited_int_digits():
        return COMMANDS[command](model, seed, samples, flags)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model = resolve_model(args.model)
        report = run_command(args.command, model, args)
    except ArithmeticError as exc:
        # Persistent sampling degeneracy: a model-level finding, not an input error.
        print(json.dumps({"error": str(exc), "ok": False}, indent=2, sort_keys=True))
        return 1
    except (ModelFormatError, FileNotFoundError, InvalidModelError, ExprError,
            ValueError) as exc:
        print(json.dumps({"error": str(exc)}, indent=2, sort_keys=True))
        return 2
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
