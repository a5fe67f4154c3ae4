"""Command line surface: model input, dispatch, JSON reports.

Every command echoes the model hash and seed, and identical model + seed
produce byte-identical reports.  Checks run through ``with_resampling``:
``samples`` counts the contexts whose results the report holds (0 for inspect,
1 for ifunction and integrate-xd, ``--samples`` for the rest, whose entries
carry their ``sample``), and ``resamples`` lists each skipped context index
with its reason and, in verify-recursion, its edge.  Exit codes: 0 all pass,
1 an identity failed, 2 input error (also ``--samples`` or ``--m`` < 1, a negative
bound, an ``--edge`` not ``a1,a2:j0``, an integer not spelled [+-]?[0-9]+,
``--bundle`` without a bundle block, a class dividing by 0 at every context,
a quotient that is not compact or has an empty divisor),
141 stdout closed before the report was written (128 + SIGPIPE, as when
the output is piped into ``head``), with nothing on stderr.

Exact coefficients can run to tens of thousands of digits, so the report is
computed, its values converted to strings, with the interpreter's limit on
integer string conversion lifted; every input is parsed before that, under
the limit.  The report is written by ``_render``, which gives the bytes of
``json.dumps(report, indent=2, sort_keys=True)`` in one pass.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from . import __version__
from .exprs import ExprError, ZeroDivisorError, parse_expression
from .kirwan import kirwan_relations, spectrum_point_count, verify_relations_at_fixed_points
from .localization import cohomology_integral, ktheory_trace, map_space_integral
from .models import ModelFile, ModelFormatError, integer, resolve_model
from .qdiff import verify_coh_relation, verify_dq_system
from .recursion import all_orbits, orbit_data, verify_residue_recursion
from .scalars import sample_context, with_resampling
from .series import TruncationBox, assemble_cohomological_series, assemble_series, truncation_box
from .toric import (
    InvalidModelError,
    check_compact_quotient,
    degree_pairing,
    enumerate_fixed_points,
    fixed_point_graph,
    format_monomial,
    mori_generators,
)

def _report(command: str, model: ModelFile, seed: int, samples: int,
            parameters: dict, ok: bool, result, resamples=()) -> dict:
    return {
        "command": command,
        "model": {"name": model.data.name, "sha256": model.sha256},
        "seed": seed,
        "samples": samples,
        "resamples": list(resamples),
        "parameters": parameters,
        "ok": ok,
        "result": result,
    }


def _skipped(resamples: list, **tags) -> list[dict]:
    """Each skipped context index with its reason, and ``tags``."""
    return [dict(tags, index=index, reason=f"{type(exc).__name__}: {exc}")
            for index, exc in resamples]


def _run(data, seed: int, check, samples: int = 1) -> tuple[list, list]:
    """``check`` at ``samples`` sample contexts of ``data``: its runs and resamples."""
    resamples: list = []
    runs = [with_resampling(lambda index: sample_context(data.N, seed, index), check,
                            resamples=resamples, sample=i) for i in range(samples)]
    return runs, _skipped(resamples)


def _tagged(runs) -> list[dict]:
    """Every sample's entries, each tagged with its sample number and q."""
    return [dict(entry, sample=i, q=str(ctx.q))
            for i, (entries, ctx) in enumerate(runs) for entry in entries]


def _box(model: ModelFile, args, default: int) -> TruncationBox:
    """The box to ``--deg``, else to the model's truncation bound, else to ``default``."""
    bound = next(b for b in (args.deg, model.bound, default) if b is not None)
    return truncation_box(model.data, bound, model.ample)


def _parse_degree(text: str, k: int) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if len(parts) != k:
        raise InvalidModelError(f"degree needs {k} comma-separated integers")
    return tuple(map(integer, parts))


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
                "P": [format_monomial(mon, names) for mon in fp.p_monomials],
                "U": [format_monomial(mon, names) for mon in fp.u_monomials],
                "degree_cone": [list(g) for g in fp.q_monomials],
            }
            for fp in fps
        ],
        "smooth": True,
        "kirwan_relations": [[j + 1 for j in rel] for rel in kirwan_relations(data)],
        "mori_generators": [list(g) for g in mori_generators(data)],
        "bundle": None if model.bundle is None else {
            "parity": model.bundle.parity,
            "exponents": [list(r) for r in model.bundle.exponents],
        },
    }
    return _report("inspect", model, seed, 0, {}, True, result)


def cmd_kirwan(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    runs, resamples = _run(data, seed, lambda c: (
        verify_relations_at_fixed_points(data, c)["checks"], spectrum_point_count(data, c)),
        samples)
    checks = _tagged((entries, ctx) for (entries, _), ctx in runs)
    counts = [count for (_, count), _ in runs]
    fixed = len(enumerate_fixed_points(data))
    result = {
        "relations": [[j + 1 for j in rel] for rel in kirwan_relations(data)],
        "verification": {"ok": all(c["ok"] for c in checks), "checks": checks},
        "spectrum_points": counts[0],
        "fixed_points": fixed,
    }
    ok = result["verification"]["ok"] and all(count == fixed for count in counts)
    return _report("kirwan", model, seed, samples, {}, ok, result, resamples)


def cmd_trace(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    runs, resamples = _run(data, seed, lambda c: ktheory_trace(data, args.phi_class, c),
                           samples)
    values = [{"sample": i, "q": str(ctx.q), "Lambda": [str(x) for x in ctx.Lambda],
               "value": str(value)} for i, (value, ctx) in enumerate(runs)]
    return _report("trace", model, seed, samples, {"phi": args.phi}, True,
                   {"values": values}, resamples)


def cmd_ifunction(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    if args.bundle and model.bundle is None:
        raise InvalidModelError(f"--bundle: model {data.name!r} has no bundle block")
    box = _box(model, args, 4)
    bundle = model.bundle if args.bundle else None
    [(family, ctx)], resamples = _run(data, seed,
                                      lambda c: assemble_series(data, box, c, bundle=bundle))
    labels = {d: str(list(d)) for d in box.degrees}
    result = {
        "bound": str(box.bound),
        "q": str(ctx.q),
        "Lambda": [str(x) for x in ctx.Lambda],
        "fiber_weight": str(ctx.lam),
        "components": [
            {
                "alpha": [j + 1 for j in J],
                "coefficients": {labels[d]: str(c) for d, c in sorted(series.coeffs.items())},
            }
            for J, series in sorted(family.items())
        ],
    }
    parameters = {"deg": str(box.bound), "bundle": bool(bundle)}
    return _report("ifunction", model, seed, 1, parameters, True, result, resamples)


def cmd_verify_dq(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    box = _box(model, args, 4)
    runs, resamples = _run(
        data, seed, lambda c: verify_dq_system(data, assemble_series(data, box, c), c)["checks"],
        samples)
    checks = _tagged(runs)
    ok = all(c["ok"] for c in checks)
    return _report("verify-dq", model, seed, samples, {"deg": str(box.bound)},
                   ok, {"ok": ok, "checks": checks}, resamples)


def cmd_verify_recursion(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    box = _box(model, args, 3)
    edges = [_edge_orbit(data, args)] if args.edge else all_orbits(data)
    reports, resamples = [], []
    for orbit in edges:
        skipped: list = []
        reports += [dict(verify_residue_recursion(data, orbit, args.m, box, seed, i, skipped),
                         sample=i)
                    for i in range(samples)]
        resamples += _skipped(skipped, alpha=[j + 1 for j in orbit.alpha.J], j0=orbit.j0 + 1)
    ok = all(r["ok"] for r in reports)
    parameters = {"m": args.m, "deg": str(box.bound), "edge": args.edge or "all"}
    return _report("verify-recursion", model, seed, samples, parameters, ok,
                   {"edges": reports}, resamples)


def _edge_orbit(data, args):
    """The one orbit ``--edge`` names, validated alone."""
    edge = fixed_point_graph(data).get(args.edge_key)
    if edge is None:
        raise InvalidModelError(f"no orbit matches --edge {args.edge!r}")
    return orbit_data(data, edge[0], args.edge_key[1])


def cmd_verify_coh(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    box = _box(model, args, 4)
    basis = [tuple(1 if k == i else 0 for k in range(data.K)) for i in range(data.K)]

    def check(c):
        family = assemble_cohomological_series(data, box, c)
        return [verify_coh_relation(data, d0, family, c) for d0 in basis]
    runs, resamples = _run(data, seed, check, samples)
    relations = _tagged(runs)
    ok = all(r["ok"] for r in relations)
    return _report("verify-coh", model, seed, samples, {"deg": str(box.bound)},
                   ok, {"relations": relations}, resamples)


def cmd_integrate_xd(model: ModelFile, seed: int, samples: int, args) -> dict:
    data = model.data
    d = args.degree_vec
    phi = args.phi_class
    [(value, ctx)], resamples = _run(data, seed, lambda c: map_space_integral(data, d, phi, c))
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
    return _report("integrate-xd", model, seed, 1, parameters, ok, result, resamples)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: callers only parse with it."""
    parser = argparse.ArgumentParser(
        prog="qtoric",
        description="Exact localization data and q-series for toric quotients.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("model", help="model file path or bundled model name")
        p.add_argument("--seed", type=integer, default=None)
        p.add_argument("--samples", type=integer, default=None)
        if name in ("trace", "integrate-xd"):
            p.add_argument("--phi", required=True, help="class expression")
        if name in ("ifunction", "verify-dq", "verify-recursion", "verify-coh"):
            p.add_argument("--deg", type=integer, default=None, help="truncation bound")
        if name == "ifunction":
            p.add_argument("--bundle", action="store_true",
                           help="include the model's bundle block")
        if name == "verify-recursion":
            p.add_argument("--m", type=integer, default=1, help="cover multiplicity")
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
        try:
            alpha_part, j0_part = flags.edge.split(":")
            flags.edge_key = (tuple(sorted(integer(x) - 1 for x in alpha_part.split(","))),
                              integer(j0_part) - 1)
        except ValueError:
            raise ValueError(f"--edge must have the form 'a1,a2:j0' (1-based indices), "
                             f"got {flags.edge!r}") from None


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
    seed = next(n for n in (flags.seed, model.seed, 1) if n is not None)
    samples = next(n for n in (flags.samples, model.samples, 5) if n is not None)
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    if getattr(flags, "deg", None) is not None and flags.deg < 0:
        raise ValueError(f"--deg must be nonnegative, got {flags.deg}")
    if getattr(flags, "m", 1) < 1:
        raise ValueError(f"--m must be at least 1, got {flags.m}")
    _parse_inputs(model, flags)
    check_compact_quotient(model.data)
    with _unlimited_int_digits():
        return COMMANDS[command](model, seed, samples, flags)


EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, the status of a shell pipeline's killed writer


def _render(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, for a
    tree of dicts with str keys, lists, tuples, strs, ints, bools and None;
    any other type is a TypeError.

    With an indent the json module runs its pure-Python encoder; this writer
    makes the same layout in one pass, appending chunks to one list that is
    joined once, and escapes strings with json's own (C) escaper.
    """
    chunks: list[str] = []
    _write(payload, chunks, "\n")
    return "".join(chunks)


def _write(value, out: list, newline: str) -> None:
    """Append ``value`` at the nesting whose line break and indent is ``newline``."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_escape(key))
            out.append(": ")
            _write(value[key], out, inner)
            sep = comma
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = comma
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload: dict, code: int) -> int:
    """Print ``payload`` as JSON (``_render``) and return ``code``, or
    EXIT_CLOSED_STDOUT when the reader closed stdout first (``qtoric ... | head``)."""
    try:
        print(_render(payload), flush=True)
    except BrokenPipeError:
        # Python's recipe for SIGPIPE: point stdout at devnull, so that the
        # interpreter's last flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model = resolve_model(args.model)
        report = run_command(args.command, model, args)
    except (ModelFormatError, FileNotFoundError, InvalidModelError, ExprError,
            ZeroDivisorError, ValueError) as exc:
        return _emit({"error": str(exc)}, 2)
    except ArithmeticError as exc:
        # Persistent sampling degeneracy: a model-level finding, not an input error.
        return _emit({"error": str(exc), "ok": False}, 1)
    return _emit(report, 0 if report["ok"] else 1)


if __name__ == "__main__":
    sys.exit(main())
