"""Declarative model files and the bundled example models.

The format is line oriented; ``#`` starts a comment.  A model needs ``name``,
``matrix`` and ``omega``; bundle, truncation and sampling blocks are optional:

    name f1
    matrix 2 4
    1 1 0 -1
    0 0 1 1
    omega 1 1
    bundle E 2
    1 2
    truncation bound 6
    truncation ample 1 1
    sampling seed 7
    sampling samples 5

The matrix directive is followed by K rows of N integers; a bundle directive
by K rows of L integers (the fiber exponents).  Blank and comment lines may
sit between the rows.  ``truncation ample`` takes K
rationals; ``truncation bound`` takes one nonnegative rational, ``sampling
seed`` one integer and ``sampling samples`` one integer at least 1.  Every
directive and field may be given once.  Every diagnostic carries a stable code
and the line of the offending directive (``duplicate-directive`` for a repeat,
``directive-shape`` for a wrong count of values, ``bad-number``, ...).
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .series import BundleData
from .toric import ToricData


class Diagnostic(NamedTuple):
    code: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: [{self.code}] {self.message}"


class ModelFormatError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class ModelFile(NamedTuple):
    """A parsed model: quotient data plus optional bundle and run defaults."""

    data: ToricData
    bundle: BundleData | None = None
    bound: Fraction | None = None
    ample: tuple[Fraction, ...] | None = None
    seed: int | None = None
    samples: int | None = None
    sha256: str = ""


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(token: str) -> int:
    if not _INTEGER.fullmatch(token):
        raise ValueError(token)
    return int(token)


# The run defaults: field -> (reader of its one value, or None for a list of
# rationals; the values it accepts; what a refused value should have been).
_FIELDS = {
    "truncation bound": (Fraction, lambda v: v >= 0, "a nonnegative rational"),
    "truncation ample": (None, lambda v: True, "rationals"),
    "sampling seed": (_integer, lambda v: True, "an integer"),
    "sampling samples": (_integer, lambda v: v >= 1, "an integer at least 1"),
}


def parse_model_text(text: str) -> ModelFile:
    errors: list[Diagnostic] = []
    lines = text.splitlines()
    name: str | None = None
    matrix: list[list[int]] | None = None
    omega: tuple[int | Fraction, ...] | None = None  # ToricData makes each a Fraction
    bundle_rows: list[list[int]] | None = None
    bundle_parity: str | None = None
    omega_line = 0
    fields: dict = {}  # the run defaults by field name, as "sampling seed"
    field_lines: dict[str, int] = {}  # the line each field was given on

    def err(code: str, line_no: int, message: str) -> None:
        errors.append(Diagnostic(code=code, line=line_no, message=message))

    def int_row(tokens: list[str], line_no: int, expect: int, what: str) -> list[int] | None:
        if len(tokens) != expect:
            err("row-shape", line_no, f"{what} row needs {expect} entries, got {len(tokens)}")
            return None
        row = []
        for tok in tokens:
            if _INTEGER.fullmatch(tok):
                row.append(int(tok))
                continue
            # Any other spelling of an integer (2/1, 1.0) is read as a rational.
            try:
                value = Fraction(tok)
            except (ValueError, ZeroDivisionError):
                err("bad-number", line_no, f"cannot read {tok!r}")
                return None
            if value.denominator != 1:
                err("non-integer-entry", line_no, f"non-integer matrix entry {tok!r}")
                return None
            row.append(int(value))
        return row

    def read_rows(count: int, width: int, what: str, line_no: int) -> list[list[int]] | None:
        """The ``count`` rows of ``width`` integers after the block directive
        on ``line_no``, past blank and comment lines; None after a diagnostic."""
        nonlocal idx
        rows = []
        while len(rows) < count:
            if idx >= len(lines):
                err("matrix-shape", line_no, f"expected {count} {what} rows")
                return None
            row_no = idx + 1
            tokens = lines[idx].split("#", 1)[0].split()
            idx += 1
            if not tokens:
                continue
            row = int_row(tokens, row_no, width, what)
            if row is None:
                return None
            rows.append(row)
        return rows

    idx = 0
    while idx < len(lines):
        line_no = idx + 1
        raw = lines[idx].split("#", 1)[0].strip()
        idx += 1
        if not raw:
            continue
        tokens = raw.split()
        head = tokens[0]
        if head == "name":
            if name is not None:
                err("duplicate-directive", line_no, "name given twice")
            elif len(tokens) != 2:
                err("directive-shape", line_no, "name takes one word")
            else:
                name = tokens[1]
        elif head == "matrix":
            if matrix is not None:
                err("duplicate-directive", line_no, "matrix given twice")
                continue
            if len(tokens) != 3 or not tokens[1].isdigit() or not tokens[2].isdigit():
                err("directive-shape", line_no, "matrix takes row and column counts")
                continue
            matrix = read_rows(int(tokens[1]), int(tokens[2]), "matrix", line_no)
        elif head == "omega":
            if omega is not None:
                err("duplicate-directive", line_no, "omega given twice")
                continue
            omega_line = line_no
            try:
                omega = tuple(int(tok) if _INTEGER.fullmatch(tok) else Fraction(tok)
                              for tok in tokens[1:])
            except (ValueError, ZeroDivisionError):
                err("bad-number", line_no, "omega entries must be rationals")
                continue
            if not omega:
                err("directive-shape", line_no, "omega needs at least one coordinate")
                omega = None
        elif head == "bundle":
            if bundle_rows is not None:
                err("duplicate-directive", line_no, "bundle given twice")
                continue
            if matrix is None:
                err("bundle-order", line_no, "bundle must come after matrix")
                continue
            if len(tokens) != 3 or tokens[1] not in ("E", "PiE") or not tokens[2].isdigit():
                err("bundle-parity", line_no, "bundle takes parity E|PiE and a summand count")
                continue
            bundle_parity = tokens[1]
            bundle_rows = read_rows(len(matrix), int(tokens[2]), "bundle", line_no)
        elif head in ("truncation", "sampling"):
            field = " ".join(tokens[:2])
            if field not in _FIELDS:
                err("unknown-directive", line_no, f"unknown {head} field {raw!r}")
            elif field in field_lines:
                err("duplicate-directive", line_no, f"{field} given twice")
            elif _FIELDS[field][0] and len(tokens) != 3:
                err("directive-shape", line_no, f"{field} takes one value")
            else:
                read, valid, what = _FIELDS[field]
                field_lines[field] = line_no
                try:
                    value = read(tokens[2]) if read else tuple(map(Fraction, tokens[2:]))
                    if not valid(value):
                        raise ValueError(value)
                    fields[field] = value
                except (ValueError, ZeroDivisionError):
                    err("bad-number", line_no, f"{field} must be {what}")
        else:
            err("unknown-directive", line_no, f"unknown directive {head!r}")

    if name is None and matrix is None and omega is None and not errors:
        err("empty-model", 1, "the model file has no directives")
    if name is None:
        err("missing-directive", len(lines) or 1, "missing 'name'")
    if matrix is None:
        err("missing-directive", len(lines) or 1, "missing 'matrix'")
    if omega is None:
        err("missing-directive", len(lines) or 1, "missing 'omega'")
    if errors:
        raise ModelFormatError(errors)

    assert matrix is not None and omega is not None and name is not None
    ample = fields.get("truncation ample")
    if len(omega) != len(matrix):
        err("omega-shape", omega_line,
            f"omega has {len(omega)} coordinates, matrix has {len(matrix)} rows")
    if ample is not None and len(ample) != len(matrix):
        err("ample-shape", field_lines["truncation ample"],
            f"truncation ample has {len(ample)} coordinates, matrix has {len(matrix)} rows")
    if errors:
        raise ModelFormatError(errors)
    data = ToricData(m=tuple(tuple(r) for r in matrix), omega=omega, name=name)
    bundle = None
    if bundle_rows is not None:
        assert bundle_parity is not None
        bundle = BundleData(exponents=tuple(tuple(r) for r in bundle_rows), parity=bundle_parity)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return ModelFile(data=data, bundle=bundle, bound=fields.get("truncation bound"),
                     ample=ample, seed=fields.get("sampling seed"),
                     samples=fields.get("sampling samples"), sha256=digest)


def parse_model(path: str | Path) -> ModelFile:
    path = Path(path)
    return parse_model_text(path.read_text())


# The package's data directory, beside this file: ``importlib.resources``
# would add its own imports (and ``inspect`` from Python 3.12) to every start.
_BUNDLED = Path(__file__).parent / "data"


def bundled_model_names() -> list[str]:
    return sorted(p.name[:-len(".model")] for p in _BUNDLED.iterdir()
                  if p.name.endswith(".model"))


def load_bundled_model(name: str) -> ModelFile:
    candidate = _BUNDLED / f"{name}.model"
    if not candidate.is_file():
        raise FileNotFoundError(f"no bundled model named {name!r}")
    return parse_model_text(candidate.read_text())


def resolve_model(spec: str) -> ModelFile:
    """A path to a model file, or the bare name of a bundled model."""
    path = Path(spec)
    if path.is_file():
        return parse_model(path)
    name = spec[:-len(".model")] if spec.endswith(".model") else spec
    try:
        return load_bundled_model(name)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"{spec!r} is neither a file nor a bundled model "
            f"(bundled: {', '.join(bundled_model_names())})"
        ) from None


# Builtin constructors for the standard test models, independent of the files.


def projective_space(n: int) -> ToricData:
    return ToricData(m=((1,) * (n + 1),), omega=(Fraction(1),), name=f"p{n}")


def hirzebruch() -> ToricData:
    return ToricData(m=((1, 1, 0, -1), (0, 0, 1, 1)),
                     omega=(Fraction(1), Fraction(1)), name="f1")


def product_of_lines() -> ToricData:
    return ToricData(m=((1, 1, 0, 0), (0, 0, 1, 1)),
                     omega=(Fraction(1), Fraction(1)), name="p1xp1")
