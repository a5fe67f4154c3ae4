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
sit between the rows.  A block directive owns the next K lines that are not
blank or comment only, whatever they hold; when the directive or one of its
rows is refused, the lines up to the next directive word are skipped too, so
each fault is reported once, and a refused directive is never also reported
missing.  ``truncation ample`` takes K
rationals; ``truncation bound`` takes one nonnegative rational, ``sampling
seed`` one integer and ``sampling samples`` one integer at least 1.  Numbers
are ASCII: a count is [0-9]+ and at least 1 (02 is 2, 0 is refused), an
integer [+-]?[0-9]+, and a rational an integer, a fraction [+-]?[0-9]+/[0-9]+
or a decimal [+-]?[0-9]+.[0-9]+; a matrix or bundle entry may be any rational
of integral value (2/1, 1.0).  Every directive and field may be given once.
Every diagnostic carries a stable code and the line of the offending directive
(``duplicate-directive`` for a repeat, ``directive-shape`` for a wrong count of
values, ``bad-number``, ...).
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


_COUNT = re.compile(r"0*[1-9][0-9]*")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")


def integer(token: str) -> int:
    """``int`` on the spelling [+-]?[0-9]+ only: ``int`` alone reads '1_0' and ' 1'."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"invalid integer value: {token!r}")
    return int(token)


def _rational(token: str) -> Fraction:
    """``Fraction`` on an integer, fraction or decimal in ASCII digits only:
    ``Fraction`` alone reads '1_0', '1e3' and the digits of other scripts."""
    if not _RATIONAL.fullmatch(token):
        raise ValueError(f"invalid rational value: {token!r}")
    return Fraction(token)


# The run defaults: field -> (reader of its one value, or None for a list of
# rationals; the values it accepts; what a refused value should have been).
_FIELDS = {
    "truncation bound": (_rational, lambda v: v >= 0, "a nonnegative rational"),
    "truncation ample": (None, lambda v: True, "rationals"),
    "sampling seed": (integer, lambda v: True, "an integer"),
    "sampling samples": (integer, lambda v: v >= 1, "an integer at least 1"),
}


# The directive words: a refused block's rows are the entries up to the next one.
_DIRECTIVES = ("name", "matrix", "omega", "bundle", "truncation", "sampling")


def parse_model_text(text: str) -> ModelFile:
    errors: list[Diagnostic] = []
    lines = text.splitlines()
    # The lines that are not blank or comment only, as (line number, text).
    entries = [(no, raw) for no, line in enumerate(lines, 1)
               if (raw := line.split("#", 1)[0].strip())]
    given: dict[str, int] = {}  # directive or field ("sampling seed") -> its first line
    values: dict = {}  # directive or field -> its value, once accepted

    def err(code: str, line_no: int, message: str) -> None:
        errors.append(Diagnostic(code=code, line=line_no, message=message))

    def read_rows(count: int, width: int, what: str, line_no: int) -> tuple | None:
        """The next ``count`` entries, all consumed, as the rows of ``width``
        integers of the block directive on ``line_no``; None after a diagnostic."""
        nonlocal idx
        block = entries[idx:idx + count]
        idx += count
        rows = []
        for row_no, raw in block:
            tokens = raw.split()
            if len(tokens) != width:
                err("row-shape", row_no, f"{what} row needs {width} entries, got {len(tokens)}")
                return None
            row = []
            for tok in tokens:
                if _INTEGER.fullmatch(tok):
                    row.append(int(tok))
                    continue
                # Any other spelling of an integer (2/1, 1.0) is read as a rational.
                try:
                    value = _rational(tok)
                except (ValueError, ZeroDivisionError):
                    err("bad-number", row_no, f"cannot read {tok!r}")
                    return None
                if value.denominator != 1:
                    err("non-integer-entry", row_no, f"non-integer matrix entry {tok!r}")
                    return None
                row.append(int(value))
            rows.append(tuple(row))
        if len(rows) < count:
            err("matrix-shape", line_no, f"expected {count} {what} rows")
            return None
        return tuple(rows)

    idx = 0
    while idx < len(entries):
        line_no, raw = entries[idx]
        idx += 1
        tokens = raw.split()
        head = key = tokens[0]
        value = None
        if head in ("truncation", "sampling"):
            key = " ".join(tokens[:2])
            if key not in _FIELDS:
                err("unknown-directive", line_no, f"unknown {head} field {raw!r}")
                continue
        elif head not in _DIRECTIVES:
            err("unknown-directive", line_no, f"unknown directive {head!r}")
            continue
        if given.setdefault(key, line_no) != line_no:
            err("duplicate-directive", line_no, f"{key} given twice")
        elif head == "name":
            if len(tokens) != 2:
                err("directive-shape", line_no, "name takes one word")
            else:
                value = tokens[1]
        elif head == "matrix":
            if len(tokens) != 3 or not all(map(_COUNT.fullmatch, tokens[1:])):
                err("directive-shape", line_no, "matrix takes positive row and column counts")
            else:
                value = read_rows(int(tokens[1]), int(tokens[2]), "matrix", line_no)
        elif head == "omega":
            if len(tokens) == 1:
                err("directive-shape", line_no, "omega needs at least one coordinate")
            else:
                try:
                    value = tuple(map(_rational, tokens[1:]))
                except (ValueError, ZeroDivisionError):
                    err("bad-number", line_no, "omega entries must be rationals")
        elif head == "bundle":
            if "matrix" not in given:
                err("bundle-order", line_no, "bundle must come after matrix")
            elif (len(tokens) != 3 or tokens[1] not in ("E", "PiE")
                    or not _COUNT.fullmatch(tokens[2])):
                err("bundle-parity", line_no,
                    "bundle takes parity E|PiE and a positive summand count")
            elif "matrix" in values:  # past a refused matrix, the rows are skipped
                rows = read_rows(len(values["matrix"]), int(tokens[2]), "bundle", line_no)
                if rows is not None:
                    value = BundleData(exponents=rows, parity=tokens[1])
        else:
            read, valid, what = _FIELDS[key]
            if read and len(tokens) != 3:
                err("directive-shape", line_no, f"{key} takes one value")
            else:
                try:
                    field = read(tokens[2]) if read else tuple(map(_rational, tokens[2:]))
                    if not valid(field):
                        raise ValueError(field)
                    value = field
                except (ValueError, ZeroDivisionError):
                    err("bad-number", line_no, f"{key} must be {what}")
        if value is not None:
            values[key] = value
        elif head in ("matrix", "bundle"):  # refused: skip its rows
            while idx < len(entries) and entries[idx][1].split()[0] not in _DIRECTIVES:
                idx += 1

    if not entries:
        err("empty-model", 1, "the model file has no directives")
    for key in ("name", "matrix", "omega"):
        if key not in given:
            err("missing-directive", len(lines) or 1, f"missing {key!r}")
    if errors:
        raise ModelFormatError(errors)

    matrix, omega, ample = values["matrix"], values["omega"], values.get("truncation ample")
    if len(omega) != len(matrix):
        err("omega-shape", given["omega"],
            f"omega has {len(omega)} coordinates, matrix has {len(matrix)} rows")
    if ample is not None and len(ample) != len(matrix):
        err("ample-shape", given["truncation ample"],
            f"truncation ample has {len(ample)} coordinates, matrix has {len(matrix)} rows")
    if errors:
        raise ModelFormatError(errors)
    return ModelFile(data=ToricData(m=matrix, omega=omega, name=values["name"]),
                     bundle=values.get("bundle"), bound=values.get("truncation bound"),
                     ample=ample, seed=values.get("sampling seed"),
                     samples=values.get("sampling samples"),
                     sha256=hashlib.sha256(text.encode()).hexdigest())


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
