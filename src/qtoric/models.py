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
by K rows of L integers (the fiber exponents).  Every diagnostic carries a
stable code and the offending line number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .series import BundleData
from .toric import ToricData


@dataclass(frozen=True)
class Diagnostic:
    code: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: [{self.code}] {self.message}"


class ModelFormatError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class ModelFile:
    """A parsed model: quotient data plus optional bundle and run defaults."""

    data: ToricData
    bundle: BundleData | None = None
    bound: Fraction | None = None
    ample: tuple[Fraction, ...] | None = None
    seed: int | None = None
    samples: int | None = None
    sha256: str = ""


def parse_model_text(text: str) -> ModelFile:
    errors: list[Diagnostic] = []
    lines = text.splitlines()
    name: str | None = None
    matrix: list[list[int]] | None = None
    omega: tuple[Fraction, ...] | None = None
    bundle_rows: list[list[int]] | None = None
    bundle_parity: str | None = None
    bound = ample = seed = samples = None

    def err(code: str, line_no: int, message: str) -> None:
        errors.append(Diagnostic(code=code, line=line_no, message=message))

    def int_row(tokens: list[str], line_no: int, expect: int, what: str) -> list[int] | None:
        if len(tokens) != expect:
            err("row-shape", line_no, f"{what} row needs {expect} entries, got {len(tokens)}")
            return None
        row = []
        for tok in tokens:
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
            k, n = int(tokens[1]), int(tokens[2])
            rows = []
            for r in range(k):
                if idx >= len(lines):
                    err("matrix-shape", line_no, f"expected {k} matrix rows")
                    break
                row_no = idx + 1
                row_raw = lines[idx].split("#", 1)[0].split()
                idx += 1
                row = int_row(row_raw, row_no, n, "matrix")
                if row is None:
                    rows = None
                    break
                rows.append(row)
            if rows is not None and len(rows) == k:
                matrix = rows
        elif head == "omega":
            if omega is not None:
                err("duplicate-directive", line_no, "omega given twice")
                continue
            try:
                omega = tuple(Fraction(tok) for tok in tokens[1:])
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
            l_count = int(tokens[2])
            k_rows = len(matrix)
            rows = []
            for r in range(k_rows):
                if idx >= len(lines):
                    err("matrix-shape", line_no, f"expected {k_rows} bundle rows")
                    break
                row_no = idx + 1
                row_raw = lines[idx].split("#", 1)[0].split()
                idx += 1
                row = int_row(row_raw, row_no, l_count, "bundle")
                if row is None:
                    rows = None
                    break
                rows.append(row)
            if rows is not None and len(rows) == k_rows:
                bundle_rows = rows
        elif head == "truncation":
            if len(tokens) >= 3 and tokens[1] == "bound":
                try:
                    bound = Fraction(tokens[2])
                    if bound < 0:
                        raise ValueError(bound)
                except (ValueError, ZeroDivisionError):
                    err("bad-number", line_no, "truncation bound must be a nonnegative rational")
            elif len(tokens) >= 2 and tokens[1] == "ample":
                try:
                    ample = tuple(Fraction(tok) for tok in tokens[2:])
                except (ValueError, ZeroDivisionError):
                    err("bad-number", line_no, "ample entries must be rationals")
            else:
                err("unknown-directive", line_no, f"unknown truncation field {raw!r}")
        elif head == "sampling":
            if len(tokens) >= 3 and tokens[1] == "seed" and _is_int(tokens[2]):
                seed = int(tokens[2])
            elif len(tokens) >= 3 and tokens[1] == "samples" and _is_int(tokens[2]):
                samples = int(tokens[2])
                if samples < 1:
                    err("bad-number", line_no, "sampling samples must be at least 1")
            else:
                err("unknown-directive", line_no, f"unknown sampling field {raw!r}")
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
    if len(omega) != len(matrix):
        raise ModelFormatError([Diagnostic(
            "omega-shape", 1, f"omega has {len(omega)} coordinates, matrix has {len(matrix)} rows")])
    data = ToricData(m=tuple(tuple(r) for r in matrix), omega=omega, name=name)
    bundle = None
    if bundle_rows is not None:
        assert bundle_parity is not None
        bundle = BundleData(exponents=tuple(tuple(r) for r in bundle_rows), parity=bundle_parity)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return ModelFile(data=data, bundle=bundle, bound=bound, ample=ample,
                     seed=seed, samples=samples, sha256=digest)


def _is_int(token: str) -> bool:
    return token.lstrip("+-").isdigit()


def parse_model(path: str | Path) -> ModelFile:
    path = Path(path)
    return parse_model_text(path.read_text())


def bundled_model_names() -> list[str]:
    root = resources.files("qtoric").joinpath("data")
    return sorted(p.name[:-len(".model")] for p in root.iterdir()
                  if p.name.endswith(".model"))


def load_bundled_model(name: str) -> ModelFile:
    root = resources.files("qtoric").joinpath("data")
    candidate = root.joinpath(f"{name}.model")
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
