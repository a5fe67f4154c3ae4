"""A small expression language for the classes fed to the localization sums.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' signed-integer)?
    atom   := integer | symbol | '(' expr ')'

Integers are decimal digits (007 is 7) and symbols ASCII words that start
with a letter; whitespace, newlines too, may separate tokens; the exponent is
a signed integer right after '^'.  Nothing else is accepted: not '**', unary
'+', 1.5, 1e3, 0x10, 1_000, calls, comparisons or keywords.  Python's parser
reads the text with '^' as '**'; the tree is checked against the grammar and
evaluated, never executed.  Symbols come from the environment (P1..PK /
p1..pK, L1..LN / l1..lN, q, z); values are exact rationals.  A zero divisor
(or base of a negative power) raises ``ZeroDivisorError``, a degenerate sample.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from fractions import Fraction
from typing import Callable, Mapping

from .scalars import DegenerateSampleError


class ExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_FOREIGN = re.compile(r"[^0-9A-Za-z_()+\-*/^\s]|\*\*")
_LEADING_ZEROS = re.compile(r"\b0+(?=\d)")
_SYMBOL = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_EXPONENT = re.compile(r"-? *[0-9]+")


class ZeroDivisorError(ZeroDivisionError, DegenerateSampleError):
    """A divisor of the class expression vanished at the sample point."""


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def _check(node: ast.expr, source: str, where: Callable[[int], int]) -> None:
    """Raise ExprError unless the grammar derives the tree; where() maps offsets to the text."""
    start, end = node.col_offset, node.end_col_offset
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        _check(node.operand, source, where)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        _check(node.left, source, where)
        if not isinstance(node.op, ast.Pow):
            _check(node.right, source, where)
        elif not (source[:node.right.col_offset].rstrip().endswith("*")  # not '^('
                  and _EXPONENT.fullmatch(source, node.right.col_offset,
                                          node.right.end_col_offset)):
            raise ExprError("exponent must be an integer", where(node.right.col_offset))
    elif not (isinstance(node, ast.Constant) and source[start:end].isdigit()
              or isinstance(node, ast.Name) and _SYMBOL.fullmatch(node.id)):
        raise ExprError(f"not in the grammar: {source[start:end]!r}", where(start))


def _value(node: ast.expr, env: Mapping[str, Fraction]) -> Fraction:
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_value(node.left, env), _value(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return -_value(node.operand, env)
    if isinstance(node, ast.Constant):
        return Fraction(node.value)
    try:
        return Fraction(env[node.id])
    except KeyError:
        raise ExprError(f"unknown symbol '{node.id}'", 0) from None


class Expression:
    """A class expression the grammar derives; ``evaluate`` gives its exact value."""

    def __init__(self, tree: ast.expr):
        self.tree = tree

    def evaluate(self, env: Mapping[str, Fraction]) -> Fraction:
        try:
            return _value(self.tree, env)
        except RecursionError:
            raise ExprError("expression nested too deeply", 0) from None
        except ZeroDivisionError:  # a / 0 or 0^-k
            raise ZeroDivisorError("division by zero in class expression") from None


def parse_expression(text: str) -> Expression:
    if not text.strip():
        raise ExprError("empty expression", 0)
    if foreign := _FOREIGN.search(text):
        raise ExprError(f"unexpected {foreign.group()!r}", foreign.start())
    # One unindented line, leading zeros blanked (Python rejects 007), '^' as '**'.
    source = _LEADING_ZEROS.sub(lambda m: " " * len(m.group()), re.sub(r"\s", " ", text))
    lead = len(source) - len(source.lstrip())
    source = source.strip().replace("^", "**")

    def where(offset: int) -> int:
        return lead + offset - source.count("**", 0, offset)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "invalid decimal literal" for 1if, say
            tree = ast.parse(source, mode="eval").body
        _check(tree, source, where)
    except SyntaxError as exc:
        raise ExprError(exc.msg, where((exc.offset or 1) - 1)) from None
    except RecursionError:
        raise ExprError("expression nested too deeply", 0) from None
    return Expression(tree)
