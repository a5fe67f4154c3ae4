"""The report writer against ``json.dumps(..., indent=2, sort_keys=True)``.

``qtoric.cli._render`` writes every report; its output must be the json
module's, byte for byte, on every tree of dicts, lists and tuples over
strings, ints, bools and None, and any other leaf is a TypeError.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoric.cli import _render

# Strings json escapes: quotes, backslashes, control characters, the line
# separators JavaScript reads as newlines, non-ASCII and a lone surrogate.
SPECIAL = ["", '"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "\u2028", "\u2029",
           "\u00e9", "\u96ea", "\U0001f600", "\ud800", "a\"b\\c"]
strings = st.one_of(st.text(), st.sampled_from(SPECIAL))
leaves = st.one_of(
    strings,
    st.integers(),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.booleans(),
    st.none(),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree=trees)
def test_render_is_json_dumps_with_indent_and_sorted_keys(tree):
    assert _render(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_empty_containers_and_nesting():
    for tree in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {"x": [{}]}],
                 {"z": 1, "a": [True, False, None], "m": "\u2028"}):
        assert _render(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), {1, 2}, b"bytes", object()])
def test_unsupported_leaves_are_type_errors(bad):
    for tree in (bad, [1, bad], {"key": [{"inner": bad}]}):
        with pytest.raises(TypeError):
            _render(tree)


def test_non_string_keys_are_type_errors():
    with pytest.raises(TypeError):
        _render({"a": {1: "one"}})
