"""The package's JSON writer: the bytes of json.dumps, and only JSON types."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from riemann_syzygy.curvature import dumps

# any character, with the ones json escapes drawn often: quote, backslash,
# control characters, DEL, non-ASCII, a lone surrogate and an astral
# character (written as a surrogate pair)
_TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\ud800\U0001f600'),
))

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63).flatmap(lambda n: st.sampled_from([n, -n])),
    _TEXT,
)

_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=5),
    ),
    max_leaves=30,
)


@given(_VALUES)
@example({"é\"\\\x01": [[], {}, ([], {"": ()})], "": -2**70, "b": True,
          "a": [None, False, 0, "\U0001f600"]})
@example([[1, 2, 1, 2, "5/3"], [2, 1, 2, 1, -5]])
def test_dumps_equals_json_dumps(x):
    assert dumps(x) == json.dumps(x, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("x", [
    1.5,
    Fraction(1, 2),
    np.int64(3),
    {1, 2},
    {1: "a"},
    {"a": 1, 2: "b"},
    [0, 0.0],
    {"a": [Fraction(1)]},
    ([np.int64(1)],),
])
def test_dumps_refuses_what_is_not_json(x):
    with pytest.raises(TypeError):
        dumps(x)
