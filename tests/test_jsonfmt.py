"""The one indented encoder writes what json.dumps(indent=2, sort_keys=True)
writes, byte for byte, for the JSON types rsbounds emits, and refuses the
rest: ValueError for a non-finite float, TypeError for any other type and
for a key that is not a str."""

import json

import numpy as np
import pytest

from rsbounds.jsonfmt import dumps

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


_KEYS = st.one_of(
    st.text(max_size=6),
    st.text(alphabet='"\\\x00\x01\x1f\x7f/é \U0001f600',
            max_size=4),
    st.sampled_from(['', '"', '\\"', '\n', '\ud800', '\udfff', 'café']))
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e300,
                     -1e300]))
_LEAVES = st.one_of(
    st.integers(-(1 << 100), 1 << 100), _FLOATS, st.booleans(), st.none(),
    _KEYS)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=30)


def _buried(doc, bad):
    """``bad`` at some depth inside a document of the kept types."""
    return {'a': [doc, {'b': [bad]}]}


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_dumps_equals_json_dumps(doc):
    assert dumps(doc) == reference(doc)


@settings(max_examples=50, deadline=None)
@given(_DOCS, st.sampled_from([float('nan'), float('inf'), float('-inf')]))
def test_non_finite_float_raises_value_error(doc, bad):
    with pytest.raises(ValueError):
        dumps(bad)
    with pytest.raises(ValueError):
        dumps(_buried(doc, bad))


@settings(max_examples=100, deadline=None)
@given(_DOCS, st.sampled_from([(1, 2), (), {1, 2}, frozenset(), b'x', 1j,
                               np.float64(2.5), np.int64(3), np.bool_(True),
                               object()]))
def test_unsupported_value_raises_the_same_type_error(doc, bad):
    """Any other type, even one json.dumps writes (a tuple, np.float64),
    raises the TypeError json.dumps raises for a type it cannot encode."""
    for wrapped in (bad, [bad], _buried(doc, bad)):
        with pytest.raises(TypeError, match='is not JSON serializable'):
            dumps(wrapped)


@pytest.mark.parametrize('key', [3, -(1 << 100), 1.5, float('nan'), True,
                                 False, None, (1, 2), np.float64(2.5)],
                         ids=repr)
def test_non_str_key_raises_type_error(key):
    for doc in ({key: 1}, {'a': [{key: [1]}]}):
        with pytest.raises(TypeError):
            dumps(doc)


def test_certificate_document_as_json_dumps():
    """A certificate's records, nested dicts and lists of floats, ints and
    strings, as json.dumps writes them."""
    from rsbounds.certify2d import DyadicSquare, certify_square_g

    doc = certify_square_g(DyadicSquare(1, 2, 1), 1 << 12,
                           max_scale=4).to_dict()
    assert doc['records'] and dumps(doc) == reference(doc)
