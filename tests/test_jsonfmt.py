"""The one indented encoder writes what json.dumps(indent=2, sort_keys=True)
writes, byte for byte, and refuses what it refuses with the same error."""

import json

import numpy as np
import pytest

from rsbounds.jsonfmt import dumps

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def outcome(encode, obj):
    """The text, or the type and message of the error raised."""
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_KEYS = st.one_of(
    st.text(max_size=6),
    st.text(alphabet='"\\\x00\x01\x1f\x7f/é \U0001f600',
            max_size=4),
    st.sampled_from(['', '"', '\\"', '\n', '\ud800', 'café']))
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072e-308,
                     float('nan'), float('inf'), float('-inf'), 1e300]),
    st.floats().map(np.float64))
_LEAVES = st.one_of(
    st.integers(-(1 << 100), 1 << 100), _FLOATS, st.booleans(), st.none(),
    _KEYS)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_dumps_equals_json_dumps(doc):
    assert dumps(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(_DOCS, st.sampled_from([{1, 2}, frozenset(), np.int64(3), b'x',
                               1j, object()]))
def test_unsupported_value_raises_the_same_type_error(doc, bad):
    wrapped = {'a': [doc, bad]}
    got = outcome(dumps, wrapped)
    assert got == outcome(reference, wrapped)
    assert got[0] is TypeError


@pytest.mark.parametrize('keys', [
    [3, -(1 << 100), 0], [1.5, -0.0, float('inf')], [True, False],
    [None], [np.float64(2.5)], [(1, 2)], ['a', 1]])
def test_non_str_keys_as_json_dumps(keys):
    """Keys of one other type are converted as json.dumps converts them;
    a tuple key, or keys that do not sort, raise the same TypeError."""
    doc = {k: [i] for i, k in enumerate(keys)}
    assert outcome(dumps, doc) == outcome(reference, doc)


def test_certificate_document_as_json_dumps():
    """A certificate's records, nested dicts and lists of floats, ints and
    strings, as json.dumps writes them."""
    from rsbounds.certify2d import DyadicSquare, certify_square_g

    doc = certify_square_g(DyadicSquare(1, 2, 1), 1 << 12,
                           max_scale=4).to_dict()
    assert doc['records'] and dumps(doc) == reference(doc)
