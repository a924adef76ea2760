"""The one indented encoder writes what json.dumps(indent=2, sort_keys=True)
writes, byte for byte, for the JSON types rsbounds emits, and refuses the
rest: ValueError for a non-finite float, TypeError for any other type and
for a key that is not a str.  ``dump`` writes that text in pieces, a map
as its list, and raises what ``dumps`` raises."""

import json

import numpy as np
import pytest

from rsbounds.jsonfmt import _BATCH, dump, dumps

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


def _pieces(doc) -> list:
    pieces = []
    dump(doc, pieces.append)
    return pieces


def _raised(encode, doc):
    """The type and message of what ``encode(doc)`` raises."""
    with pytest.raises(Exception) as info:
        encode(doc)
    return type(info.value), str(info.value)


def _assert_raises(doc, error, match=None):
    """dumps raises ``error`` on doc, and dump raises the same."""
    kind, message = _raised(dumps, doc)
    assert issubclass(kind, error)
    assert match is None or match in message
    assert _raised(_pieces, doc) == (kind, message)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_dumps_equals_json_dumps(doc):
    assert dumps(doc) == reference(doc)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_dump_pieces_join_to_dumps(doc):
    pieces = _pieces(doc)
    assert all(type(p) is str for p in pieces)
    assert ''.join(pieces) == dumps(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(_DOCS, max_size=4))
def test_map_member_is_written_as_its_list(members):
    """A map, at the top, as a dict's value or as a list's member, is
    written as the list of what it yields."""
    for doc, want in ((map(str, members), list(map(str, members))),
                      ({'m': map(lambda v: v, members)}, {'m': members}),
                      ([1, map(lambda v: v, members)], [1, members])):
        assert ''.join(_pieces(doc)) == reference(want)


@pytest.mark.parametrize('n', [0, 1, _BATCH - 1, _BATCH, _BATCH + 1,
                               2 * _BATCH + 3])
def test_long_lists_and_maps_across_batches(n):
    """Lists and maps of every length around a batch's: the same text,
    written in one piece per batch (plus the closing bracket)."""
    members = [{'k': i, 'v': [i / 7, None]} for i in range(n)]
    want = reference({'records': members})
    for records in (members, map(dict, members)):
        pieces = _pieces({'records': records})
        assert ''.join(pieces) == want
        assert len(pieces) == 3 + -(-n // _BATCH)


def test_a_map_is_used_up_and_other_iterables_are_refused():
    records = map(int, '123')
    assert dumps({'records': records}) == reference({'records': [1, 2, 3]})
    assert dumps({'records': records}) == reference({'records': []})
    for bad in ((v for v in [1]), iter([1]), filter(None, [1]), range(2)):
        _assert_raises({'records': bad}, TypeError,
                       'is not JSON serializable')


@settings(max_examples=50, deadline=None)
@given(_DOCS, st.sampled_from([float('nan'), float('inf'), float('-inf')]))
def test_non_finite_float_raises_value_error(doc, bad):
    _assert_raises(bad, ValueError)
    _assert_raises(_buried(doc, bad), ValueError)
    for encode in (dumps, _pieces):   # a map is used up: one per call
        with pytest.raises(ValueError):
            encode({'m': map(lambda v: v, [doc, bad])})


@settings(max_examples=100, deadline=None)
@given(_DOCS, st.sampled_from([(1, 2), (), {1, 2}, frozenset(), b'x', 1j,
                               np.float64(2.5), np.int64(3), np.bool_(True),
                               object()]))
def test_unsupported_value_raises_the_same_type_error(doc, bad):
    """Any other type, even one json.dumps writes (a tuple, np.float64),
    raises the TypeError json.dumps raises for a type it cannot encode."""
    for wrapped in (bad, [bad], _buried(doc, bad)):
        _assert_raises(wrapped, TypeError, 'is not JSON serializable')


@pytest.mark.parametrize('key', [3, -(1 << 100), 1.5, float('nan'), True,
                                 False, None, (1, 2), np.float64(2.5)],
                         ids=repr)
def test_non_str_key_raises_type_error(key):
    for doc in ({key: 1}, {'a': [{key: [1]}]}):
        _assert_raises(doc, TypeError)


def test_certificate_document_as_json_dumps():
    """A certificate's records, nested dicts and lists of floats, ints and
    strings, as json.dumps writes them: the document's map of records is
    written as the list it yields."""
    from rsbounds.certify2d import DyadicSquare, certify_square_g

    tree = certify_square_g(DyadicSquare(1, 2, 1), 1 << 12, max_scale=4)
    doc = tree.to_dict()
    assert type(doc['records']) is map
    text = dumps(doc)
    doc = tree.to_dict()
    doc['records'] = list(doc['records'])
    assert doc['records'] and text == dumps(doc) == reference(doc)
