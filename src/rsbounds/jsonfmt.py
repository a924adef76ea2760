"""The one JSON layout of rsbounds' documents.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2,
sort_keys=True)`` for the JSON that rsbounds writes: dicts with str keys,
lists, strs, ints, finite floats, True, False and None, each of exactly
that type, written as the standard library writes them, with dict items
sorted.  Anything else is refused, so every document is strict JSON: a
NaN or an infinity raises ValueError, as ``allow_nan=False`` does, and any
other type (a tuple, a set, a subclass such as ``np.float64``) or a key
that is not a str raises TypeError.  The input must be acyclic.

The standard library takes its pure-Python path whenever ``indent`` is
set, yielding one small string per token and joining them at the end,
which is slow and holds every token of a large certificate at once.  Here
each container is one join of its members' texts:
``'[' + inner + (',' + inner).join(members) + outer + ']'``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from math import isfinite


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` of
    the JSON types rsbounds writes, one join per container."""
    return _encode(obj, '\n')


def _encode(o, nl: str) -> str:
    """The text of ``o`` at the depth whose line break and indent is
    ``nl``."""
    t = type(o)
    if t is float:
        if isfinite(o):
            return float.__repr__(o)
        raise ValueError(f'Out of range float values are not JSON '
                         f'compliant: {o!r}')
    if t is int:
        return int.__repr__(o)
    if t is str:
        return _quote(o)
    if t is dict:
        return _dict(o, nl)
    if t is list:
        return _list(o, nl)
    if o is None:
        return 'null'
    if o is True:
        return 'true'
    if o is False:
        return 'false'
    raise TypeError(f'Object of type {t.__name__} is not JSON serializable')


def _list(o, nl: str) -> str:
    if not o:
        return '[]'
    inner = nl + '  '
    return ('[' + inner + (',' + inner).join([_encode(v, inner) for v in o])
            + nl + ']')


def _dict(o, nl: str) -> str:
    if not o:
        return '{}'
    inner = nl + '  '
    return ('{' + inner + (',' + inner).join([
        (_quote(k) if type(k) is str else _bad_key(k)) + ': '
        + _encode(v, inner) for k, v in sorted(o.items())]) + nl + '}')


def _bad_key(k) -> str:
    raise TypeError(f'keys must be str, not {type(k).__name__}')
