"""The one JSON layout of rsbounds' documents.

``dump(obj, write)`` writes exactly ``json.dumps(obj, indent=2,
sort_keys=True)`` for the JSON that rsbounds writes: dicts with str keys,
lists, strs, ints, finite floats, True, False and None, each of exactly
that type, written as the standard library writes them, with dict items
sorted.  A ``map`` is written as the list of what it yields, and is used
up: a certificate's records are made one at a time as they are written.
Anything else is refused, so every document is strict JSON: a NaN or an
infinity raises ValueError, as ``allow_nan=False`` does, and any other
type (a tuple, a set, a generator, a subclass such as ``np.float64``) or
a key that is not a str raises TypeError.  The input must be acyclic.

The text goes to ``write`` a piece at a time and is never held whole: a
dict one member at a time, a list in batches of ``_BATCH`` members, each
member's text one join of its pieces.  ``dumps(obj)`` is the same text as
one str.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

_BATCH = 256   # list members per write
_CONTAINERS = frozenset((dict, list, map))


def dump(obj, write) -> None:
    """Write the text of ``dumps(obj)`` through ``write``, in pieces."""
    _dump(obj, '\n', write)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` of
    the JSON types rsbounds writes."""
    parts = []
    dump(obj, parts.append)
    return ''.join(parts)


def _dump(o, nl: str, write) -> None:
    """Write the text of ``o`` at the depth whose line break and indent is
    ``nl``."""
    t = type(o)
    if t is dict:
        inner = nl + '  '
        sep = ',' + inner
        lead = '{' + inner
        for k, v in sorted(o.items()):
            head = lead + (_quote(k) if type(k) is str else _bad_key(k)) + ': '
            if type(v) in _CONTAINERS:
                write(head)
                _dump(v, inner, write)
            else:
                write(head + _scalar(v))
            lead = sep
        write('{}' if lead[0] == '{' else nl + '}')
    elif t is list or t is map:
        inner = nl + '  '
        sep = ',' + inner
        lead = '[' + inner
        batch = []
        for v in o:
            batch.append(_encode(v, inner))
            if len(batch) == _BATCH:
                write(lead + sep.join(batch))
                lead = sep
                batch.clear()
        if batch:
            write(lead + sep.join(batch))
            lead = sep
        write('[]' if lead[0] == '[' else nl + ']')
    else:
        write(_scalar(o))


def _encode(o, nl: str) -> str:
    """The text of ``o`` at the depth ``nl``, as one str."""
    if type(o) in _CONTAINERS:
        parts = []
        _dump(o, nl, parts.append)
        return ''.join(parts)
    return _scalar(o)


def _scalar(o) -> str:
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
    if o is None:
        return 'null'
    if o is True:
        return 'true'
    if o is False:
        return 'false'
    raise TypeError(f'Object of type {t.__name__} is not JSON serializable')


def _bad_key(k) -> str:
    raise TypeError(f'keys must be str, not {type(k).__name__}')
