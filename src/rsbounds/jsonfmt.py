"""The one JSON layout of rsbounds' documents.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2,
sort_keys=True)``.  The standard library takes its pure-Python path
whenever ``indent`` is set, yielding one small string per token and
joining them at the end, which is slow and holds every token of a large
certificate at once.  Here each container is one join of its members'
texts: ``'[' + inner + (',' + inner).join(members) + outer + ']'``.

Leaves are dispatched on their exact type, as the standard library
writes them: strings by ``encode_basestring_ascii``, ints by
``int.__repr__``, floats by ``float.__repr__`` (NaN and infinities as
``NaN`` and ``Infinity``), ``true``, ``false`` and ``null``.  Any other
type, such as a subclass (``np.float64``), follows the standard library's
isinstance order, and a value it cannot encode raises the same TypeError.
Dict keys are sorted as items and converted as the standard library does.
The input must be acyclic: there is no circular-reference check.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

_INF = float('inf')


def _float(x: float) -> str:
    if x != x:
        return 'NaN'
    if x == _INF:
        return 'Infinity'
    if x == -_INF:
        return '-Infinity'
    return float.__repr__(x)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, one join per
    container."""
    return _encode(obj, '\n')


def _encode(o, nl: str) -> str:
    """The text of ``o`` at the depth whose line break and indent is
    ``nl``."""
    t = type(o)
    if t is float:
        return _float(o)
    if t is int:
        return int.__repr__(o)
    if t is str:
        return _quote(o)
    if t is dict:
        return _dict(o, nl)
    if t is list or t is tuple:
        return _list(o, nl)
    if o is None:
        return 'null'
    if o is True:
        return 'true'
    if o is False:
        return 'false'
    # Subclasses, in the standard library's order.
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        return _list(o, nl)
    if isinstance(o, dict):
        return _dict(o, nl)
    raise TypeError(f'Object of type {o.__class__.__name__} '
                    f'is not JSON serializable')


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
        (_quote(k) if type(k) is str else _key(k)) + ': ' + _encode(v, inner)
        for k, v in sorted(o.items())]) + nl + '}')


def _key(k) -> str:
    """A key that is not a str, converted as the standard library does."""
    if isinstance(k, str):
        return _quote(k)
    if isinstance(k, float):
        return _quote(_float(k))
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return _quote(int.__repr__(k))
    raise TypeError(f'keys must be str, int, float, bool or None, '
                    f'not {k.__class__.__name__}')
