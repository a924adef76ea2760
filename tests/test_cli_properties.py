"""Properties of the CLI's error paths: argv drawn from a small grammar of
the cheap subcommands, with malformed and out-of-range values mixed in.
Valid sizes stay below 2^12 terms and 2^14 grid points."""

import contextlib
import io
import json

import pytest

from rsbounds.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_JUNK = st.sampled_from(['', ' ', 'x', '-1', '1.2', '2.', '1/3', '1/0',
                         '1e3', '0x10', '1,', str(1 << 70), '-5/8'])
_TERMS = st.integers(0, 4095)
# (m, n): mostly a valid range of below 2^12 terms.
_RANGE = st.one_of(
    st.builds(lambda m, d: (str(m), str(m + d)), _TERMS, st.integers(0, 64)),
    st.builds(lambda m, d: (str(m), str(m + d)), st.integers(0, 64), _TERMS),
    st.tuples(st.one_of(st.integers(-3, 4095).map(str), _JUNK),
              st.one_of(st.integers(-3, 1 << 70).map(str), _JUNK)))
_SMALL = st.builds(lambda a, b: f'{a}/{1 << b}', st.integers(0, 64),
                   st.integers(0, 4))
_DYADIC = st.one_of(
    _SMALL,
    st.builds(lambda a, b: f'{a}/{1 << b}', _TERMS, st.integers(0, 12)),
    _TERMS.map(str),
    st.builds(lambda a, p: f'{a:b}'[:p] + '.' + f'{a:b}'[p:],
              st.integers(1, 4095), st.integers(1, 12)),
    st.sampled_from([f'1/{1 << 40}', str(1 << 40), f'{1 << 50}/2']),
    st.text(alphabet='01./ x', max_size=6),
    _JUNK)
_POINT = st.one_of(st.sampled_from(['1,0', '0,1', '-1,0', '0.6,0.8', '0,-1']),
                   st.sampled_from(['1', '2,0', 'nan,0', 'inf,0', 'a,b',
                                    '1,0,0', '0.5,0.5', '']))
# Endpoints drawn independently, so about half the intervals are reversed.
_CERTIFY_F = st.builds(
    lambda t, a, b: ('certify-f', '--target', t, '--interval', a, b),
    st.sampled_from(['7.92', '9', '-1', 'inf', '-inf', 'nan', '1e400', 'x',
                     '']),
    st.one_of(_SMALL, _JUNK), st.one_of(_SMALL, _JUNK))
# (m, n) mostly valid; --kmax negative, huge or junk as often as not.
_DENSE = st.builds(
    lambda m, d, k: ('dense', '--m', str(m), '--n', str(m + d), '--kmax', k),
    st.integers(-1, 6), st.integers(-1, 6),
    st.sampled_from(['0', '2', '-1', '-3', '23', str(1 << 70), 'x', '1.5',
                     '']))
_COMMAND = st.one_of(
    _RANGE.map(lambda mn: ('coeffs', *mn)),
    st.builds(lambda mn, z: ('eval', *mn, '--z', z), _RANGE, _POINT),
    _RANGE.map(lambda mn: ('eval', *mn, '--grid')),
    _DYADIC.map(lambda x: ('f', x)),
    st.tuples(st.sampled_from(['f2', 'g']), _SMALL, _SMALL),
    st.tuples(st.sampled_from(['f2', 'g']), _DYADIC, _DYADIC),
    st.builds(lambda k: ('extremal', '--k', k), st.one_of(
        st.integers(0, 5).map(str), st.integers(-3, 5).map(str),
        st.sampled_from(['21', '100', str(1 << 70)]), _JUNK)),
    _CERTIFY_F, _DENSE,
    st.tuples(st.sampled_from(['', 'nope', 'F', '--grid'])))
_GRID = st.one_of(st.integers(12, 14), st.integers(4, 14),
                  st.sampled_from([-1, 0, 3, 27, 64]), _JUNK)
# Mostly whole; else the last 1-3 words cut, or one junk word added.
_MANGLE = st.one_of(st.just(0), st.just(0), st.integers(1, 3), _JUNK)


@pytest.fixture(scope='module')
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp('out'))


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f'not JSON: {name}')
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(grid=_GRID, command=_COMMAND, mangle=_MANGLE)
def test_cli_error_paths_property(out_dir, grid, command, mangle):
    """cli.main never raises: it exits 0 with its output, or 2 with one
    JSON error document carrying schema_version on stderr.  certify-f and
    dense may also exit 1, a verdict that does not hold, with their output."""
    argv = ['--out-dir', out_dir, '--grid-log2', str(grid), *command]
    argv = argv + [mangle] if isinstance(mangle, str) else argv[:-mangle or None]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    verdicts = ('certify-f', 'dense')
    assert code in ((0, 1, 2) if command[0] in verdicts else (0, 2)), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, argv
        doc = _strict_json(lines[0])
        assert doc['schema_version'] == 1 and doc['error'], argv
        assert out.getvalue() == '', argv
    else:
        assert err.getvalue() == '', argv
        if command[0] != 'coeffs':
            assert _strict_json(out.getvalue())['schema_version'] == 1, argv
