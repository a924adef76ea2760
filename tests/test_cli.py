import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rsbounds
from rsbounds.cli import main
from rsbounds.evaluate import eps_fp, eval_point_root, half_spectrum
from rsbounds.sequence import Segment


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coeffs(capsys):
    code, out = run_cli(capsys, 'coeffs', '0', '4')
    assert code == 0 and out.strip() == '+ + + -'


def test_f_enclosure(capsys):
    code, out = run_cli(capsys, '--grid-log2', '16', 'f', '1.1')
    doc = json.loads(out)
    enc = doc['result']['enclosure']
    assert code == 0
    assert abs(0.5 * (enc['lo'] + enc['hi']) - 5.0) < 1e-5
    assert doc['config']['grid_log2'] == 16
    assert doc['schema_version'] == 1


def test_g_enclosure(capsys):
    # '1.' and '10.' are binary strings: 1 and 2
    code, out = run_cli(capsys, '--grid-log2', '14', 'g', '1.', '10.')
    enc = json.loads(out)['result']['enclosure']
    assert code == 0 and abs(0.5 * (enc['lo'] + enc['hi']) - 10.0) < 1e-5


def test_degree_error_names_the_given_grid(capsys):
    # g 64 64 has degree 62 in w = z^2, too high for the half grid 2^7 of
    # the grid 2^8 given; the error names 2^8
    code = main(['--grid-log2', '8', 'g', '64', '64'])
    err = json.loads(capsys.readouterr().err)['error']
    assert code == 2 and err.startswith('grid size 256 too small'), err


def test_f2_enclosure(capsys):
    code, out = run_cli(capsys, '--grid-log2', '12', 'f2', '10.', '11.')
    enc = json.loads(out)['result']['enclosure']
    assert code == 0 and enc['lo'] <= 2.0 <= enc['hi']


def test_eval_point_and_grid(capsys):
    code, out = run_cli(capsys, 'eval', '0', '3', '--z', '1,0')
    assert code == 0
    assert json.loads(out)['result']['value'] == [3.0, 0.0]
    code, out = run_cli(capsys, '--grid-log2', '8', 'eval', '0', '3', '--grid')
    assert code == 0
    assert json.loads(out)['result']['max_abs'] == pytest.approx(3.0)
    code, out = run_cli(capsys, '--grid-log2', '8', 'eval', '5', '77', '--grid')
    res = json.loads(out)['result']
    j = res['argmax_index']
    assert code == 0 and 0 <= j <= 128
    assert res['max_abs'] == pytest.approx(
        abs(eval_point_root(Segment(5, 77), j, 256)))


def test_eval_grid_takes_no_fft(capsys, monkeypatch):
    """eval --grid reads the radix-2 recursion, not an FFT: with
    numpy.fft.rfft patched to raise, on 40 seeded segments (offsets up to
    2^44, lengths up to N, those in (N/2, N] built on 2N), max_abs is
    half_spectrum's maximum modulus within eps_fp(L, N), and the modulus
    there at argmax_index within 2 eps_fp of it.  A segment longer than
    N, an index past 2^64 - 1 and a grid beyond 2^26 still exit 2, and so
    does a segment longer than N/2 on the grid 2^26, whose 2N lies past
    the limit: its error names the grid asked for."""
    rng = np.random.default_rng(61)
    cases = [(4, 0, 16), (8, 5, 72), (8, 3, 256)]
    for i in range(37):
        log_N = int(rng.integers(4, 15))
        N = 1 << log_N
        lo = N // 2 + 1 if i % 3 == 0 else 0
        cases.append((log_N, int(rng.integers(0, 1 << 44)),
                      int(rng.integers(lo, N + 1))))
    refs = [np.abs(half_spectrum(Segment(m, m + L), 1 << g))
            for g, m, L in cases]

    def no_fft(*args, **kwargs):
        raise AssertionError('FFT taken')

    monkeypatch.setattr(np.fft, 'rfft', no_fft)
    for (log_N, m, L), ref in zip(cases, refs):
        code, out = run_cli(capsys, '--grid-log2', str(log_N), 'eval',
                            str(m), str(m + L), '--grid')
        res = json.loads(out)['result']
        j, tol = res['argmax_index'], eps_fp(L, 1 << log_N)
        assert code == 0 and 0 <= j <= 1 << (log_N - 1), (log_N, m, L)
        assert abs(res['max_abs'] - ref.max()) <= tol, (log_N, m, L)
        assert ref[j] >= ref.max() - 2 * tol, (log_N, m, L)
    for argv in (['--grid-log2', '8', 'eval', '0', '257', '--grid'],
                 ['eval', str(1 << 64), str((1 << 64) + 4), '--grid'],
                 ['--grid-log2', '27', 'eval', '0', '4', '--grid'],
                 ['--grid-log2', '26', 'eval', '0', '40000000', '--grid']):
        code = main(argv)
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and 'error' in err, argv
    assert err['error'].startswith('grid size 67108864: a segment longer '
                                   'than N/2 needs the grid 2N'), err


def test_eval_point_large_offset_is_strict_json(capsys):
    """At offsets past 2^53 the value stays finite, so stdout stays strict
    JSON (no NaN)."""
    m = (1 << 80) - 6

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    code, out = run_cli(capsys, 'eval', str(m), str(m + 10), '--z', '0.6,0.8')
    value = json.loads(out, parse_constant=reject)['result']['value']
    assert code == 0 and abs(complex(*value)) <= 10


def test_non_finite_value_is_a_json_error(capsys, tmp_path, monkeypatch):
    """A NaN in a document is refused before anything is printed or
    written: exit 2 and a JSON error, never non-strict JSON."""
    import rsbounds.cli as cli

    monkeypatch.setattr(cli, 'eval_point', lambda seg, z: complex('nan'))
    code = main(['--out-dir', str(tmp_path), 'eval', '0', '3', '--z', '1,0'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ''
    assert json.loads(captured.err)['schema_version'] == 1
    assert not list(tmp_path.glob('*.json'))


def test_certify_f_builtin(capsys, tmp_path):
    code, out = run_cli(capsys, '--grid-log2', '18', '--out-dir',
                        str(tmp_path), 'certify-f', '--table', 'builtin:1',
                        '--target', '7.92', '--interval', '11/8', '25/16')
    assert code == 0
    doc = json.loads(out)
    assert doc['result']['covered'] is True
    assert (tmp_path / 'certify_f.json').exists()


def test_certify_f_failure_exit_code(capsys, tmp_path):
    code, out = run_cli(capsys, '--grid-log2', '16', '--out-dir',
                        str(tmp_path), 'certify-f', '--table', 'builtin:1',
                        '--target', '6.0', '--interval', '11/8', '25/16')
    assert code == 1
    assert json.loads(out)['result']['covered'] is False


def test_certify_f_point_interval_needs_a_certified_record(capsys, tmp_path):
    """f(3/2) = 5 fails every anchor at target 0.5, so the point 3/2 is
    not covered: exit 1 and the gap at 3/2."""
    code, out = run_cli(capsys, '--grid-log2', '16', '--out-dir',
                        str(tmp_path), 'certify-f', '--table', 'builtin:1',
                        '--target', '0.5', '--interval', '3/2', '3/2')
    doc = json.loads(out)['result']
    assert code == 1
    assert doc['covered'] is False and doc['gap_at'] == 1.5


def test_certify_f_radius_below_the_radius_bits(capsys, tmp_path):
    """A target just above f(11/8) binds the 6x piece in an octave below
    2^-48; the radius search covers the center instead of failing."""
    table = tmp_path / 't1.txt'
    table.write_text('1.011\n')
    code, out = run_cli(capsys, '--grid-log2', '20', '--out-dir',
                        str(tmp_path), 'certify-f', '--table', str(table),
                        '--target', '6.2500001084', '--interval', '11/8',
                        '11/8')
    rec, = json.loads(out)['result']['records']
    assert code == 0 and rec['binding'] == 'case-6x'


def test_certify_f_table_uses_the_command_line_grammar(capsys, tmp_path):
    """A table line is read as a command-line point: '10' is ten and
    '11/8' is accepted; '.', '.1' and '1.2' exit 2, naming the text."""
    table = tmp_path / 'centers.txt'
    for line, target, point in (('10', '100', '10'),
                                ('11/8  # a fraction', '7.92', '11/8')):
        table.write_text(line + '\n')
        code, out = run_cli(capsys, '--grid-log2', '16', '--out-dir',
                            str(tmp_path), 'certify-f', '--table',
                            str(table), '--target', target, '--interval',
                            point, point)
        assert code == 0 and json.loads(out)['result']['covered'] is True
    for line in ('.', '.1', '1.2'):
        table.write_text(f'1.011\n{line}\n')
        code = main(['--grid-log2', '16', '--out-dir', str(tmp_path),
                     'certify-f', '--table', str(table), '--target', '9',
                     '--interval', '11/8', '11/8'])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ''
        assert repr(line) in json.loads(captured.err)['error']


def test_certify_g_single_square(capsys, tmp_path):
    code, out = run_cli(capsys, '--grid-log2', '12', '--max-scale', '3',
                        '--out-dir', str(tmp_path), '--threads', '1',
                        'certify-g', '--square', '0', '3', '0')
    doc = json.loads(out)
    assert code == 0 and doc['result']['exclusion_ok'] is True
    assert (tmp_path / 'certify_g_squares.csv').exists()


def test_certify_f2_cli(capsys, tmp_path):
    code, out = run_cli(capsys, '--grid-log2', '14', '--max-scale', '4',
                        '--out-dir', str(tmp_path), 'certify-f2')
    doc = json.loads(out)
    assert code == 0 and doc['result']['ok'] is True


def test_extremal(capsys):
    code, out = run_cli(capsys, 'extremal', '--k', '5')
    doc = json.loads(out)['result']
    assert code == 0
    assert (doc['value_at_one'], doc['value_at_minus_one']) == (94, -30)


def test_montgomery(capsys, tmp_path):
    code, out = run_cli(capsys, '--grid-log2', '14', '--out-dir',
                        str(tmp_path), 'montgomery', '--k', '8')
    doc = json.loads(out)['result']
    assert code == 0 and doc['exceeds_nine'] is True
    assert (tmp_path / 'montgomery_8.csv').exists()


def test_dense(capsys, tmp_path):
    code, out = run_cli(capsys, '--out-dir', str(tmp_path), 'dense',
                        '--m', '0', '--n', '1', '--kmax', '4')
    doc = json.loads(out)['result']
    assert code == 0 and doc['hard_ok'] is True
    assert (tmp_path / 'dense_0_1.csv').exists()


def test_figures_small(capsys, tmp_path):
    code, out = run_cli(capsys, '--grid-log2', '12', '--max-scale', '2',
                        '--out-dir', str(tmp_path), 'figures')
    assert code == 0
    assert json.loads(out)['result']['files'] == ['figure_f_curve.csv']
    curve = (tmp_path / 'figure_f_curve.csv').read_text().splitlines()
    assert curve[0].startswith('# config:')
    assert curve[1] == 'x,f_lo,f_hi' and len(curve) == 259
    # The g subdivision picture is certify-g's own certify_g_squares.csv.
    assert not list(tmp_path.glob('*g_squares*'))


def test_invalid_input_exit_code(capsys):
    bad_points = ('not-binary', '1.2', '2.', '1/0', '1/3', '')
    cases = [['f', bad] for bad in bad_points] + [
        ['certify-f', '--interval', '1', '2'],     # no --target
        ['no-such-command'], ['montgomery', '--k', 'abc'],
        # a k whose 4^k no memory holds: refused by the range check
        ['montgomery', '--k', str(10 ** 12)],
        ['eval', '0', '5', '--z', 'nan,0'],
        ['eval', '0', '5', '--z', '1'], ['eval', '0', '5', '--z', '1,0,0'],
        ['certify-f', '--target', 'inf', '--interval', '1', '2'],
        ['certify-f', '--target', 'nan', '--interval', '1', '2'],
        ['certify-f', '--target', '9', '--interval', '2', '1'],   # reversed
        *(['certify-f', '--table', f'builtin:{t}', '--target', '9',
           '--interval', '1', '2'] for t in ('0', '3', 'x', '')),
        ['dense', '--m', '0', '--n', '1', '--kmax', '-1'],
        # indices past 2^64 - 1
        ['coeffs', str(1 << 64), str((1 << 64) + 4)],
        ['eval', str(1 << 64), str((1 << 64) + 4), '--grid'],
        ['dense', '--m', str(1 << 64), '--n', str((1 << 64) + 1),
         '--kmax', '0'],
        # 2^-k times the enclosure would underflow to 0.0
        ['f', f'1/{1 << 1080}'],
        *([cmd, f'1/{1 << 1100}', f'1/{1 << 1099}'] for cmd in ('f2', 'g'))]
    for argv in cases:
        code = main(argv)
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and 'error' in err, argv
        assert err['schema_version'] == 1, argv
    for z in ('1', '1,0,0'):     # the message names the form --z takes
        main(['eval', '0', '5', '--z', z])
        assert 're,im' in json.loads(capsys.readouterr().err)['error']
    for t in ('3', 'x'):         # ... and the tables, not a file path
        main(['certify-f', '--table', f'builtin:{t}', '--target', '9',
              '--interval', '1', '2'])
        error = json.loads(capsys.readouterr().err)['error']
        assert 'builtin:1' in error and 'builtin:2' in error, error
        assert 'table3' not in error and 'int()' not in error, error


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(['--help'])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith('usage: rsbounds')


def test_python_m_rsbounds(tmp_path):
    """The module entry point runs the CLI in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(rsbounds.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get('PYTHONPATH')])))
    proc = subprocess.run([sys.executable, '-m', 'rsbounds', 'extremal',
                           '--k', '3'], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)['result']['invariants_ok'] is True


def test_certify_f_decimal_endpoint(capsys, tmp_path):
    """A bare '2' is two, the same endpoint as the binary '10.'."""
    docs = []
    for b in ('2', '10.'):
        code, out = run_cli(capsys, '--grid-log2', '16', '--out-dir',
                            str(tmp_path), 'certify-f', '--table', 'builtin:2',
                            '--target', '9', '--interval', '25/16', b)
        doc = json.loads(out)['result']
        assert code == 0 and doc['covered'] is True
        assert doc['interval_exact'] == [[25, 16], [2, 1]]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_byte_determinism_modulo_timestamp(capsys):
    _, out1 = run_cli(capsys, '--grid-log2', '14', 'f', '1.011')
    _, out2 = run_cli(capsys, '--grid-log2', '14', 'f', '1.011')
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop('generated_at'), d2.pop('generated_at')
    assert d1 == d2


# One invocation of each subcommand that prints JSON (coeffs prints signs).
_JSON_COMMANDS = [
    ['eval', '3', '19', '--z', '0.6,0.8'],
    ['--grid-log2', '12', 'eval', '5', '77', '--grid'],
    ['--grid-log2', '16', 'f', '1.011'],
    ['--grid-log2', '12', 'f2', '10.', '11.'],
    ['--grid-log2', '14', 'g', '1.', '10.'],
    ['--grid-log2', '16', 'certify-f', '--table', 'builtin:1', '--target',
     '7.92', '--interval', '11/8', '25/16'],
    ['--grid-log2', '16', 'certify-g'],
    ['--grid-log2', '14', '--max-scale', '4', 'certify-f2'],
    ['extremal', '--k', '3'],
    ['montgomery', '--k', '6'],
    ['dense', '--m', '0', '--n', '1', '--kmax', '4'],
    ['--grid-log2', '12', 'figures'],
]


@pytest.mark.parametrize('argv', _JSON_COMMANDS, ids=lambda a: ' '.join(a))
def test_stdout_is_the_indented_sorted_layout(capsys, tmp_path, argv):
    """Stdout is json.dumps(doc, indent=2, sort_keys=True) of its own
    document, plus a newline; a JSON file it writes holds the same text."""
    code, out = run_cli(capsys, '--out-dir', str(tmp_path), *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + '\n'
    for path in tmp_path.glob('*.json'):
        assert path.read_text() == out
