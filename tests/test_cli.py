import json
import os
import subprocess
import sys

import pytest

import rsbounds
from rsbounds.cli import main
from rsbounds.evaluate import eval_point_root
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


def test_eval_point_large_offset_is_strict_json(capsys):
    """At offsets past 2^53 the value stays finite, so stdout stays strict
    JSON (no NaN)."""
    m = (1 << 80) - 6

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    code, out = run_cli(capsys, 'eval', str(m), str(m + 10), '--z', '0.6,0.8')
    value = json.loads(out, parse_constant=reject)['result']['value']
    assert code == 0 and abs(complex(*value)) <= 10


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
