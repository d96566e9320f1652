"""Golden transcript: the exact stdout, stderr and exit code of every subcommand.

Each case runs ``schurlab.cli.main`` in a directory holding the 2x2 and 3x3
inputs below. The help text is formatted for 80 columns, and the one field
that varies from run to run, ``timing.elapsed`` in ``verify`` reports, reads 0.0.
"""

import re

import pytest

from schurlab.cli import main

INPUTS = {
    "unit.json": (
        '{"rows": 2, "cols": 2, "data": [[[1, 0], [0, 1]], [[0, -1], [1, 0]]]}'
    ),
    "real.json": (
        '{"rows": 2, "cols": 2, "data": [[[1, 0], [2, 0]], [[0.5, 0], [1, 0]]]}'
    ),
    "offdiag.json": (
        '{"rows": 2, "cols": 2, "data": [[[2, 0], [1, 0]], [[1, 0], [2, 0]]]}'
    ),
    "wide.json": (
        '{"rows": 2, "cols": 3, "data": [[[1, 0], [1, 0], [1, 0]], [[1, 0], [1, '
        '0], [1, 0]]]}'
    ),
    "malformed.json": (
        '{not json'
    ),
    "chain.json": (
        '{"rows": 3, "cols": 3, "data": [[[1, 0], [2, 0], null], [null, [1, 0], '
        '[3, 0]], [null, null, [1, 0]]]}'
    ),
    "cycle.json": (
        '{"rows": 3, "cols": 3, "data": [[[1, 0], [2, 0], [5, 0]], [null, [1, '
        '0], [3, 0]], [null, null, [1, 0]]]}'
    ),
    "split.json": (
        '{"rows": 3, "cols": 3, "data": [[[1, 0], [2, 0], null], [null, [1, 0], '
        'null], [null, null, [1, 0]]]}'
    ),
    "zero.json": (
        '{"rows": 2, "cols": 2, "data": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}'
    ),
    "star.json": (
        '{"rows": 3, "cols": 3, "data": [[[1, 0], [0, 1], null], [null, [1, 0], '
        '[0, -1]], [null, null, [1, 0]]]}'
    ),
}

# (argv, exit code, stdout, stderr)
TRANSCRIPT = [
    (
        ["--help"],
        0,
        (
            'usage: schurlab [-h] {check,factor,complete,enumerate,norm,witness,verif'
            'y} ...\n'
            '\n'
            'Certify, factor, enumerate and complete multiplicative Schur maps.\n'
            '\n'
            'positional arguments:\n'
            '  {check,factor,complete,enumerate,norm,witness,verify}\n'
            '    check               certify a matrix file\n'
            '    factor              print the scaling vector of a multiplicative '
            'matrix\n'
            '    complete            fill in a partial matrix document\n'
            '    enumerate           list all real positive members of size n\n'
            '    norm                print operator norm and Schur-map norm\n'
            '    witness             norm lower bound witness for a generator corner\n'
            '    verify              run a seeded property suite\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
        ),
        "",
    ),
    (
        ["check", "--help"],
        0,
        (
            'usage: schurlab check [-h] [--tol TOL] [--star] [--json] [--trials '
            'TRIALS]\n'
            '                      [--seed SEED]\n'
            '                      path\n'
            '\n'
            'positional arguments:\n'
            '  path\n'
            '\n'
            'options:\n'
            '  -h, --help       show this help message and exit\n'
            '  --tol TOL        relative tolerance (default 1e-10 or SCHURLAB_TOL)\n'
            '  --star           require the star-preserving battery to pass as well\n'
            '  --json\n'
            '  --trials TRIALS\n'
            '  --seed SEED\n'
        ),
        "",
    ),
    (
        ["factor", "--help"],
        0,
        (
            'usage: schurlab factor [-h] [--tol TOL] [--json] path\n'
            '\n'
            'positional arguments:\n'
            '  path\n'
            '\n'
            'options:\n'
            '  -h, --help  show this help message and exit\n'
            '  --tol TOL   relative tolerance (default 1e-10 or SCHURLAB_TOL)\n'
            '  --json\n'
        ),
        "",
    ),
    (
        ["complete", "--help"],
        0,
        (
            'usage: schurlab complete [-h] [--tol TOL] [--star] path\n'
            '\n'
            'positional arguments:\n'
            '  path\n'
            '\n'
            'options:\n'
            '  -h, --help  show this help message and exit\n'
            '  --tol TOL   relative tolerance (default 1e-10 or SCHURLAB_TOL)\n'
            '  --star      star-preserving mode: entries unimodular, reciprocals '
            'implied\n'
        ),
        "",
    ),
    (
        ["enumerate", "--help"],
        0,
        (
            'usage: schurlab enumerate [-h] [--format {jsonl,array}] n\n'
            '\n'
            'positional arguments:\n'
            '  n\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
            '  --format {jsonl,array}\n'
        ),
        "",
    ),
    (
        ["norm", "--help"],
        0,
        (
            'usage: schurlab norm [-h] [--tol TOL] [--json] path\n'
            '\n'
            'positional arguments:\n'
            '  path\n'
            '\n'
            'options:\n'
            '  -h, --help  show this help message and exit\n'
            '  --tol TOL   relative tolerance (default 1e-10 or SCHURLAB_TOL)\n'
            '  --json\n'
        ),
        "",
    ),
    (
        ["witness", "--help"],
        0,
        (
            'usage: schurlab witness [-h] --gen GEN [--tol TOL] [--csv] n\n'
            '\n'
            'positional arguments:\n'
            '  n\n'
            '\n'
            'options:\n'
            '  -h, --help  show this help message and exit\n'
            '  --gen GEN   toeplitz:<re>,<im> | scaling:<file> | table:<file>\n'
            '  --tol TOL   relative tolerance (default 1e-10 or SCHURLAB_TOL)\n'
            '  --csv       emit an n,lower_bound row\n'
        ),
        "",
    ),
    (
        ["verify", "--help"],
        0,
        (
            'usage: schurlab verify [-h] --suite\n'
            '                       {thm21,thm24,prop26,group,torus,completion,schatt'
            'en,extreme,all}\n'
            '                       [--trials TRIALS] [--seed SEED] [--tol TOL]\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
            '  --suite {thm21,thm24,prop26,group,torus,completion,schatten,extreme,al'
            'l}\n'
            '  --trials TRIALS\n'
            '  --seed SEED\n'
            '  --tol TOL             relative tolerance (default 1e-10 or '
            'SCHURLAB_TOL)\n'
        ),
        "",
    ),
    (
        ["check", "unit.json"],
        0,
        (
            'tolerance: rel=1e-10 abs=1e-12\n'
            'multiplicative: yes\n'
            '  cocycle                        pass  residual 8.882e-15\n'
            '  unit_diagonal                  pass  residual 0.000e+00\n'
            '  rank_one                       pass  residual 2.132e-14\n'
            '  spectrum_0_n                   pass  residual 6.071e-14\n'
            '  product_sampling               pass  residual 2.575e-14\n'
            'star-preserving: yes\n'
            '  star_and_multiplicative        pass  residual 1.799e-14\n'
            '  cp_isomorphism_proxy           pass  residual 2.309e-14\n'
            '  rank_one_normal_unit_diag      pass  residual 8.193e-14\n'
            '  rank_one_unimodular_unit_diag  pass  residual 2.132e-14\n'
            '  selfadjoint_spectrum_norm      pass  residual 3.036e-14\n'
            '  schur_pair_positive            pass  residual 2.309e-14\n'
        ),
        "",
    ),
    (
        ["check", "unit.json", "--json"],
        0,
        (
            '{"verdict": true, "multiplicative": {"verdict": true, "conditions": '
            '{"cocycle": {"pass": true, "residual": 8.881784197001347e-15}, '
            '"unit_diagonal": {"pass": true, "residual": 0.0}, "rank_one": {"pass": '
            'true, "residual": 2.1316282072803637e-14}, "spectrum_0_n": {"pass": true, '
            '"residual": 6.071015826856025e-14}, "product_sampling": {"pass": true, '
            '"residual": 2.574951632241551e-14}}, "witness": null, "scaling": '
            '[[1.0, 0.0], [0.0, -1.0]], "inconsistent": false, "tolerance": {"rel": '
            '1e-10, "abs": 1e-12}}, "star": {"verdict": true, "conditions": '
            '{"star_and_multiplicative": {"pass": true, "residual": '
            '1.7985612998928252e-14}, "cp_isomorphism_proxy": {"pass": true, '
            '"residual": 2.3092638912203947e-14}, "rank_one_normal_unit_diag": '
            '{"pass": true, "residual": 8.193445921734214e-14}, '
            '"rank_one_unimodular_unit_diag": {"pass": true, "residual": '
            '2.1316282072803637e-14}, "selfadjoint_spectrum_norm": {"pass": true, '
            '"residual": 3.035507913428012e-14}, "schur_pair_positive": {"pass": '
            'true, "residual": 2.3092638912203947e-14}}, "tolerance": {"rel": 1e-10, '
            '"abs": 1e-12}}}\n'
        ),
        "",
    ),
    (
        ["check", "unit.json", "--star"],
        0,
        (
            'tolerance: rel=1e-10 abs=1e-12\n'
            'multiplicative: yes\n'
            '  cocycle                        pass  residual 8.882e-15\n'
            '  unit_diagonal                  pass  residual 0.000e+00\n'
            '  rank_one                       pass  residual 2.132e-14\n'
            '  spectrum_0_n                   pass  residual 6.071e-14\n'
            '  product_sampling               pass  residual 2.575e-14\n'
            'star-preserving: yes\n'
            '  star_and_multiplicative        pass  residual 1.799e-14\n'
            '  cp_isomorphism_proxy           pass  residual 2.309e-14\n'
            '  rank_one_normal_unit_diag      pass  residual 8.193e-14\n'
            '  rank_one_unimodular_unit_diag  pass  residual 2.132e-14\n'
            '  selfadjoint_spectrum_norm      pass  residual 3.036e-14\n'
            '  schur_pair_positive            pass  residual 2.309e-14\n'
        ),
        "",
    ),
    (
        ["check", "unit.json", "--star", "--json"],
        0,
        (
            '{"verdict": true, "multiplicative": {"verdict": true, "conditions": '
            '{"cocycle": {"pass": true, "residual": 8.881784197001347e-15}, '
            '"unit_diagonal": {"pass": true, "residual": 0.0}, "rank_one": {"pass": '
            'true, "residual": 2.1316282072803637e-14}, "spectrum_0_n": {"pass": true, '
            '"residual": 6.071015826856025e-14}, "product_sampling": {"pass": true, '
            '"residual": 2.574951632241551e-14}}, "witness": null, "scaling": '
            '[[1.0, 0.0], [0.0, -1.0]], "inconsistent": false, "tolerance": {"rel": '
            '1e-10, "abs": 1e-12}}, "star": {"verdict": true, "conditions": '
            '{"star_and_multiplicative": {"pass": true, "residual": '
            '1.7985612998928252e-14}, "cp_isomorphism_proxy": {"pass": true, '
            '"residual": 2.3092638912203947e-14}, "rank_one_normal_unit_diag": '
            '{"pass": true, "residual": 8.193445921734214e-14}, '
            '"rank_one_unimodular_unit_diag": {"pass": true, "residual": '
            '2.1316282072803637e-14}, "selfadjoint_spectrum_norm": {"pass": true, '
            '"residual": 3.035507913428012e-14}, "schur_pair_positive": {"pass": '
            'true, "residual": 2.3092638912203947e-14}}, "tolerance": {"rel": 1e-10, '
            '"abs": 1e-12}}}\n'
        ),
        "",
    ),
    (
        ["check", "unit.json", "--tol", "1e-4"],
        0,
        (
            'tolerance: rel=0.0001 abs=1e-12\n'
            'multiplicative: yes\n'
            '  cocycle                        pass  residual 8.882e-15\n'
            '  unit_diagonal                  pass  residual 0.000e+00\n'
            '  rank_one                       pass  residual 2.132e-14\n'
            '  spectrum_0_n                   pass  residual 6.071e-14\n'
            '  product_sampling               pass  residual 2.575e-14\n'
            'star-preserving: yes\n'
            '  star_and_multiplicative        pass  residual 1.799e-14\n'
            '  cp_isomorphism_proxy           pass  residual 2.309e-14\n'
            '  rank_one_normal_unit_diag      pass  residual 8.193e-14\n'
            '  rank_one_unimodular_unit_diag  pass  residual 2.132e-14\n'
            '  selfadjoint_spectrum_norm      pass  residual 3.036e-14\n'
            '  schur_pair_positive            pass  residual 2.309e-14\n'
        ),
        "",
    ),
    (
        ["check", "real.json", "--star"],
        1,
        (
            'tolerance: rel=1e-10 abs=1e-12\n'
            'multiplicative: yes\n'
            '  cocycle                        pass  residual 2.842e-14\n'
            '  unit_diagonal                  pass  residual 0.000e+00\n'
            '  rank_one                       pass  residual 2.132e-14\n'
            '  spectrum_0_n                   pass  residual 7.105e-14\n'
            '  product_sampling               pass  residual 1.994e-14\n'
            'star-preserving: no\n'
            '  star_and_multiplicative        FAIL  residual 6.000e-01\n'
            '  cp_isomorphism_proxy           FAIL  residual 6.000e-01\n'
            '  rank_one_normal_unit_diag      FAIL  residual 6.000e-01\n'
            '  rank_one_unimodular_unit_diag  FAIL  residual 1.000e+00\n'
            '  selfadjoint_spectrum_norm      FAIL  residual 1.000e+00\n'
            '  schur_pair_positive            FAIL  residual 6.000e-01\n'
        ),
        "",
    ),
    (
        ["check", "real.json", "--star", "--json"],
        1,
        (
            '{"verdict": false, "multiplicative": {"verdict": true, "conditions": '
            '{"cocycle": {"pass": true, "residual": 2.8421709430404336e-14}, '
            '"unit_diagonal": {"pass": true, "residual": 0.0}, "rank_one": {"pass": '
            'true, "residual": 2.1316282072803643e-14}, "spectrum_0_n": {"pass": '
            'true, "residual": 7.10542735760119e-14}, "product_sampling": {"pass": '
            'true, "residual": 1.9940174225285193e-14}}, "witness": null, "scaling": '
            '[[1.0, 0.0], [0.5, 0.0]], "inconsistent": false, "tolerance": {"rel": '
            '1e-10, "abs": 1e-12}}, "star": {"verdict": false, "conditions": '
            '{"star_and_multiplicative": {"pass": false, "residual": '
            '0.6}, "cp_isomorphism_proxy": {"pass": false, '
            '"residual": 0.6}, "rank_one_normal_unit_diag": {"pass": false, '
            '"residual": 0.6}, "rank_one_unimodular_unit_diag": '
            '{"pass": false, "residual": 1.0}, "selfadjoint_spectrum_norm": {"pass": '
            'false, "residual": 1.0}, "schur_pair_positive": {"pass": false, '
            '"residual": 0.6}}, "tolerance": {"rel": 1e-10, "abs": 1e-12}}}\n'
        ),
        "",
    ),
    (
        ["check", "offdiag.json"],
        1,
        (
            'tolerance: rel=1e-10 abs=1e-12\n'
            'multiplicative: no\n'
            '  cocycle                        FAIL  residual 2.000e+00\n'
            '  unit_diagonal                  FAIL  residual 1.000e+00\n'
            '  rank_one                       FAIL  residual 3.333e-01\n'
            '  spectrum_0_n                   FAIL  residual 1.000e+00\n'
            '  product_sampling               FAIL  residual 3.188e-01\n'
            '  violation at (1,1,1)\n'
            'star-preserving: n/a (unit diagonal required for the star battery, '
            'worst deviation 1.000e+00)\n'
        ),
        "",
    ),
    (
        ["check", "wide.json"],
        2,
        "",
        (
            'error: square matrix required, got shape (2, 3)\n'
        ),
    ),
    (
        ["check", "malformed.json"],
        2,
        "",
        (
            'error: invalid JSON: Expecting property name enclosed in double quotes: '
            'line 1 column 2 (char 1)\n'
        ),
    ),
    (
        ["check", "zero.json"],
        1,
        "",
        (
            'multiplicative: no (the zero Schur map is excluded from certification)\n'
        ),
    ),
    (
        ["check", "zero.json", "--json"],
        1,
        (
            '{"verdict": false, "multiplicative": {"applicable": false, "reason": '
            '"the zero Schur map is excluded from certification"}, "star": '
            '{"applicable": false, "reason": "unit diagonal required for the star '
            'battery, worst deviation 1.000e+00"}}\n'
        ),
        "",
    ),
    (
        ["factor", "unit.json"],
        0,
        (
            'tolerance: rel=1e-10 abs=1e-12\n'
            'f = (1+0i, 0-1i)\n'
            'S_A(B) = diag(f) B diag(f)^{-1}\n'
        ),
        "",
    ),
    (
        ["factor", "real.json", "--json"],
        0,
        (
            '{"scaling": [[1.0, 0.0], [0.5, 0.0]], "tolerance": {"rel": 1e-10, '
            '"abs": 1e-12}}\n'
        ),
        "",
    ),
    (
        ["factor", "offdiag.json"],
        1,
        "",
        (
            'not multiplicative (ratio identity fails with residual 2.000e+00 at '
            'witness (1, 1, 1))\n'
        ),
    ),
    (
        ["factor", "zero.json"],
        1,
        "",
        (
            'not multiplicative (ratio identity fails with residual 1.000e+00 at '
            'witness (1, 1, None))\n'
        ),
    ),
    (
        ["norm", "zero.json"],
        1,
        (
            'tolerance: rel=1e-10 abs=1e-12\n'
            'operator_norm: 0\n'
            'schur_map_norm: n/a (ratio identity fails with residual 1.000e+00 at '
            'witness (1, 1, None))\n'
        ),
        "",
    ),
    (
        ["norm", "real.json"],
        0,
        (
            'tolerance: rel=1e-10 abs=1e-12\n'
            'operator_norm: 2.5000000000000004\n'
            'schur_map_norm: 2\n'
        ),
        "",
    ),
    (
        ["norm", "real.json", "--json"],
        0,
        (
            '{"operator_norm": 2.5000000000000004, "schur_map_norm": 2.0, '
            '"tolerance": {"rel": 1e-10, "abs": 1e-12}}\n'
        ),
        "",
    ),
    (
        ["norm", "offdiag.json"],
        1,
        (
            'tolerance: rel=1e-10 abs=1e-12\n'
            'operator_norm: 2.9999999999999996\n'
            'schur_map_norm: n/a (ratio identity fails with residual 2.000e+00 at '
            'witness (1, 1, 1))\n'
        ),
        "",
    ),
    (
        ["norm", "offdiag.json", "--json"],
        1,
        (
            '{"operator_norm": 2.9999999999999996, "schur_map_norm": null, '
            '"tolerance": {"rel": 1e-10, "abs": 1e-12}}\n'
        ),
        "",
    ),
    (
        ["complete", "chain.json"],
        0,
        (
            '{"rows":3,"cols":3,"data":[[[1.0,0.0],[2.0,0.0],[6.0,0.0]],[[0.5,0.0],[1'
            '.0,0.0],[3.0,0.0]],[[0.16666666666666666,0.0],[0.3333333333333333,0.0],['
            '1.0,0.0]]]}\n'
        ),
        "",
    ),
    (
        ["complete", "star.json", "--star"],
        0,
        (
            '{"rows":3,"cols":3,"data":[[[1.0,0.0],[-0.0,1.0],[1.0,0.0]],[[0.0,-1.0],'
            '[1.0,0.0],[0.0,-1.0]],[[1.0,0.0],[0.0,1.0],[1.0,0.0]]]}\n'
        ),
        "",
    ),
    (
        ["complete", "cycle.json"],
        1,
        "",
        (
            'inconsistent cycle (1,2,3) residual 1.000000e+00\n'
        ),
    ),
    (
        ["complete", "split.json"],
        3,
        "",
        (
            'component {1,2}\n'
            'component {3}\n'
            'underdetermined: constraint graph is disconnected\n'
        ),
    ),
    (
        ["enumerate", "3"],
        0,
        (
            '{"rows":3,"cols":3,"data":[[[1.0,0.0],[1.0,0.0],[1.0,0.0]],[[1.0,0.0],[1'
            '.0,0.0],[1.0,0.0]],[[1.0,0.0],[1.0,0.0],[1.0,0.0]]]}\n'
            '{"rows":3,"cols":3,"data":[[[1.0,0.0],[1.0,0.0],[-1.0,0.0]],[[1.0,0.0],['
            '1.0,0.0],[-1.0,0.0]],[[-1.0,0.0],[-1.0,0.0],[1.0,0.0]]]}\n'
            '{"rows":3,"cols":3,"data":[[[1.0,0.0],[-1.0,0.0],[1.0,0.0]],[[-1.0,0.0],'
            '[1.0,0.0],[-1.0,0.0]],[[1.0,0.0],[-1.0,0.0],[1.0,0.0]]]}\n'
            '{"rows":3,"cols":3,"data":[[[1.0,0.0],[-1.0,0.0],[-1.0,0.0]],[[-1.0,0.0]'
            ',[1.0,0.0],[1.0,0.0]],[[-1.0,0.0],[1.0,0.0],[1.0,0.0]]]}\n'
        ),
        "",
    ),
    (
        ["enumerate", "2", "--format", "array"],
        0,
        (
            '[{"rows":2,"cols":2,"data":[[[1.0,0.0],[1.0,0.0]],[[1.0,0.0],[1.0,0.0]]]'
            '},{"rows":2,"cols":2,"data":[[[1.0,0.0],[-1.0,0.0]],[[-1.0,0.0],[1.0,0.0'
            ']]]}]\n'
        ),
        "",
    ),
    (
        ["witness", "3", "--gen", "toeplitz:0,1"],
        0,
        (
            '{"generator": "toeplitz:0,1", "n": 3, "lower_bound": '
            '3.0000000000000004, "x": [[0.5773502691896258, 0.0], [0.0, '
            '-0.5773502691896258], [-0.5773502691896258, 0.0]], "tolerance": {"rel": '
            '1e-10, "abs": 1e-12}}\n'
        ),
        "",
    ),
    (
        ["witness", "3", "--gen", "toeplitz:0,1", "--csv"],
        0,
        (
            '3,3.0000000000000004\n'
        ),
        "",
    ),
    (
        ["witness", "2", "--gen", "table:offdiag.json"],
        1,
        "",
        (
            'corner is not multiplicative: corner of size 2 fails the ratio identity '
            '(residual 2.000e+00)\n'
        ),
    ),
    (
        ["verify", "--suite", "prop26", "--trials", "2"],
        0,
        (
            '{"suite": "prop26", "trials": 2, "seed": 0, "cases": 4, "failures": [], '
            '"timing": {"elapsed": 0.0}, "tolerance": {"rel": 1e-10, "abs": 1e-12}}\n'
        ),
        "",
    ),
    (
        ["bogus"],
        2,
        "",
        (
            "schurlab: error: argument command: invalid choice: 'bogus' (choose from "
            "'check', 'factor', 'complete', 'enumerate', 'norm', 'witness', "
            "'verify')\n"
        ),
    ),
]

ELAPSED = re.compile(r'"elapsed": [^,}]+')


@pytest.mark.parametrize(
    "argv, code, stdout, stderr", TRANSCRIPT, ids=[" ".join(case[0]) for case in TRANSCRIPT]
)
def test_cli_transcript(argv, code, stdout, stderr, tmp_path, monkeypatch, capsys):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SCHURLAB_TOL", raising=False)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert ELAPSED.sub('"elapsed": 0.0', out) == stdout
    assert err == stderr


# exactly multiplicative with f = (1, 1e-300); entries span 600 decades
SCALED = '{"rows": 2, "cols": 2, "data": [[[1, 0], [1e300, 0]], [[1e-300, 0], [1, 0]]]}'


@pytest.mark.parametrize("name", [*INPUTS, "scaled.json"])
def test_factor_and_norm_apply_one_rule(name, tmp_path, monkeypatch, capsys):
    for input_name, text in {**INPUTS, "scaled.json": SCALED}.items():
        (tmp_path / input_name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SCHURLAB_TOL", raising=False)
    assert main(["factor", name]) == main(["norm", name])
    if name == "scaled.json":
        assert "f = (1+0i, 1e-300+0i)\n" in capsys.readouterr().out
