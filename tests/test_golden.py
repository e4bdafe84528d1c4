"""Golden CLI output: byte-exact stdout for a fixed set of invocations.

The expected text was recorded from the CLI and must not change when the
code behind it is restructured.  Commands whose values come from libm
``pow``/``expm1`` (qary) or from numpy reductions (ensemble) are left out.
"""

import pytest

from fpcount.cli import main

GOLDEN = [
    (
        "oracle --counter morris --n 2 --mode exact",
        "family,param,n,mean,variance,accuracy\n"
        "morris,,2,2.0,1.0,0.5\n"
    ),
    (
        "oracle --counter morris --n 64 --mode exact",
        "family,param,n,mean,variance,accuracy\n"
        "morris,,64,64.0,2016.0,0.701560760020114\n"
    ),
    (
        "oracle --counter fp --d 4 --n 300",
        "family,param,n,mean,variance,accuracy\n"
        "fp,4,300,300.0,2026.631297807675,0.1500604062742614\n"
    ),
    (
        "oracle --counter fp --d 4 --n 300 --output json",
        "[\n"
        "  {\n"
        '    "family": "fp",\n'
        '    "param": 4,\n'
        '    "n": 300,\n'
        '    "mean": 300.0,\n'
        '    "variance": 2026.631297807675,\n'
        '    "accuracy": 0.1500604062742614\n'
        "  }\n"
        "]\n"
    ),
    (
        "bits --counter fp --d 0 --n 2",
        "family,param,n,expected_bits,alt_expected_bits\n"
        "fp,0,2,1.25,1.1666666666666667\n"
    ),
    (
        "bits --counter fp --d 2 --n 200 --mode exact",
        "family,param,n,expected_bits,alt_expected_bits\n"
        "fp,2,200,1.943519965073382,1.8522473726664788\n"
    ),
    (
        "trajectory --counter fp --d 4 --seed 7 --n 100",
        "family,param,seed,n,k,estimate,rel_error\n"
        "fp,4,7,1,1,1.0,0.0\n"
        "fp,4,7,2,2,2.0,0.0\n"
        "fp,4,7,4,4,4.0,0.0\n"
        "fp,4,7,8,8,8.0,0.0\n"
        "fp,4,7,16,16,16.0,0.0\n"
        "fp,4,7,32,23,30.0,-0.0625\n"
        "fp,4,7,64,37,68.0,0.0625\n"
        "fp,4,7,100,46,104.0,0.04\n"
    ),
    (
        "bounds --counter fp --d 4",
        "family,param,lower,upper\n"
        "fp,4,0.14586499149789456,0.15491933384829668\n"
    ),
    (
        "table-demo --counter fp --d 4 --width 8",
        "slot,k,estimate,lower_bound\n"
        "0,89,784.0,0\n"
        "1,97,1072.0,0\n"
        "2,93,912.0,0\n"
        "3,99,1200.0,0\n"
        "4,92,880.0,0\n"
        "5,99,1200.0,0\n"
        "6,93,912.0,0\n"
        "7,96,1008.0,0\n"
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_golden_stdout(argv, expected, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == expected
