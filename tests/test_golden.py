"""Golden CLI output: byte-exact stdout for a fixed set of invocations.

The expected text was recorded from the CLI and must not change when the
code behind it is restructured.  Commands whose values come from numpy
reductions (ensemble) are left out.  The one qary case takes its q_k and
estimates from libm ``pow``/``expm1``; it was recorded with glibc.
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
    # exact windows of 120 to 573 states, with numerators of thousands of bits
    (
        "oracle --counter fp --d 2 --n 300 --mode exact",
        "family,param,n,mean,variance,accuracy\n"
        "fp,2,300,300.0,8734.390187866304,0.31152653155900084\n"
    ),
    (
        "oracle --counter fp --d 7 --n 700 --mode exact",
        "family,param,n,mean,variance,accuracy\n"
        "fp,7,700,700.0,1204.000001395459,0.04956957595129025\n"
    ),
    # a float window whose bottom would otherwise hold hundreds of stuck
    # subnormal weights
    (
        "oracle --counter fp --d 8 --n 20000",
        "family,param,n,mean,variance,accuracy\n"
        "fp,8,20000,20000.00000000002,577248.0000016866,0.037988419288043744\n"
    ),
    # the float walker's non-dyadic path: q_k = 2**(-k/16)
    (
        "oracle --counter qary --r 16 --n 100000",
        "family,param,n,mean,variance,accuracy\n"
        "qary,16,100000,100000.00000000013,221366698.4479485,0.14878397038926872\n"
    ),
    (
        "bits --counter morris --n 120 --mode exact",
        "family,param,n,expected_bits,alt_expected_bits\n"
        "morris,,120,1.9763479167982145,1.925996561992231\n"
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
