"""CLI contract: flag validation (exit 2), output schemas, CSV/JSON
field parity, value round-tripping, reproducibility, and the numeric
failure path (exit 3)."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from fpcount import (
    MODE_FLOAT,
    CounterParams,
    CounterTable,
    expected_bits,
    linear_checkpoints,
    log_checkpoints,
    run_ensemble,
    run_trajectory,
    sweep_moments,
)
from fpcount.cli import build_parser, main, parse_args


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fpcount", *args],
        capture_output=True,
    )


def rows_of(stdout_bytes):
    return list(csv.DictReader(io.StringIO(stdout_bytes.decode())))


class TestParsing:
    def test_defaults(self):
        config = parse_args(["trajectory", "--counter", "fp", "--d", "4", "--n", "100"])
        assert config.seed == 1
        assert config.output == "csv"
        assert config.checkpoints == [1, 2, 4, 8, 16, 32, 64, 100]
        assert config.params == CounterParams.fp(4)

    def test_explicit_checkpoints(self):
        config = parse_args(
            ["trajectory", "--counter", "morris", "--n", "50", "--checkpoints", "9,3,27"]
        )
        assert config.checkpoints == [3, 9, 27]

    def test_linear_checkpoints(self, capsys):
        argv = ["trajectory", "--counter", "fp", "--d", "4", "--n", "1000"]
        assert main([*argv, "--checkpoints", "linear"]) == 0
        rows = rows_of(capsys.readouterr().out.encode())
        assert [int(r["n"]) for r in rows] == linear_checkpoints(1000)

    @pytest.mark.parametrize(
        "argv",
        [
            ["trajectory", "--counter", "fp", "--n", "10"],  # fp without --d
            ["trajectory", "--counter", "qary", "--n", "10"],  # qary without --r
            ["trajectory", "--counter", "morris", "--d", "1", "--n", "10"],
            ["trajectory", "--counter", "fp", "--d", "4", "--n", "10",
             "--checkpoints", "zap"],
            ["trajectory", "--counter", "fp", "--d", "4", "--n", "10",
             "--checkpoints", "5,11"],
            ["table-demo", "--counter", "morris"],
            ["ensemble", "--counter", "fp", "--d", "4", "--n", "10"],  # no replicates
            ["trajectory", "--counter", "fp", "--d", "4", "--n", "0"],
            ["trajectory", "--counter", "fp", "--d", "4", "--n", "10",
             "--checkpoints", ","],
            ["trajectory", "--counter", "fp", "--d", "4", "--n", "10",
             "--checkpoints", "3,x"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bounds", "--counter", "fp"], "--counter fp requires --d"),
            (["bounds", "--counter", "qary"], "--counter qary requires --r"),
            (["bounds", "--counter", "fp", "--d", "2", "--r", "3"], "fp counter does not take r"),
            (["bounds", "--counter", "morris", "--r", "1"], "morris counter takes neither d nor r"),
        ],
    )
    def test_family_errors_name_the_flag(self, argv, message, capsys):
        with pytest.raises(SystemExit):
            parse_args(argv)
        assert capsys.readouterr().err.endswith(f"fpcount: error: {message}\n")

    def test_parses_share_a_parser_but_not_values(self):
        argv = ["trajectory", "--counter", "fp", "--d", "4", "--n", "100"]
        first = parse_args([*argv, "--seed", "5", "--checkpoints", "3,9"])
        second = parse_args(argv)
        assert (first.seed, first.checkpoints) == (5, [3, 9])
        assert (second.seed, second.checkpoints) == (1, log_checkpoints(100))
        assert build_parser() is not build_parser()

    def test_parser_lists_all_commands(self):
        text = build_parser().format_help()
        for command in ("trajectory", "ensemble", "oracle", "bounds", "bits", "table-demo"):
            assert command in text


class TestCommands:
    def test_trajectory_schema(self):
        proc = run_cli(
            "trajectory", "--counter", "fp", "--d", "4", "--seed", "7", "--n", "1000"
        )
        assert proc.returncode == 0
        rows = rows_of(proc.stdout)
        assert list(rows[0]) == [
            "family", "param", "seed", "n", "k", "estimate", "rel_error",
        ]
        assert [int(r["n"]) for r in rows] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]
        for r in rows:
            assert r["family"] == "fp" and r["param"] == "4"
            n, est = int(r["n"]), float(r["estimate"])
            assert float(r["rel_error"]) == (est - n) / n

    def test_morris_param_column_empty(self):
        proc = run_cli("bounds", "--counter", "morris")
        row = rows_of(proc.stdout)[0]
        assert row["param"] == ""
        assert float(row["lower"]) == float(row["upper"]) == pytest.approx(math.sqrt(0.5))

    def test_oracle_worked_example(self):
        proc = run_cli("oracle", "--counter", "morris", "--n", "2", "--mode", "exact")
        row = rows_of(proc.stdout)[0]
        assert float(row["mean"]) == 2.0
        assert float(row["variance"]) == 1.0

    def test_bits_at_n_0_is_the_library_row(self, capsys):
        # the oracle commands take --n from 0, where no update has scanned
        assert main(["bits", "--counter", "fp", "--d", "4", "--n", "0"]) == 0
        cost = expected_bits(CounterParams.fp(4), 0)
        assert cost == (0.0, 0.0)
        assert capsys.readouterr().out == (
            "family,param,n,expected_bits,alt_expected_bits\nfp,4,0,0.0,0.0\n"
        )

    def test_bits_worked_example(self):
        proc = run_cli("bits", "--counter", "fp", "--d", "0", "--n", "2")
        row = rows_of(proc.stdout)[0]
        assert row["expected_bits"] == "1.25"
        assert float(row["alt_expected_bits"]) == pytest.approx(7 / 6, rel=1e-15)

    def test_bounds_fp4(self):
        proc = run_cli("bounds", "--counter", "fp", "--d", "4")
        row = rows_of(proc.stdout)[0]
        assert float(row["lower"]) == pytest.approx(math.sqrt(1 / 47), rel=1e-15)
        assert float(row["upper"]) == pytest.approx(math.sqrt(3 / 125), rel=1e-15)

    def test_ensemble_schema_and_oracle_column(self):
        proc = run_cli(
            "ensemble", "--counter", "fp", "--d", "2", "--n", "256",
            "--replicates", "8", "--seed", "3",
        )
        rows = rows_of(proc.stdout)
        assert list(rows[0]) == [
            "family", "param", "n", "replicates", "mean", "sample_std",
            "oracle_std", "outliers_2sigma", "mean_bits",
        ]
        cps = [int(r["n"]) for r in rows]
        recs = sweep_moments(CounterParams.fp(2), cps, MODE_FLOAT)
        for row, rec in zip(rows, recs):
            assert int(row["replicates"]) == 8
            assert float(row["oracle_std"]) == pytest.approx(
                math.sqrt(rec.variance), rel=1e-12
            )

    def test_table_demo(self):
        proc = run_cli(
            "table-demo", "--counter", "fp", "--d", "2", "--slots", "4",
            "--width", "8", "--n", "200", "--seed", "5",
        )
        rows = rows_of(proc.stdout)
        assert [int(r["slot"]) for r in rows] == [0, 1, 2, 3]
        for r in rows:
            assert 0 < int(r["k"]) < 256
            assert int(r["lower_bound"]) in (0, 1)

    def test_json_mirrors_csv(self):
        argv = ["oracle", "--counter", "fp", "--d", "4", "--n", "300"]
        csv_row = rows_of(run_cli(*argv).stdout)[0]
        json_row = json.loads(run_cli(*argv, "--output", "json").stdout)[0]
        assert set(json_row) == set(csv_row)
        for key, value in json_row.items():
            if isinstance(value, float):
                assert float(csv_row[key]) == value
            else:
                assert str(value) == csv_row[key]

    def test_reruns_byte_identical(self):
        argv = (
            "ensemble", "--counter", "qary", "--r", "16", "--n", "512",
            "--replicates", "16", "--seed", "11",
        )
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_seed_taken_mod_2_64(self, capsys):
        argv = ["trajectory", "--counter", "fp", "--d", "4", "--n", "1000", "--seed"]
        outs = []
        for seed in ("-1", str(2**64 - 1)):
            assert main([*argv, seed]) == 0
            outs.append(capsys.readouterr().out)
        # the seed column prints the seed the stream ran
        assert outs[0] == outs[1]
        assert {row["seed"] for row in rows_of(outs[0].encode())} == {str(2**64 - 1)}

    def test_floats_reparse_to_emitted_value(self):
        # shortest-repr formatting: text -> float -> text is the identity
        proc = run_cli(
            "trajectory", "--counter", "qary", "--r", "16", "--seed", "2", "--n", "700"
        )
        for row in rows_of(proc.stdout):
            for field in ("estimate", "rel_error"):
                assert repr(float(row[field])) == row[field]

    @pytest.mark.parametrize(
        "argv",
        [
            "trajectory --counter fp --d 1100 --n 3",
            "bounds --counter fp --d 2000",
            "oracle --counter fp --d 3000 --n 3",
        ],
    )
    def test_wide_significands_stay_in_range(self, argv, capsys):
        # 2**d overflows a double, the printed values do not
        assert main(argv.split()) == 0
        rows = rows_of(capsys.readouterr().out.encode())
        assert rows
        if argv.startswith("oracle"):
            assert (rows[0]["mean"], rows[0]["variance"]) == ("3.0", "0.0")

    @pytest.mark.parametrize(
        "command, column",
        [
            ("trajectory", "k"),
            ("ensemble --replicates 3", "mean"),
            ("oracle", "mean"),
            ("bits", None),
        ],
    )
    def test_prefix_runs_at_a_huge_d(self, command, column, capsys):
        # every update below 2**d advances, so k = n, and 2**d is never built
        argv = f"{command} --counter fp --d 1000000000000 --n 5".split()
        assert main(argv) == 0
        rows = rows_of(capsys.readouterr().out.encode())
        assert rows[-1]["n"] == "5"
        for row in rows:
            if column:
                assert float(row[column]) == int(row["n"])
            else:
                assert float(row["expected_bits"]) == 0.0


class TestFailurePaths:
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["oracle", "--counter", "qary", "--r", "4", "--n", "5", "--mode", "exact"],
                "exact mode needs dyadic transition probabilities (morris/fp only)",
                id="oracle-exact-qary",
            ),
            pytest.param(
                ["table-demo", "--counter", "fp", "--d", "6", "--width", "6"],
                "width 6 is outside 7..32",
                id="table-demo-width-6",
            ),
            pytest.param(
                ["bits", "--counter", "qary", "--r", "4", "--n", "5"],
                "expected_bits applies to the bit-scan families (morris/fp)",
                id="bits-qary",
            ),
            pytest.param(
                ["ensemble", "--counter", "fp", "--d", "4", "--n", "10", "--replicates", "1"],
                "replicates 1 is outside 2..inf",
                id="ensemble-1-replicate",
            ),
            pytest.param(
                ["table-demo", "--counter", "fp", "--d", "4", "--width", "40"],
                "width 40 is outside 5..32",
                id="table-demo-width-40",
            ),
            pytest.param(
                ["oracle", "--counter", "fp", "--d", "4", "--n", "0"],
                "accuracy is undefined at n = 0",
                id="oracle-n-0",
            ),
            pytest.param(
                ["oracle", "--counter", "fp", "--d", "4", "--n", "-1"],
                "update count -1 is outside 0..inf",
                id="oracle-n--1",
            ),
            pytest.param(
                ["table-demo", "--counter", "fp", "--d", "4", "--n", "0"],
                "update count 0 is outside 1..inf",
                id="table-demo-n-0",
            ),
            pytest.param(
                ["table-demo", "--counter", "fp", "--d", "4", "--slots", str(2**63)],
                f"{2**63} slots x 8 bits exceed the largest possible payload",
                id="table-demo-slots-2**63",
            ),
        ],
    )
    def test_library_errors_exit_2_without_traceback(self, argv, message, capsys):
        # inputs only the library rejects: one error line, no usage, no traceback
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"fpcount: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, library_call",
        [
            pytest.param(
                ["trajectory", "--counter", "fp", "--d", "-1", "--n", "5"],
                lambda: CounterParams.fp(-1),
                id="d-negative",
            ),
            pytest.param(
                ["trajectory", "--counter", "qary", "--r", "0", "--n", "5"],
                lambda: CounterParams.qary(0),
                id="r-0",
            ),
            pytest.param(
                ["ensemble", "--counter", "fp", "--d", "4", "--n", "5", "--replicates", "0"],
                lambda: run_ensemble(CounterParams.fp(4), 5, 0, seed=1),
                id="replicates-0",
            ),
            pytest.param(
                ["table-demo", "--counter", "fp", "--d", "4", "--slots", "0"],
                lambda: CounterTable(0, 4, 8),
                id="slots-0",
            ),
            pytest.param(
                ["table-demo", "--counter", "fp", "--d", "4", "--width", "0"],
                lambda: CounterTable(8, 4, 0),
                id="width-0",
            ),
            pytest.param(
                ["trajectory", "--counter", "fp", "--d", "4", "--n", "10",
                 "--checkpoints", "5,11"],
                lambda: run_trajectory(CounterParams.fp(4), 10, 1, [5, 11]),
                id="checkpoints-11",
            ),
            pytest.param(
                ["trajectory", "--counter", "fp", "--d", "4", "--n", "0"],
                lambda: run_trajectory(CounterParams.fp(4), 0, 1, []),
                id="trajectory-n-0",
            ),
            pytest.param(
                ["trajectory", "--counter", "fp", "--d", "4", "--n", str(10**400),
                 "--checkpoints", "linear"],
                lambda: linear_checkpoints(10**400),
                id="linear-checkpoints-past-doubles",
            ),
        ],
    )
    def test_value_ranges_fail_with_the_library_message(self, argv, library_call):
        # argparse checks only syntax, so each range has the library's one message
        with pytest.raises(ValueError) as excinfo:
            library_call()
        proc = run_cli(*argv)
        err = proc.stderr.decode().splitlines()
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert not any(line.startswith("Traceback") for line in err)
        assert err[-1] == f"fpcount: error: {excinfo.value}"
        if argv[0] == "trajectory":  # --d, --r and --checkpoints resolve at parse time
            assert err[0].startswith("usage: fpcount")
        else:
            assert len(err) == 1

    def test_numeric_failure_exits_3(self, monkeypatch, capsys):
        import fpcount.cli as cli_module

        def blow_up(*args, **kwargs):
            raise OverflowError("synthetic range failure")

        monkeypatch.setattr(cli_module, "run_trajectory", blow_up)
        code = main(["trajectory", "--counter", "fp", "--d", "4", "--n", "10"])
        captured = capsys.readouterr()
        assert code == 3
        assert "numeric range failure" in captured.err
        assert captured.out == ""

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        import fpcount.cli as cli_module

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_module, "CounterTable", no_memory)
        code = main(["table-demo", "--counter", "fp", "--d", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "fpcount: error: out of memory\n"
        assert captured.out == ""

    def test_unknown_command_exits_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
