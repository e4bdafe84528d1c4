"""Command-line front end.

Commands
--------
trajectory   one simulated counter, sampled at checkpoints
ensemble     replicate ensemble with per-checkpoint statistics
oracle       exact/float distribution moments at one update count
bounds       asymptotic accuracy window for a counter family
bits         expected random-bit cost of the next update
table-demo   fill a packed counter table and report per-slot estimates

Output is CSV (default) or JSON with identical fields; reruns with
identical flags produce byte-identical output.  Exit codes: 0 success,
2 usage error, 3 numeric range failure.  argparse checks syntax only, and
its errors print the usage line; the library owns every value range.
Inputs it rejects (a ``ValueError``) or that exhaust memory print the one
line ``fpcount: error: <message>`` with no usage line, except that a bad
``--d`` or ``--r`` is resolved at parse time and keeps the usage line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from .chain import CounterParams, Family, accuracy_limits
from .ensemble import linear_checkpoints, log_checkpoints, run_ensemble, run_trajectory
from .oracle import MODE_EXACT, MODE_FLOAT, expected_bits, sweep_moments

# Nothing here calls these; they stay cli attributes because the benchmark's
# tracer (bench/fpbench/tracer.py) wraps them by name.
from .oracle import accuracy, estimator_variance, expected_estimate, step_distribution
from .randbits import BitSource
from .table import CounterTable

__all__ = ["build_parser", "execute", "main", "parse_args"]


def _positive_int(text: str) -> int:
    # n >= 1 is the CLI's own rule: checkpoints are resolved from --n at parse time
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the six commands.

    It checks syntax, and n >= 1; the library owns every other value
    range, so each range has one error message.
    """
    parser = argparse.ArgumentParser(
        prog="fpcount",
        description="Probabilistic counter simulations and exact distribution math.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, seed: bool = True, **options) -> None:
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--counter",
            required=True,
            choices=["morris", "qary", "fp"],
            help="counter family",
        )
        p.add_argument("--d", type=int, help="fp significand width")
        p.add_argument("--r", type=int, help="qary resolution (q = 2**(1/r))")
        if seed:
            p.add_argument("--seed", type=int, default=1, help="stream seed (default 1)")
        p.add_argument(
            "--output", choices=["csv", "json"], default="csv", help="output format"
        )
        for flag, spec in options.items():
            p.add_argument(f"--{flag}", **spec)

    n = dict(type=_positive_int, required=True, help="number of updates")
    checkpoints = dict(
        default="log", help="'log', 'linear', or comma-separated update counts"
    )
    mode = dict(choices=[MODE_EXACT, MODE_FLOAT], default=MODE_FLOAT)

    command("trajectory", "simulate one counter", n=n, checkpoints=checkpoints)
    command(
        "ensemble",
        "simulate replicate ensembles",
        n=n,
        replicates=dict(type=int, required=True, help="number of replicates"),
        checkpoints=checkpoints,
    )
    command(
        "oracle", "distribution moments at one update count", seed=False, n=n, mode=mode
    )
    command("bounds", "asymptotic accuracy window", seed=False)
    command(
        "bits",
        "expected random-bit cost of the next update",
        seed=False,
        n={**n, "help": "updates so far"},
        mode=mode,
    )
    command(
        "table-demo",
        "fill a packed counter table",
        slots=dict(type=int, default=8, help="number of slots"),
        width=dict(type=int, default=8, help="bits per slot"),
        n=dict(
            type=_positive_int, default=1000, help="updates per slot (default 1000)"
        ),
    )
    return parser


def _resolve_params(parser: argparse.ArgumentParser, args: argparse.Namespace):
    family = Family(args.counter)
    needs = {Family.FP: "d", Family.QARY: "r"}.get(family)
    if needs and getattr(args, needs) is None:
        parser.error(f"--counter {args.counter} requires --{needs}")
    try:
        return CounterParams(family, d=args.d, r=args.r)
    except ValueError as exc:
        parser.error(str(exc))


def _resolve_checkpoints(
    parser: argparse.ArgumentParser, spec: str, n_max: int
) -> list[int]:
    if spec == "log":
        return log_checkpoints(n_max)
    if spec == "linear":
        return linear_checkpoints(n_max)
    try:
        cps = sorted({int(part) for part in spec.split(",") if part.strip()})
    except ValueError:
        parser.error(f"cannot parse checkpoints {spec!r}")
    if not cps or cps[0] < 1 or cps[-1] > n_max:
        parser.error("checkpoints must be update counts in 1..n")
    return cps


# built on the first parse, not at import; argparse keeps no state between parses
_parser = functools.cache(build_parser)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse `argv`; `params`, `checkpoints` and `seed` (mod 2**64) resolve in place."""
    parser = _parser()
    args = parser.parse_args(argv)
    args.params = _resolve_params(parser, args)
    if hasattr(args, "seed"):
        args.seed %= 2**64
    if hasattr(args, "checkpoints"):
        args.checkpoints = _resolve_checkpoints(parser, args.checkpoints, args.n)
    if args.command == "table-demo" and args.params.family is not Family.FP:
        parser.error("table-demo packs fp counters: use --counter fp --d D")
    return args


def _family_fields(params: CounterParams) -> dict:
    param = params.param_value
    return {"family": params.family.value, "param": "" if param is None else param}


def _rows_trajectory(args: argparse.Namespace) -> list[dict]:
    points = run_trajectory(args.params, args.n, args.seed, args.checkpoints)
    base = _family_fields(args.params)
    return [
        {
            **base,
            "seed": args.seed,
            "n": p.n,
            "k": p.k,
            "estimate": p.estimate,
            "rel_error": p.rel_error,
        }
        for p in points
    ]


def _rows_ensemble(args: argparse.Namespace) -> list[dict]:
    report = run_ensemble(
        args.params, args.n, args.replicates, args.seed, args.checkpoints
    )
    moments = sweep_moments(args.params, report.checkpoints, MODE_FLOAT)
    oracle_std = {rec.n: math.sqrt(rec.variance) for rec in moments}
    base = _family_fields(args.params)
    return [
        {
            **base,
            "n": stats.n,
            "replicates": stats.replicates,
            "mean": stats.mean,
            "sample_std": stats.sample_std,
            "oracle_std": oracle_std[stats.n],
            "outliers_2sigma": stats.outliers_2sigma,
            "mean_bits": stats.mean_bits,
        }
        for stats in report.checkpoint_stats()
    ]


def _rows_oracle(args: argparse.Namespace) -> list[dict]:
    rec = sweep_moments(args.params, [args.n], args.mode)[0]
    return [
        {
            **_family_fields(args.params),
            "n": args.n,
            "mean": float(rec.mean),
            "variance": float(rec.variance),
            "accuracy": rec.accuracy,
        }
    ]


def _rows_bounds(args: argparse.Namespace) -> list[dict]:
    bounds = accuracy_limits(args.params)
    return [
        {
            **_family_fields(args.params),
            "lower": bounds.lower,
            "upper": bounds.upper,
        }
    ]


def _rows_bits(args: argparse.Namespace) -> list[dict]:
    cost = expected_bits(args.params, args.n, args.mode)
    return [
        {
            **_family_fields(args.params),
            "n": args.n,
            "expected_bits": float(cost.expected),
            "alt_expected_bits": float(cost.alt_expected),
        }
    ]


def _rows_table_demo(args: argparse.Namespace) -> list[dict]:
    table = CounterTable(args.slots, args.params.d, args.width)
    src = BitSource(args.seed)
    rows = []
    for slot in range(args.slots):
        for _ in range(args.n):
            table.increment(slot, src)
        est = table.estimate(slot)
        rows.append(
            {
                "slot": slot,
                "k": table.get_state(slot),
                "estimate": est.value,
                "lower_bound": int(est.lower_bound),
            }
        )
    return rows


_DISPATCH = {
    "trajectory": _rows_trajectory,
    "ensemble": _rows_ensemble,
    "oracle": _rows_oracle,
    "bounds": _rows_bounds,
    "bits": _rows_bits,
    "table-demo": _rows_table_demo,
}


def _emit(rows: list[dict], output: str) -> None:
    if output == "json":
        print(json.dumps(rows, indent=2))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] for h in header])


def execute(args: argparse.Namespace) -> int:
    try:
        rows = _DISPATCH[args.command](args)
    except OverflowError as exc:
        print(f"fpcount: numeric range failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"fpcount: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    _emit(rows, args.output)
    return 0


def main(argv=None) -> int:
    return execute(parse_args(argv))
