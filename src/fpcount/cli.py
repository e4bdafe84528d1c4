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
its errors print the usage line; the library owns every value range, so
``--n`` is 0 and up for oracle and bits and 1 and up otherwise.  Inputs it
rejects (a ``ValueError``) or that exhaust memory print the one line
``fpcount: error: <message>``: after the usage line for a bad ``--d``,
``--r``, ``--checkpoints`` or a trajectory or ensemble ``--n``, which
resolve at parse time, and alone otherwise.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from .chain import CounterParams, Family, _integer, _update_counts, accuracy_limits
from .ensemble import linear_checkpoints, log_checkpoints, run_ensemble, run_trajectory
from .oracle import MODE_EXACT, MODE_FLOAT, expected_bits, sweep_moments

# Nothing here calls these; they stay cli attributes because the benchmark's
# tracer (bench/fpbench/tracer.py) wraps them by name.
from .oracle import accuracy, estimator_variance, expected_estimate, step_distribution
from .randbits import BitSource
from .table import CounterTable

__all__ = ["build_parser", "execute", "main", "parse_args"]


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the six commands.

    It checks syntax only; the library owns every value range, so each
    range has one error message: ``--n`` from 0 for oracle and bits, and
    from 1 for the other commands.
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

    n = dict(type=int, required=True, help="number of updates")
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
        n=dict(type=int, default=1000, help="updates per slot (default 1000)"),
    )
    return parser


def _resolve_params(args: argparse.Namespace) -> CounterParams:
    needs = {"fp": "d", "qary": "r"}.get(args.counter)
    if needs and getattr(args, needs) is None:
        raise ValueError(f"--counter {args.counter} requires --{needs}")
    return CounterParams(Family(args.counter), d=args.d, r=args.r)


def _resolve_checkpoints(spec: str, n_max: int) -> list[int]:
    if spec == "log":
        return log_checkpoints(n_max)
    if spec == "linear":
        return linear_checkpoints(n_max)
    try:
        cps = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        cps = []
    if not cps:
        raise ValueError(f"cannot parse checkpoints {spec!r}")
    return _update_counts(cps, 1, n_max)


# built on the first parse, not at import; argparse keeps no state between parses
_parser = functools.cache(build_parser)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse `argv`; `params`, `checkpoints` and `seed` (mod 2**64) resolve in place.

    A value the library refuses while they resolve prints the usage line.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args.params = _resolve_params(args)
        if hasattr(args, "checkpoints"):
            args.checkpoints = _resolve_checkpoints(args.checkpoints, args.n)
    except ValueError as exc:
        parser.error(str(exc))
    if hasattr(args, "seed"):
        args.seed %= 2**64
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
    n = _integer(args.n, "update count", 1)
    table = CounterTable(args.slots, args.params.d, args.width)
    src = BitSource(args.seed)
    rows = []
    for slot in range(args.slots):
        for _ in range(n):
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
