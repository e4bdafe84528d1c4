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
2 usage error, 3 numeric range failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

from .chain import CounterParams, Family, accuracy_limits
from .ensemble import linear_checkpoints, log_checkpoints, run_ensemble, run_trajectory
from .oracle import MODE_EXACT, MODE_FLOAT, expected_bits, sweep_moments

# Nothing here calls these; they stay cli attributes because the benchmark's
# tracer (bench/fpbench/tracer.py) wraps them by name.
from .oracle import accuracy, estimator_variance, expected_estimate, step_distribution
from .randbits import BitSource
from .table import CounterTable

__all__ = ["RunConfig", "build_parser", "execute", "main", "parse_args"]


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: CounterParams | None
    n: int | None
    replicates: int | None
    seed: int
    checkpoints: list[int] | None
    mode: str
    output: str
    slots: int | None = None
    width: int | None = None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpcount",
        description="Probabilistic counter simulations and exact distribution math.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_seed: bool = True) -> None:
        p.add_argument(
            "--counter",
            required=True,
            choices=["morris", "qary", "fp"],
            help="counter family",
        )
        p.add_argument("--d", type=_nonnegative_int, help="fp significand width")
        p.add_argument("--r", type=_positive_int, help="qary resolution (q = 2**(1/r))")
        if with_seed:
            p.add_argument("--seed", type=int, default=1, help="stream seed (default 1)")
        p.add_argument(
            "--output", choices=["csv", "json"], default="csv", help="output format"
        )

    p = sub.add_parser("trajectory", help="simulate one counter")
    add_common(p)
    p.add_argument("--n", type=_positive_int, required=True, help="number of updates")
    p.add_argument(
        "--checkpoints",
        default="log",
        help="'log', 'linear', or comma-separated update counts",
    )

    p = sub.add_parser("ensemble", help="simulate replicate ensembles")
    add_common(p)
    p.add_argument("--n", type=_positive_int, required=True, help="number of updates")
    p.add_argument(
        "--replicates", type=_positive_int, required=True, help="number of replicates"
    )
    p.add_argument(
        "--checkpoints",
        default="log",
        help="'log', 'linear', or comma-separated update counts",
    )

    p = sub.add_parser("oracle", help="distribution moments at one update count")
    add_common(p, with_seed=False)
    p.add_argument("--n", type=_positive_int, required=True, help="number of updates")
    p.add_argument("--mode", choices=[MODE_EXACT, MODE_FLOAT], default=MODE_FLOAT)

    p = sub.add_parser("bounds", help="asymptotic accuracy window")
    add_common(p, with_seed=False)

    p = sub.add_parser("bits", help="expected random-bit cost of the next update")
    add_common(p, with_seed=False)
    p.add_argument("--n", type=_positive_int, required=True, help="updates so far")
    p.add_argument("--mode", choices=[MODE_EXACT, MODE_FLOAT], default=MODE_FLOAT)

    p = sub.add_parser("table-demo", help="fill a packed counter table")
    add_common(p)
    p.add_argument("--slots", type=_positive_int, default=8, help="number of slots")
    p.add_argument("--width", type=_positive_int, default=8, help="bits per slot")
    p.add_argument(
        "--n", type=_positive_int, default=1000, help="updates per slot (default 1000)"
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


def parse_args(argv=None) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = _resolve_params(parser, args)
    mode = getattr(args, "mode", MODE_FLOAT)
    if mode == MODE_EXACT and params.family is Family.QARY:
        parser.error("exact mode is undefined for qary counters (irrational base)")
    n = getattr(args, "n", None)
    checkpoints = None
    if hasattr(args, "checkpoints"):
        checkpoints = _resolve_checkpoints(parser, args.checkpoints, n)
    if args.command == "table-demo":
        if params.family is not Family.FP:
            parser.error("table-demo packs fp counters: use --counter fp --d D")
        if args.width < params.d + 1 or args.width > 32:
            parser.error("--width must be in [d+1, 32]")
    return RunConfig(
        command=args.command,
        params=params,
        n=n,
        replicates=getattr(args, "replicates", None),
        seed=getattr(args, "seed", 1),
        checkpoints=checkpoints,
        mode=mode,
        output=args.output,
        slots=getattr(args, "slots", None),
        width=getattr(args, "width", None),
    )


def _family_fields(params: CounterParams) -> dict:
    param = params.param_value
    return {"family": params.family.value, "param": "" if param is None else param}


def _rows_trajectory(config: RunConfig) -> list[dict]:
    points = run_trajectory(config.params, config.n, config.seed, config.checkpoints)
    base = _family_fields(config.params)
    return [
        {
            **base,
            "seed": config.seed,
            "n": p.n,
            "k": p.k,
            "estimate": p.estimate,
            "rel_error": p.rel_error,
        }
        for p in points
    ]


def _rows_ensemble(config: RunConfig) -> list[dict]:
    report = run_ensemble(
        config.params, config.n, config.replicates, config.seed, config.checkpoints
    )
    moments = sweep_moments(config.params, report.checkpoints, MODE_FLOAT)
    oracle_std = {rec.n: math.sqrt(rec.variance) for rec in moments}
    base = _family_fields(config.params)
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


def _rows_oracle(config: RunConfig) -> list[dict]:
    rec = sweep_moments(config.params, [config.n], config.mode)[0]
    return [
        {
            **_family_fields(config.params),
            "n": config.n,
            "mean": float(rec.mean),
            "variance": float(rec.variance),
            "accuracy": rec.accuracy,
        }
    ]


def _rows_bounds(config: RunConfig) -> list[dict]:
    bounds = accuracy_limits(config.params)
    return [
        {
            **_family_fields(config.params),
            "lower": bounds.lower,
            "upper": bounds.upper,
        }
    ]


def _rows_bits(config: RunConfig) -> list[dict]:
    cost = expected_bits(config.params, config.n, config.mode)
    return [
        {
            **_family_fields(config.params),
            "n": config.n,
            "expected_bits": float(cost.expected),
            "alt_expected_bits": float(cost.alt_expected),
        }
    ]


def _rows_table_demo(config: RunConfig) -> list[dict]:
    table = CounterTable(config.slots, config.params.d, config.width)
    src = BitSource(config.seed)
    rows = []
    for slot in range(config.slots):
        for _ in range(config.n):
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


def execute(config: RunConfig) -> int:
    try:
        rows = _DISPATCH[config.command](config)
    except OverflowError as exc:
        print(f"fpcount: numeric range failure: {exc}", file=sys.stderr)
        return 3
    _emit(rows, config.output)
    return 0


def main(argv=None) -> int:
    return execute(parse_args(argv))
