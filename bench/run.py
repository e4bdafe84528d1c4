"""fpcount benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload table-ingest --seed 1 --seconds 10 --trace 0

Workloads: table-ingest, monte-carlo, oracle-sweep, cli-small.  The run
imports fpcount from the checkout's ``src/``, builds its inputs from the
seed, repeats the workload's fixed-size round for ``--seconds``, checks
the outputs, and prints a report line followed by the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` rounds alternate untraced and traced, the metrics are the
per-layer ones plus the tracing overhead, and the report line carries
the traced spans.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from fpbench.runner import import_seconds, require_fpcount, run
from fpbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")

    fc, first_import_s = require_fpcount(ROOT)
    import_s = import_seconds(ROOT, first_import_s)
    report = run(fc, args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    result = report.pop("result")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
