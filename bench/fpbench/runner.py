"""One benchmark run: set-up, timed phase, checks, metrics and report."""

from __future__ import annotations

import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .checks import Checker
from .tracer import BASELINE, Tracer, instrument, layer_metrics
from .workloads import WORKLOADS, Samples

SETUP_REPEATS = 5
IMPORT_REPEATS = 5  # this process's import and four fresh interpreters'

# Host speed on small shared machines swings by up to a third, from one
# second to the next and between runs (other tenants' load), which would
# swamp any regression bound.  So every time sample is scaled to a reference
# host speed: a fixed job that runs no fpcount code (pure-Python integer and
# list work plus small numpy array arithmetic, the two kinds of work fpcount
# does) is timed at the start and end of each round and between the commands
# of long rounds, and the times of each segment between two such probes are
# multiplied by CALIBRATION_REF_NS over the mean of its two probes.  A change
# to fpcount moves the scaled times in full; a change in host speed cancels.
# The reference is the job's median time on a 2-core Intel Xeon host
# (Python 3.11, numpy 2.4); the report keeps the unscaled figures too.
CALIBRATION_REF_NS = 3_500_000
_CAL_ARRAY = np.arange(1024, dtype=np.uint64)
_CAL_MUL = np.uint64(0xBF58476D1CE4E5B9)
_CAL_SHIFT = np.uint64(30)


def _calibration_job() -> None:
    data = list(range(256))
    total = 0
    for i in range(10000):
        total += (data[i & 255] * 2654435761 >> 7) & 1023
        if total & 1:
            data[i & 255] = total & 255
    z = _CAL_ARRAY
    for _ in range(250):
        z = (z ^ (z >> _CAL_SHIFT)) * _CAL_MUL


def calibrate() -> float:
    """Nanoseconds the calibration job takes now: the mean of three runs."""
    start = time.perf_counter_ns()
    for _ in range(3):
        _calibration_job()
    return (time.perf_counter_ns() - start) / 3


def _quantile(values, q: float) -> float:
    """The q-quantile by the inclusive method; the value itself for one sample."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


def import_fpcount():
    """Import the package and its CLI module; return (package, seconds)."""
    start = time.perf_counter()
    fc = importlib.import_module("fpcount")
    importlib.import_module("fpcount.cli")
    return fc, time.perf_counter() - start


_IMPORT_JOB = """\
import sys, time, numpy
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import fpcount, fpcount.cli
print(time.perf_counter() - start)
"""


def import_seconds(root: Path, first_s: float) -> float:
    """Median import time over this process's import (first_s) and fresh interpreters'."""
    times = [first_s]
    for _ in range(IMPORT_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_JOB, str(root / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


def run(fc, workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        import_s: float = 0.0) -> dict:
    """Run one workload; return the report (its "result" key is the contract line)."""
    cls = WORKLOADS[workload]
    calibrate()  # first call pays numpy's lazy set-up
    setup_cal = [calibrate()]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        w = cls(fc, seed, size)
        w.warm_up()
        setups.append(time.perf_counter() - start)
    setup_cal.append(calibrate())

    chk = Checker()
    rec = Samples(calibrate)
    tracer = Tracer() if trace else None
    rounds = []  # (traced, index of the round's first mark, of its last mark)
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        rec.mark()
        start = len(rec.marks) - 1
        if traced:
            tracer.request += 1
            with instrument(tracer, fc):
                out = w.run_round(rec)
        else:
            out = w.run_round(rec)
        rec.mark()
        rounds.append((traced, start, len(rec.marks) - 1))
        if first is None:
            # the working set is complete after one round; only the sample
            # lists grow after it, by as much as the host lets the run go
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            first = out
        else:
            chk.expect(w.same(first, out), f"round {len(rounds)} repeats round 1")
        if time.perf_counter() >= deadline and (not trace or len(rounds) > 1):
            break

    properties = w.check(first, chk)
    # scale each segment's times by the host speed probed at its two ends
    marks = rec.marks
    factors = [2 * CALIBRATION_REF_NS / (a[2] + b[2]) for a, b in zip(marks, marks[1:])]
    reads, cmds, plain_s, traced_s = [], [], [], []
    raw_reads, raw_cmds, raw_s = [], [], []
    # read_p99_us is the median over the untraced rounds of each round's p99.
    # Reads take about a microsecond, so a p99 pooled over the run is set by
    # its few worst bursts of host contention; every round reads the same
    # states, so the median round keeps what the program puts in every round.
    # The slowest reads are partly CPU work, which follows the host speed the
    # probes measure, and partly stalls (cache misses, a busy sibling
    # hyperthread), which do not: so the tail is scaled by the square root of
    # the speed factor.  Over ten seeds a run on the 2-core host, that left a
    # quartile spread of at most 0.15 of the median on every workload, where
    # the full factor left up to 0.25 and no scaling up to 0.35.
    tail_reads, read_p99s, raw_read_p99s = [], [], []
    events = 0
    for traced, m0, m1 in rounds:
        secs = raw = 0.0
        n_reads = len(reads)
        for k in range(m0, m1):
            a, b, f = marks[k], marks[k + 1], factors[k]
            took = (b[0] - a[1]) / 1e9
            secs += took * f
            raw += took
            if not traced:
                raw_reads += rec.reads_ns[a[3] : b[3]]
                raw_cmds += rec.cmds_ns[a[4] : b[4]]
                reads += [ns * f for ns in rec.reads_ns[a[3] : b[3]]]
                tail_reads += [ns * f**0.5 for ns in rec.reads_ns[a[3] : b[3]]]
                cmds += [ns * f for ns in rec.cmds_ns[a[4] : b[4]]]
        if traced:
            traced_s.append(secs)
        else:
            plain_s.append(secs)
            raw_s.append(raw)
            if len(reads) > n_reads:
                read_p99s.append(_quantile(tail_reads[n_reads:], 0.99))
                raw_read_p99s.append(_quantile(raw_reads[n_reads:], 0.99))
            events += marks[m1][5] - marks[m0][5]
    raw_wall_s = statistics.median(raw_s)
    wall_s = statistics.median(plain_s)
    setup_f = 2 * CALIBRATION_REF_NS / sum(setup_cal)
    e2e = {
        "setup_s": ((import_s + statistics.median(setups)) * setup_f, "s"),
        "wall_s": (wall_s, "s"),
        "events_per_s": (events / sum(plain_s), "1/s"),
        "bits_per_event": (w.bits_per_event(first), "bits/event"),
        "read_p50_us": (_quantile(reads, 0.50) / 1e3, "us"),
        "read_p99_us": (statistics.median(read_p99s) / 1e3, "us"),
        "cmd_p50_ms": (_quantile(cmds, 0.50) / 1e6, "ms"),
        "cmd_p90_ms": (_quantile(cmds, 0.90) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": bool(trace),
        "environment": environment(Path(__file__).resolve().parents[2]),
        "rounds": {"untraced": len(plain_s), "traced": len(traced_s)},
        "samples": {"reads": len(reads), "commands": len(cmds)},
        "setup_runs_s": setups,
        "import_s": import_s,
        "calibration": {
            "ref_ns": CALIBRATION_REF_NS,
            "median_ns": statistics.median(m[2] for m in marks),
            "setup_factor": setup_f,
            "factor_range": [min(factors), max(factors)],
            "raw_wall_s": raw_wall_s,
            "raw_read_p50_us": _quantile(raw_reads, 0.50) / 1e3,
            "raw_read_p99_us": statistics.median(raw_read_p99s) / 1e3,
            "raw_cmd_p50_ms": _quantile(raw_cmds, 0.50) / 1e6,
            "raw_cmd_p90_ms": _quantile(raw_cmds, 0.90) / 1e6,
        },
        "fail_ratio": chk.fail_ratio,
        "failures": chk.notes,
        "properties": properties,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }
    metrics = e2e
    if trace:
        metrics = layer_metrics(tracer, len(traced_s))
        overhead = statistics.median(traced_s) - wall_s
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (overhead / wall_s, "ratio")
        report["baseline"] = {
            name + "_vs_base": {"base": base, "base_means": what,
                                "ratio": metrics[name + "_vs_base"][0]}
            for name, (base, what) in BASELINE.items()
        }
        report["boundaries"] = {
            name: {"calls": calls, "total_s": total / 1e9, "self_s": self_ns / 1e9}
            for name, (calls, total, self_ns) in sorted(tracer.totals.items())
        }
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns")
        report["spans"] = [dict(zip(keys, span)) for span in tracer.spans]
    report["result"] = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report


def require_fpcount(root: Path):
    """Put the checkout's src/ first on the path, and refuse any other copy."""
    src = root / "src"
    if not (src / "fpcount" / "__init__.py").is_file():
        raise SystemExit(f"fpcount sources not found under {src}")
    sys.path.insert(0, str(src))
    fc, import_s = import_fpcount()
    if Path(fc.__file__).resolve().parent != (src / "fpcount").resolve():
        raise SystemExit(f"imported fpcount from {fc.__file__}, not from {src}")
    return fc, import_s
