"""The four benchmark workloads.

Each workload is a fixed-size job (a "round") built from the seed.  The
runner repeats the round closed-loop, one process and one thread, until
the run's time is up; every round of a run gets the same inputs, so
every round must give the same outputs.  The first round's outputs are
checked in full after the timed phase.

A round records two latency series:

* reads: one point read of a count estimate, interleaved with the work
  (``CounterTable.estimate`` on table-ingest, ``estimate_float`` on a
  simulated state or a CLI output row, ``MomentRecord.accuracy`` on the
  oracle's records);
  outside table-ingest the reads come in bursts after the heavy work,
  each burst hundreds of reads long so that its first, cold reads stay
  well below the 1% that read_p99_us looks at;
* commands: one user-level request (32 table writes plus one read, one
  simulation or sweep with its statistics, one CLI invocation).

Sizes are chosen so that each workload loads a different layer; the
reason for each workload is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from typing import NamedTuple

import numpy as np

from .checks import Checker, LawTally

_now = time.perf_counter_ns


class Samples:
    """Latencies and work recorded by the rounds of a run.

    ``mark()`` cuts the record into segments and takes a host-speed probe
    at the cut, so that the runner can scale each segment's times by the
    host speed around it.  The runner marks the start and end of every
    round; a workload with long rounds also marks between its commands.
    """

    def __init__(self, probe=None):
        self.reads_ns: list[int] = []
        self.cmds_ns: list[int] = []
        self.events = 0
        # (probe start ns, probe end ns, probe value, reads, commands, events)
        self.marks: list[tuple] = []
        self._probe = probe

    def mark(self) -> None:
        if self._probe is None:
            return
        start = _now()
        value = self._probe()
        self.marks.append(
            (start, _now(), value, len(self.reads_ns), len(self.cmds_ns), self.events)
        )


class Workload:
    name = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, fc, seed: int, size: str):
        self.fc = fc
        self.cfg = self.SIZES[size]
        self.rng = np.random.default_rng([seed % 2**64, sum(map(ord, self.name))])

    def _seed(self) -> int:
        return int(self.rng.integers(1, 2**62))

    def warm_up(self) -> None:
        """Fill lazy caches before timing: one round at the tiny size."""
        type(self)(self.fc, 0, "tiny").run_round(Samples())

    def run_round(self, rec: Samples):
        raise NotImplementedError

    def same(self, a, b) -> bool:
        return a == b

    def check(self, out, chk: Checker) -> dict:
        """Check the first round's outputs; return the input properties."""
        raise NotImplementedError

    def bits_per_event(self, out) -> float:
        raise NotImplementedError


# -- table-ingest -------------------------------------------------------------


class IngestOutput(NamedTuple):
    reads: list
    readout: list
    snapshot: bytes
    stream_position: int


class TableIngest(Workload):
    """fp(4) CounterTable, width 8, fed a Zipf-skewed stream of slot indices."""

    name = "table-ingest"
    D, WIDTH, ZIPF_S, READ_EVERY = 4, 8, 1.2, 32
    MARK_EVERY = 1024  # requests between host-speed probes
    SIZES = {
        "full": {"slots": 1 << 16, "events": 1 << 19, "snapshot_every": 1 << 13},
        "tiny": {"slots": 1 << 8, "events": 1 << 12, "snapshot_every": 1 << 10},
    }

    def __init__(self, fc, seed, size):
        super().__init__(fc, seed, size)
        slots, events = self.cfg["slots"], self.cfg["events"]
        rng = self.rng
        weights = np.arange(1, slots + 1, dtype=np.float64) ** -self.ZIPF_S
        cdf = np.cumsum(weights)
        ranks = np.searchsorted(cdf, rng.random(events) * cdf[-1], side="right")
        stream = rng.permutation(slots)[np.minimum(ranks, slots - 1)].tolist()
        every = self.READ_EVERY
        self.batches = [stream[i : i + every] for i in range(0, events, every)]
        self.reads = rng.integers(0, slots, len(self.batches)).tolist()
        self.bit_seed = self._seed()
        self.repeat_share = sum(a == b for a, b in zip(stream, stream[1:])) / events

    def run_round(self, rec):
        fc, cfg = self.fc, self.cfg
        table = fc.CounterTable(cfg["slots"], self.D, self.WIDTH)
        src = fc.BitSource(self.bit_seed)
        snap_every = cfg["snapshot_every"] // self.READ_EVERY
        reads_ns, cmds_ns = rec.reads_ns, rec.cmds_ns
        got = []
        inc = table.increment
        for b, (batch, slot) in enumerate(zip(self.batches, self.reads), 1):
            c0 = _now()
            for i in batch:
                inc(i, src)
            r0 = _now()
            est = table.estimate(slot)
            r1 = _now()
            reads_ns.append(r1 - r0)
            cmds_ns.append(r1 - c0)
            got.append(est)
            if b % snap_every == 0:
                # checkpoint and restore: ingest continues on the loaded copy
                table = fc.CounterTable.from_bytes(table.to_bytes())
                inc = table.increment
            if b % self.MARK_EVERY == 0:
                rec.mark()
        readout = [table.estimate(i) for i in range(cfg["slots"])]
        rec.events += cfg["events"]
        return IngestOutput(got, readout, table.to_bytes(), src.stream_position)

    def check(self, out, chk):
        fc, slots = self.fc, self.cfg["slots"]
        params = fc.CounterParams.fp(self.D)
        ceiling = (1 << self.WIDTH) - 1
        src = fc.BitSource(self.bit_seed)
        states = [fc.new_counter()] * slots
        law = LawTally()
        want_reads = []
        for batch, slot in zip(self.batches, self.reads):
            for i in batch:
                st = states[i]
                if st.k < ceiling:
                    law.add(st.k >> self.D)
                states[i] = fc.increment(st, params, src, ceiling)
            k = states[slot].k
            want_reads.append(fc.SlotEstimate(fc.estimate_float(params, k), k == ceiling))
        ks = [st.k for st in states]
        want_readout = [
            fc.SlotEstimate(fc.estimate_float(params, k), k == ceiling) for k in ks
        ]
        loaded = fc.CounterTable.from_bytes(out.snapshot)
        chk.expect(len(out.reads) == len(want_reads), "read count")
        chk.expect_all("read matches replay", (a == b for a, b in zip(out.reads, want_reads)))
        chk.expect_all("slot state matches replay", (loaded.get_state(i) == k for i, k in enumerate(ks)))
        chk.expect_all("read-out matches replay", (a == b for a, b in zip(out.readout, want_readout)))
        chk.expect(out.stream_position == src.stream_position, "stream_position matches replay")
        chk.expect(loaded.to_bytes() == out.snapshot, "snapshot round-trips byte-identical")
        chk.expect(loaded.saturation_count == ks.count(ceiling), "saturation count")
        chk.expect(law.holds(src.stream_position), "bits follow the scan law")
        events = self.cfg["events"]
        top = max(ks)
        return {
            "events": events,
            "repeat_share": self.repeat_share,
            "zero_prefix_share": law.zero_scans / events,
            "max_state": top,
            "max_exponent": top >> self.D,
            "saturated_slots": ks.count(ceiling),
            "bits_vs_law": law.ratio(src.stream_position),
        }

    def bits_per_event(self, out):
        return out.stream_position / self.cfg["events"]


# -- monte-carlo --------------------------------------------------------------


class EnsembleOutput(NamedTuple):
    report: object
    stats: list
    oracle_std: list
    reads: list


class MonteCarlo(Workload):
    """Replicate ensembles through the engine, single trajectories through the scalar path."""

    name = "monte-carlo"
    SIZES = {
        "full": {"replicates": 1000, "n_ens": 1 << 12, "n_traj": 1 << 15, "reads": 2048, "sampled": 4},
        "tiny": {"replicates": 128, "n_ens": 1 << 8, "n_traj": 1 << 9, "reads": 16, "sampled": 2},
    }
    STATS_FROM = 1024  # criterion-6 tolerances apply from this n on

    def __init__(self, fc, seed, size):
        super().__init__(fc, seed, size)
        cfg, rng = self.cfg, self.rng
        self.ens_params = [fc.CounterParams.fp(4), fc.CounterParams.qary(16)]
        self.traj_params = [fc.CounterParams.fp(4), fc.CounterParams.morris(), fc.CounterParams.qary(16)]
        self.ens_cps = fc.log_checkpoints(cfg["n_ens"])
        self.traj_cps = fc.log_checkpoints(cfg["n_traj"])
        self.ens_seeds = [self._seed() for _ in self.ens_params]
        self.traj_seeds = [self._seed() for _ in self.traj_params]
        shape = (len(self.ens_params), cfg["reads"])
        self.pick_cp = rng.integers(0, len(self.ens_cps), shape)
        self.pick_rep = rng.integers(0, cfg["replicates"], shape)
        self.pick_point = rng.integers(0, len(self.traj_cps), (len(self.traj_params), cfg["reads"]))
        self.sampled = [
            sorted(rng.choice(cfg["replicates"], cfg["sampled"], replace=False).tolist())
            for _ in self.ens_params
        ]

    def run_round(self, rec):
        fc, cfg = self.fc, self.cfg
        reads_ns, cmds_ns = rec.reads_ns, rec.cmds_ns
        runs, states = [], []  # per source: the command's output, the states read
        for e, (params, seed) in enumerate(zip(self.ens_params, self.ens_seeds)):
            c0 = _now()
            report = fc.run_ensemble(params, cfg["n_ens"], cfg["replicates"], seed, self.ens_cps)
            stats = report.checkpoint_stats()
            moments = fc.sweep_moments(params, report.checkpoints, fc.MODE_FLOAT)
            oracle_std = [math.sqrt(m.variance) for m in moments]
            cmds_ns.append(_now() - c0)
            rec.mark()
            runs.append((report, stats, oracle_std))
            states.append(report.states[self.pick_cp[e], self.pick_rep[e]].tolist())
        for t, (params, seed) in enumerate(zip(self.traj_params, self.traj_seeds)):
            c0 = _now()
            points = fc.run_trajectory(params, cfg["n_traj"], seed, self.traj_cps)
            cmds_ns.append(_now() - c0)
            rec.mark()
            runs.append(points)
            states.append([points[i].k for i in self.pick_point[t]])
        # point reads of the simulated states, the five sources in turn, so
        # that every stretch of reads holds each kind of read alike
        params_of = self.ens_params + self.traj_params
        got = [[] for _ in states]
        for j in range(cfg["reads"]):
            for params, ks, out in zip(params_of, states, got):
                r0 = _now()
                value = fc.estimate_float(params, ks[j])
                reads_ns.append(_now() - r0)
                out.append(value)
        n_ens = len(self.ens_params)
        ensembles = [EnsembleOutput(*run, reads) for run, reads in zip(runs[:n_ens], got)]
        trajectories = list(zip(runs[n_ens:], got[n_ens:]))
        rec.events += (
            cfg["replicates"] * cfg["n_ens"] * len(self.ens_params)
            + cfg["n_traj"] * len(self.traj_params)
        )
        return ensembles, trajectories

    def same(self, a, b):
        for x, y in zip(a[0], b[0]):
            rx, ry = x.report, y.report
            if not all(np.array_equal(getattr(rx, f), getattr(ry, f)) for f in ("states", "bits", "estimates")):
                return False
            if (x.stats, x.oracle_std, x.reads) != (y.stats, y.oracle_std, y.reads):
                return False
        return a[1] == b[1]

    def check(self, out, chk):
        fc, cfg = self.fc, self.cfg
        ensembles, trajectories = out
        reps, n_ens = cfg["replicates"], cfg["n_ens"]
        top = 0
        for e, (params, seed, ens) in enumerate(zip(self.ens_params, self.ens_seeds, ensembles)):
            rep = ens.report
            tag = f"ensemble {params.family.value}"
            chk.expect(rep.states.shape == (len(self.ens_cps), reps), tag + " shape")
            want = rep.estimates[self.pick_cp[e], self.pick_rep[e]].tolist()
            chk.expect_all(tag + " read matches report", (a == b for a, b in zip(ens.reads, want)))
            for r in self.sampled[e]:
                src = fc.BitSource(fc.child_seed(seed, r))
                st = fc.new_counter()
                ci = 0
                for m in range(1, n_ens + 1):
                    st = fc.increment(st, params, src)
                    if m == self.ens_cps[ci]:
                        chk.expect_all(
                            f"{tag} replicate {r} engine == scalar at n={m}",
                            [
                                int(rep.states[ci, r]) == st.k,
                                int(rep.bits[ci, r]) == src.stream_position,
                                float(rep.estimates[ci, r]) == fc.estimate_float(params, st.k),
                            ],
                        )
                        ci += 1
            # criterion 6, with the std tolerance scaled to the replicate count
            std_tol = 0.15 * math.sqrt(max(1.0, 1000 / reps))
            for stats, ostd in zip(ens.stats, ens.oracle_std):
                if stats.n < min(self.STATS_FROM, n_ens):
                    continue
                chk.expect_all(
                    f"{tag} criterion-6 tolerances at n={stats.n}",
                    [
                        abs(stats.mean - stats.n) <= 4 * ostd / math.sqrt(reps),
                        abs(stats.sample_std - ostd) <= std_tol * ostd,
                        stats.outliers_2sigma <= 0.10 * reps,
                    ],
                )
            top = max(top, int(rep.states.max()))
        law = LawTally()
        fp_bits = 0
        traj_cps = set(self.traj_cps)
        for t, (params, seed, (points, got)) in enumerate(zip(self.traj_params, self.traj_seeds, trajectories)):
            tag = f"trajectory {params.family.value}"
            scan = params.family is not fc.Family.QARY
            src = fc.BitSource(seed)
            st = fc.new_counter()
            want = []
            for m in range(1, cfg["n_traj"] + 1):
                if scan:
                    law.add(params.scan_length(st.k))
                st = fc.increment(st, params, src)
                if m in traj_cps:
                    est = fc.estimate_float(params, st.k)
                    want.append(fc.TrajectoryPoint(m, st.k, est, (est - m) / m))
            chk.expect(points == want, tag + " matches scalar replay")
            want = [points[i].estimate for i in self.pick_point[t]]
            chk.expect_all(tag + " read matches point", (a == b for a, b in zip(got, want)))
            if scan:
                fp_bits += src.stream_position
            top = max(top, st.k)
        chk.expect(law.holds(fp_bits), "trajectory bits follow the scan law")
        fp_ens = ensembles[0].report
        return {
            "events": cfg["replicates"] * n_ens * 2 + cfg["n_traj"] * 3,
            # every fp(4) replicate spends exactly its first 16 updates at t = 0
            "zero_prefix_share_fp_ensemble": min(16, n_ens) / n_ens,
            "zero_prefix_share_trajectories": law.zero_scans / law.scans if law.scans else 0.0,
            "max_state": top,
            "max_exponent_fp": int(fp_ens.states.max()) >> 4,
            "bits_vs_law": law.ratio(fp_bits),
        }

    def bits_per_event(self, out):
        rep = out[0][0].report
        return float(rep.bits[-1].sum()) / (rep.replicates * self.cfg["n_ens"])


# -- oracle-sweep -------------------------------------------------------------


class OracleSweep(Workload):
    """Float and exact moment sweeps and expected bit costs; no random bits."""

    name = "oracle-sweep"
    READ_PASSES = 8
    # (base, band): the seed picks n in [base, base + band); the bands are
    # narrow so that the work per round, cubic in n for the exact sweeps,
    # moves by about 1% between seeds
    SIZES = {
        "full": {"octaves": (10, 17), "qary_n": 10**5, "morris_n": (200, 2), "fp_n": (320, 4),
                 "bits_n": (200, 4)},
        "tiny": {"octaves": (10, 11), "qary_n": 20000, "morris_n": (24, 8), "fp_n": (40, 8),
                 "bits_n": (16, 8)},
    }

    def __init__(self, fc, seed, size):
        super().__init__(fc, seed, size)
        cfg, rng = self.cfg, self.rng
        lo, hi = cfg["octaves"]
        self.octaves = [1 << j for j in range(lo, hi + 1)]
        self.span = sorted({round(2 ** (lo + j / 8)) for j in range(8 * (hi - lo) + 1)})
        self.qary_cps = fc.log_checkpoints(cfg["qary_n"])
        self.morris_n, self.fp_n, self.bits_n = (
            base + int(rng.integers(band)) for base, band in (cfg["morris_n"], cfg["fp_n"], cfg["bits_n"])
        )
        fp4, fp2 = fc.CounterParams.fp(4), fc.CounterParams.fp(2)
        morris, qary = fc.CounterParams.morris(), fc.CounterParams.qary(16)
        ex, fl = fc.MODE_EXACT, fc.MODE_FLOAT

        def sweep(params, cps, mode):
            return lambda: fc.sweep_moments(params, cps, mode)

        # name -> (command, DP steps it runs)
        commands = {
            "fp4-float-span": (sweep(fp4, self.span, fl), self.span[-1]),
            "qary16-float": (sweep(qary, self.qary_cps, fl), cfg["qary_n"]),
            "morris-exact": (sweep(morris, range(1, self.morris_n + 1), ex), self.morris_n),
            "fp4-exact": (sweep(fp4, range(1, self.fp_n + 1), ex), self.fp_n),
            "fp2-bits": (
                lambda: (fc.expected_bits(fp2, self.bits_n, ex), fc.expected_bits(fp2, self.bits_n, fl)),
                2 * self.bits_n,
            ),
        }
        names = list(commands)
        self.commands = [(names[i], *commands[names[i]]) for i in rng.permutation(len(names))]

    def run_round(self, rec):
        reads_ns, cmds_ns = rec.reads_ns, rec.cmds_ns
        out = {}
        for name, command, steps in self.commands:
            c0 = _now()
            result = command()
            cmds_ns.append(_now() - c0)
            got = []
            if name != "fp2-bits":
                rec.mark()
                # point reads of the accuracy at every checkpoint, READ_PASSES times over
                for record in result * self.READ_PASSES:
                    r0 = _now()
                    value = record.accuracy
                    reads_ns.append(_now() - r0)
                    got.append(value)
            out[name] = (result, got)
            rec.events += steps
            rec.mark()
        return out

    def check(self, out, chk):
        fc = self.fc
        for name, params, n in (
            ("morris-exact", fc.CounterParams.morris(), self.morris_n),
            ("fp4-exact", fc.CounterParams.fp(4), self.fp_n),
        ):
            records, got = out[name]
            chk.expect([r.n for r in records] == list(range(1, n + 1)), name + " checkpoints")
            chk.expect_all(name + " mean == n", (r.mean == r.n for r in records))
            chk.expect_all(name + " variance == E g", (r.variance == r.mean_variance_fn for r in records))
            floats = fc.sweep_moments(params, range(1, n + 1), fc.MODE_FLOAT)
            chk.expect_all(
                name + " float agrees with exact",
                (
                    math.isclose(f.mean, float(e.mean), rel_tol=1e-9)
                    and math.isclose(f.variance, float(e.variance), rel_tol=1e-9)
                    for f, e in zip(floats, records)
                ),
            )
            chk.expect_all(
                name + " accuracy read",
                (math.isclose(a, f.accuracy, rel_tol=1e-9) for a, f in zip(got, floats * self.READ_PASSES)),
            )
        exact, flt = out["fp2-bits"][0]
        chk.expect(
            math.isclose(flt.expected, float(exact.expected), rel_tol=1e-9),
            "expected_bits float agrees with exact",
        )
        for name in ("fp4-float-span", "qary16-float"):
            records, got = out[name]
            chk.expect_all(name + " accuracy read", (a == r.accuracy for a, r in zip(got, records * self.READ_PASSES)))
        acc = {r.n: r.accuracy for r in out["fp4-float-span"][0]}
        lo, hi = math.sqrt(1 / 47), math.sqrt(3 / 125)  # the paper's fp(4) window
        chk.expect_all(
            "fp4 octave accuracy inside the paper's window",
            (lo - 0.005 <= acc[n] <= hi + 0.005 for n in self.octaves),
        )
        chk.expect(max(acc.values()) - min(acc.values()) >= 0.002, "fp4 accuracy oscillates across the span")
        target = (2 ** (1 / 16) - 1) / 2
        last = out["qary16-float"][0][-1]
        chk.expect(abs(last.accuracy**2 - target) <= 0.01 * target, "qary16 accuracy limit")
        return {
            "largest_n_float": max(self.span[-1], self.cfg["qary_n"]),
            "largest_n_exact": max(self.morris_n, self.fp_n),
            "largest_n_bits": self.bits_n,
            "order": [name for name, _, _ in self.commands],
        }

    def bits_per_event(self, out):
        return float(out["fp2-bits"][0][1].expected)


# -- cli-small ----------------------------------------------------------------

HEADERS = {
    "trajectory": ["family", "param", "seed", "n", "k", "estimate", "rel_error"],
    "ensemble": ["family", "param", "n", "replicates", "mean", "sample_std", "oracle_std",
                 "outliers_2sigma", "mean_bits"],
    "oracle": ["family", "param", "n", "mean", "variance", "accuracy"],
    "bounds": ["family", "param", "lower", "upper"],
    "bits": ["family", "param", "n", "expected_bits", "alt_expected_bits"],
    "table-demo": ["slot", "k", "estimate", "lower_bound"],
}


def _rows(text: str, output: str) -> tuple[list[str], list[dict]]:
    if output == "json":
        rows = json.loads(text)
        return (list(rows[0]) if rows else []), rows
    lines = text.splitlines()
    return next(csv.reader(lines[:1]), []), list(csv.DictReader(lines))


class CliSmall(Workload):
    """In-process ``fpcount.cli.main`` over all six subcommands, stdout captured."""

    name = "cli-small"
    READ_PASSES = 16
    SIZES = {
        "full": {"traj_n": 100, "qary_n": 2048, "ens_n": 2048, "ens_reps": 32, "oracle_n": 64,
                 "bits_n": 2, "slots": 8, "slot_n": 1000},
        "tiny": {"traj_n": 100, "qary_n": 256, "ens_n": 256, "ens_reps": 8, "oracle_n": 16,
                 "bits_n": 2, "slots": 4, "slot_n": 100},
    }

    def __init__(self, fc, seed, size):
        super().__init__(fc, seed, size)
        c = {k: str(v) for k, v in self.cfg.items()}
        s = [str(self._seed() % 2**31) for _ in range(4)]
        fp4, qary = fc.CounterParams.fp(4), fc.CounterParams.qary(16)
        # (argv, output format, params whose estimates the rows carry)
        self.commands = [
            (["trajectory", "--counter", "fp", "--d", "4", "--seed", s[0], "--n", c["traj_n"]], "csv", fp4),
            (["trajectory", "--counter", "qary", "--r", "16", "--n", c["qary_n"], "--seed", s[1],
              "--output", "json"], "json", qary),
            (["ensemble", "--counter", "fp", "--d", "4", "--n", c["ens_n"], "--replicates",
              c["ens_reps"], "--seed", s[2]], "csv", None),
            (["oracle", "--counter", "morris", "--n", c["oracle_n"], "--mode", "exact"], "csv", None),
            (["bounds", "--counter", "fp", "--d", "4"], "csv", None),
            (["bits", "--counter", "fp", "--d", "0", "--n", c["bits_n"]], "csv", None),
            (["table-demo", "--counter", "fp", "--d", "4", "--seed", s[3], "--slots", c["slots"],
              "--n", c["slot_n"]], "csv", fp4),
        ]
        cfg = self.cfg
        self.events = (
            cfg["traj_n"] + cfg["qary_n"] + cfg["ens_n"] * cfg["ens_reps"] + cfg["oracle_n"]
            + cfg["bits_n"] + cfg["slots"] * cfg["slot_n"]
        )

    def run_round(self, rec):
        fc = self.fc
        reads_ns, cmds_ns = rec.reads_ns, rec.cmds_ns
        out = []
        for argv, output, params in self.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                c0 = _now()
                try:
                    code = fc.cli.main(argv)
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code
                cmds_ns.append(_now() - c0)
            out.append((code, buf.getvalue(), []))
        rec.events += self.events
        rec.mark()
        # decode the states the commands printed back into estimates,
        # READ_PASSES times over
        for (_, output, params), (code, text, got) in zip(self.commands, out):
            if params is None or code != 0:
                continue
            for row in _rows(text, output)[1] * self.READ_PASSES:
                k = int(row["k"])
                r0 = _now()
                value = fc.estimate_float(params, k)
                reads_ns.append(_now() - r0)
                got.append((value, float(row["estimate"])))
        return out

    def check(self, out, chk):
        largest = {}
        top = 0
        for (argv, output, _), (code, text, got) in zip(self.commands, out):
            name = argv[0]
            chk.expect(code == 0, f"{name} exits 0")
            header, rows = _rows(text, output) if code == 0 else ([], [])
            chk.expect(header == HEADERS[name], f"{name} documented header")
            chk.expect(bool(rows), f"{name} prints rows")
            chk.expect_all(f"{name} estimate decodes from k", (a == b for a, b in got))
            if "--n" in argv:
                largest[name] = max(largest.get(name, 0), int(argv[argv.index("--n") + 1]))
            top = max([top] + [int(r["k"]) for r in rows if "k" in r])
        return {"largest_n": largest, "max_state": top}

    def bits_per_event(self, out):
        code, text, _ = out[2]
        last = _rows(text, "csv")[1][-1]
        return float(last["mean_bits"]) / int(last["n"])


WORKLOADS = {w.name: w for w in (TableIngest, MonteCarlo, OracleSweep, CliSmall)}
