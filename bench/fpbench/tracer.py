"""Layer tracing from the benchmark's side of each call.

A :class:`Tracer` records a frame for every call that crosses into a
layer of ``fpcount``.  Coarse boundaries (a sweep, an ensemble, a CLI
command) are also kept as spans with a parent and a request id, and can
be written out when the run ends.  Per-event boundaries (a table
update, a scalar counter update, a bit-source call) only add to a count
and summed nanoseconds, so the trace stays bounded in memory.  Self time
is a frame's duration minus the time of the frames it encloses.

:func:`instrument` installs the boundaries: it swaps the module
attributes that callers look up (``fpcount.ensemble.increment``,
``fpcount._engine.simulate``, ``fpcount.table.estimate_float``, ...) for
timing wrappers, hands out timing proxies for bit sources and tables,
and restores every attribute on exit.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from .checks import LawTally

_now = time.perf_counter_ns

# Single-run rates from ROADMAP.md "Open items" (2-core box, Python 3.10,
# numpy 2.4.6).  Reported as ratios for orientation; nothing gates on them.
BASELINE = {
    "counters.updates_per_s": (0.79e6, "scalar increment fp(4), incl. bit source"),
    "randbits.calls_per_s": (1.27e6, "bernoulli_pow2(3) calls"),
    "engine.replicate_updates_per_s": (13.4e6, "engine, 1000 replicates"),
    "oracle.float_steps_per_s": (140e3, "float oracle fp(4)"),
    "table.updates_per_s": (0.72e6, "CounterTable.increment, incl. bit source"),
}


class Tracer:
    """Frames, spans and counts of one traced run."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child_ns, span_id, own_span, start_ns]
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.spans: list[list] = []  # [id, parent, request, name, start_ns, end_ns]
        self.request = 0
        self.law = LawTally()

    def push(self, name: str, span: bool = False) -> None:
        stack = self.stack
        ctx = stack[-1][2] if stack else None
        if span:
            self.spans.append([len(self.spans), ctx, self.request, name, 0, 0])
            ctx = len(self.spans) - 1
        stack.append([name, 0, ctx, span, _now()])

    def pop(self) -> None:
        end = _now()
        stack = self.stack
        name, child, ctx, span, start = stack.pop()
        dur = end - start
        if stack:
            stack[-1][1] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0, 0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if span:
            self.spans[ctx][4:6] = (start, end)


class TimedBits:
    """Bit-source proxy: times each call into ``randbits`` and tallies the law."""

    def __init__(self, tracer: Tracer, inner):
        self._tr = tracer
        self._inner = inner

    @property
    def stream_position(self) -> int:
        return self._inner.stream_position

    def bernoulli_pow2(self, t: int) -> bool:
        tr, inner = self._tr, self._inner
        caller = tr.stack[-1][0] if tr.stack else "harness"
        pos = inner.stream_position
        tr.push("randbits")
        try:
            ok = inner.bernoulli_pow2(t)
        finally:
            tr.pop()
        counts = tr.counts
        counts["randbits.scan_bits"] += inner.stream_position - pos
        tr.law.add(t)
        if ok:
            counts[caller + ".scan_advances"] += 1
        return ok

    def _timed(self, method, *args):
        self._tr.push("randbits")
        try:
            return method(*args)
        finally:
            self._tr.pop()

    def next_bit(self) -> int:
        return self._timed(self._inner.next_bit)

    def take_bits(self, count: int) -> int:
        return self._timed(self._inner.take_bits, count)

    def next_uniform53(self) -> float:
        return self._timed(self._inner.next_uniform53)


def _traced_table_class(tr: Tracer, base):
    class TracedCounterTable(base):
        def increment(self, index, src):
            sat = self.saturation_count
            tr.push("table")
            try:
                k = base.increment(self, index, src)
            finally:
                tr.pop()
            if self.saturation_count != sat:
                tr.counts["table.saturated"] += 1
            return k

        def estimate(self, index):
            tr.push("table.read")
            try:
                return base.estimate(self, index)
            finally:
                tr.pop()

        def to_bytes(self):
            tr.push("table.snapshot", span=True)
            try:
                blob = base.to_bytes(self)
            finally:
                tr.pop()
            tr.counts["table.snapshot_bytes"] += len(blob)
            return blob

        @classmethod
        def from_bytes(cls, blob):
            tr.push("table.snapshot", span=True)
            try:
                table = super().from_bytes(blob)
            finally:
                tr.pop()
            tr.counts["table.snapshot_bytes"] += len(blob)
            return table

    return TracedCounterTable


def _wrap(tr: Tracer, fn, name, span: bool = False, before=None):
    """Time `fn` as boundary `name`; `name` may be a function of the call."""

    def traced(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        if before is not None:
            args, kwargs = before(label, args, kwargs)
        tr.push(label, span)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.pop()

    return traced


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


@contextmanager
def instrument(tr: Tracer, fc):
    """Install the layer boundaries on the ``fpcount`` package `fc`."""
    counts = tr.counts
    ens, eng, orc, cli = fc.ensemble, fc._engine, fc.oracle, fc.cli
    tab, ctr = fc.table, fc.counters

    def count_engine(label, args, kwargs):
        seeds, cps = args[2], list(args[3])
        counts["engine.replicate_updates"] += len(seeds) * (cps[-1] if cps else 0)
        return (*args[:3], cps, *args[4:]), kwargs

    def count_sweep(label, args, kwargs):
        cps = list(_arg(args, kwargs, 1, "checkpoints"))
        counts[label + "_steps"] += max(cps, default=0)
        if len(args) > 1:
            args = (args[0], cps, *args[2:])
        else:
            kwargs = {**kwargs, "checkpoints": cps}
        return args, kwargs

    def count_steps(label, args, kwargs):
        counts[label + "_steps"] += _arg(args, kwargs, 1, "n", 0)
        return args, kwargs

    def traced_increment(state, *args, **kwargs):
        tr.push("counters")
        try:
            new = orig_increment(state, *args, **kwargs)
        finally:
            tr.pop()
        if new.k != state.k:
            counts["counters.advances"] += 1
        return new

    def traced_main(*args, **kwargs):
        tr.request += 1
        tr.push("cli", span=True)
        try:
            return orig_main(*args, **kwargs)
        finally:
            tr.pop()

    def traced_emit(*args, **kwargs):
        start = sys.stdout.tell()
        tr.push("cli.emit", span=True)
        try:
            return orig_emit(*args, **kwargs)
        finally:
            tr.pop()
            counts["cli.emit_bytes"] += sys.stdout.tell() - start

    orig_increment, orig_main, orig_emit = ens.increment, cli.main, cli._emit
    orig_bitsource = fc.BitSource
    table_cls = _traced_table_class(tr, fc.CounterTable)

    def bit_source(seed):
        return TimedBits(tr, orig_bitsource(seed))

    def replace(obj):
        return lambda _old: obj

    def agg(name, before=None):
        return lambda fn: _wrap(tr, fn, name, False, before)

    def span(name, before=None):
        return lambda fn: _wrap(tr, fn, name, True, before)

    def oracle_mode(args, kwargs):
        return "oracle." + _arg(args, kwargs, 2, "mode", fc.MODE_FLOAT)

    patches = [
        (fc, "CounterTable", replace(table_cls)),
        (cli, "CounterTable", replace(table_cls)),
        (fc, "BitSource", replace(bit_source)),
        (ens, "BitSource", replace(bit_source)),
        (cli, "BitSource", replace(bit_source)),
        (ens, "increment", replace(traced_increment)),
        (fc, "estimate_float", agg("chain.estimate")),
        (ens, "estimate_float", agg("chain.estimate")),
        (tab, "estimate_float", agg("chain.estimate")),
        (eng, "estimate_float", agg("chain.estimate")),
        (orc, "estimate_float", agg("chain.estimate")),
        (orc, "estimate", agg("chain.estimate")),
        (orc, "variance_fn", agg("chain")),
        (eng, "transition_prob", agg("chain")),
        (ctr, "transition_prob", agg("chain")),
        (cli, "accuracy_limits", agg("chain")),
        (eng, "simulate", span("engine", count_engine)),
        (ens, "child_seed", agg("ensemble.seed")),
        (fc, "run_ensemble", span("ensemble")),
        (cli, "run_ensemble", span("ensemble")),
        (fc, "run_trajectory", span("ensemble")),
        (cli, "run_trajectory", span("ensemble")),
        (ens.EnsembleReport, "checkpoint_stats", span("ensemble.stats")),
        (fc, "sweep_moments", span(oracle_mode, count_sweep)),
        (cli, "sweep_moments", span(oracle_mode, count_sweep)),
        (cli, "step_distribution", span(oracle_mode, count_steps)),
        (fc, "expected_bits", span("oracle.bits")),
        (cli, "expected_bits", span("oracle.bits")),
        (cli, "expected_estimate", span("oracle.moments")),
        (cli, "estimator_variance", span("oracle.moments")),
        (cli, "accuracy", span("oracle.moments")),
        (cli, "main", replace(traced_main)),
        (cli, "parse_args", span("cli.parse")),
        (cli, "execute", span("cli.execute")),
        (cli, "_emit", replace(traced_emit)),
    ]
    saved = []
    try:
        for owner, attr, make in patches:
            old = getattr(owner, attr)
            saved.append((owner, attr, old))
            setattr(owner, attr, make(old))
        yield tr
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of `rounds` traced rounds: name -> (value, unit).

    Counts and times are per round, so they compare across runs that fit
    a different number of rounds into their time; rates and ratios are
    over all traced rounds.
    """
    totals, counts = tr.totals, tr.counts

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def total_s(name):
        return totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(*names):
        return sum(totals.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def layer_self(layer):
        return sum(v[2] for k, v in totals.items() if k.split(".")[0] == layer) / 1e9

    def per(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    updates = calls("table")
    reads = calls("table.read")
    snap_s = total_s("table.snapshot")
    rb_calls = calls("randbits")
    ctr_updates = calls("counters")
    rep_updates = counts["engine.replicate_updates"]
    float_steps, exact_steps = counts["oracle.float_steps"], counts["oracle.exact_steps"]
    m = {
        "table.updates": (updates, "count"),
        "table.updates_per_s": (per(updates, self_s("table")), "1/s"),
        "table.self_s": (layer_self("table"), "s"),
        "table.reads": (reads, "count"),
        "table.read_self_s": (self_s("table.read"), "s"),
        "table.snapshot_mb_per_s": (per(counts["table.snapshot_bytes"] / 1e6, snap_s), "MB/s"),
        "table.saturated": (counts["table.saturated"], "count"),
        "table.advance_ratio": (per(counts["table.scan_advances"], updates), "ratio"),
        "randbits.calls": (rb_calls, "count"),
        "randbits.self_s": (layer_self("randbits"), "s"),
        "randbits.calls_per_s": (per(rb_calls, layer_self("randbits")), "1/s"),
        "randbits.bits": (counts["randbits.scan_bits"], "bits"),
        "randbits.bits_vs_law": (tr.law.ratio(counts["randbits.scan_bits"]), "ratio"),
        "counters.updates": (ctr_updates, "count"),
        "counters.updates_per_s": (per(ctr_updates, self_s("counters")), "1/s"),
        "counters.self_s": (layer_self("counters"), "s"),
        "counters.advance_ratio": (per(counts["counters.advances"], ctr_updates), "ratio"),
        "engine.replicate_updates": (rep_updates, "count"),
        "engine.replicate_updates_per_s": (per(rep_updates, self_s("engine")), "1/s"),
        "engine.self_s": (layer_self("engine"), "s"),
        "ensemble.seed_s": (self_s("ensemble.seed"), "s"),
        "ensemble.stats_s": (self_s("ensemble.stats"), "s"),
        "ensemble.self_s": (layer_self("ensemble"), "s"),
        "oracle.float_steps": (float_steps, "count"),
        "oracle.float_steps_per_s": (per(float_steps, self_s("oracle.float")), "1/s"),
        "oracle.exact_steps": (exact_steps, "count"),
        "oracle.exact_steps_per_s": (per(exact_steps, self_s("oracle.exact")), "1/s"),
        "oracle.bits_s": (total_s("oracle.bits"), "s"),
        "oracle.self_s": (layer_self("oracle"), "s"),
        "chain.estimate_calls": (calls("chain.estimate"), "count"),
        "chain.self_s": (layer_self("chain"), "s"),
        "cli.commands": (calls("cli"), "count"),
        "cli.parse_s": (total_s("cli.parse"), "s"),
        "cli.execute_s": (total_s("cli.execute"), "s"),
        "cli.emit_bytes": (counts["cli.emit_bytes"], "bytes"),
        "cli.self_s": (layer_self("cli"), "s"),
    }
    # inclusive rates, defined as the baseline table measured them
    inclusive = {
        "counters.updates_per_s": per(ctr_updates, total_s("counters")),
        "randbits.calls_per_s": per(rb_calls, total_s("randbits")),
        "engine.replicate_updates_per_s": per(rep_updates, total_s("engine")),
        "oracle.float_steps_per_s": per(float_steps, total_s("oracle.float")),
        "table.updates_per_s": per(updates, total_s("table")),
    }
    for name, value in inclusive.items():
        m[name + "_vs_base"] = (value / BASELINE[name][0], "ratio")
    return {
        name: (value / rounds if unit in ("count", "s", "bits", "bytes") else value, unit)
        for name, (value, unit) in m.items()
    }
