"""Tracing and per-layer metrics for the traced run.

The tracer records one span per wrapped call: name, start, end, parent
span and the id of the sequence it serves (a new id starts at every root
span).  Spans stay in memory until the run ends.  Besides the calls the
workloads make, the traced run rebinds the public names ``lincomplex``
imports (``apply_poly_pow2``, ``gcd_method``, ``factor_xn_minus_1``), so
calls between layers show as child spans.  A span's self time is its
duration minus its children's.

Every traced run ends with the same fixed probes: a checked pass over one
length per algorithm tag, the GF(2) kernels on oracle-mix's operand sizes,
cold and warm dispatch and factoring, and the CLI in and out of process.
So every layer has a measured value on every workload; probe calls are
counted with the workload's.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from array import array
from collections import defaultdict

from lcseq import cli, cyclicseq, gf2poly, lincomplex
from lcseq._rng import SplitMix64
from lcseq.gf2poly import Poly2, UnsupportedPeriod

from workloads import (
    BOUNDED_TAGS,
    CLI_COMPUTE,
    ORACLE_MIX,
    TAGS,
    Api,
    Tally,
    keys_error,
    paper_bound,
    run_child,
)

# One length per tag at this commit; a dispatch change may move them.
TAG_PROBE_LENGTHS = (4096, 3072, 5120, 2187, 195, 390, 1023)
PROBE_SEED = 0x9E0BE
STARTUP_REPS = 3
KERNEL_ROUNDS = 5
KERNEL_REPS = 20
WARM_FACTOR_CALLS = 20000


def _metric_names() -> list[tuple[str, str]]:
    names = []
    for layer in ("rng.getrandbits", "cyclicseq.apply_poly_pow2"):
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms"),
                  (f"{layer}.ns_per_bit", "ns/bit")]
    f = "gf2poly.factor_xn_minus_1"
    names += [(f"{f}.cold_ms", "ms"), (f"{f}.warm_us", "us"), (f"{f}.hit_ratio", "ratio"),
              (f"{f}.cache_entries", "count")]
    names += [(f"gf2poly.{k}.ns_per_bit", "ns/bit") for k in ("gcd", "divrem", "mul")]
    c = "lincomplex.choose_algorithm"
    names += [(f"{c}.cold_ms", "ms"), (f"{c}.hit_ratio", "ratio"), (f"{c}.cache_entries", "count")]
    names += [("lincomplex.solve.calls", "count"), ("lincomplex.solve.self_ms", "ms")]
    for tag in TAGS:
        t = f"lincomplex.solve.{tag}"
        names += [(f"{t}.calls", "count"), (f"{t}.ns_per_bit", "ns/bit"),
                  (f"{t}.ops_per_bit_max", "ops/bit")]
        if tag in BOUNDED_TAGS:
            names.append((f"{t}.bound_ratio_max", "ratio"))
    names.append(("lincomplex.fallback_ratio", "ratio"))
    for o in ("oracle.gcd_method", "oracle.berlekamp_massey"):
        names += [(f"{o}.calls", "count"), (f"{o}.self_ms", "ms"), (f"{o}.us_per_call", "us")]
    names += [("cli.startup_ms", "ms"), ("cli.main.warm_ms", "ms"), ("cli.main.cold_ms", "ms"),
              ("cli.exit_nonzero", "count")]
    names += [("trace.overhead_ratio", "ratio"), ("trace.span_count", "count")]
    return names


PER_LAYER = _metric_names()


class Tracer:
    """Spans in columns of machine words, so a long traced run stays small."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")  # -1 for a root span
        self.seq = array("l")
        self.size = array("q")  # bits the call worked on, when known
        self.notes: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, size=None, note=None):
        self.names.append(name)
        code = len(self.names) - 1
        stack, clock, starts, ends = self._stack, time.perf_counter_ns, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._seq += 1
            self.name.append(code)
            self.parent.append(parent)
            self.seq.append(self._seq)
            self.size.append(size(args) if size else 0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                self.notes[idx] = note(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """(name, start, end, parent, sequence id, size) per span, in start order."""
        names = self.names
        for i in range(len(self)):
            yield (names[self.name[i]], self.start[i], self.end[i], self.parent[i],
                   self.seq[i], self.size[i])

    @contextlib.contextmanager
    def rebound(self):
        """Trace the calls lincomplex makes into cyclicseq, gf2poly and oracle."""
        targets = {
            "apply_poly_pow2": ("cyclicseq.apply_poly_pow2", lambda a: a[2].n),
            "gcd_method": ("oracle.gcd_method", lambda a: a[0].n),
            "factor_xn_minus_1": ("gf2poly.factor_xn_minus_1", None),
        }
        saved = {k: getattr(lincomplex, k) for k in targets if hasattr(lincomplex, k)}
        try:
            for attr, fn in saved.items():
                name, size = targets[attr]
                setattr(lincomplex, attr, self.wrap(name, fn, size=size))
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(lincomplex, attr, fn)

    def self_times(self) -> list[int]:
        own = [e - b for b, e in zip(self.start, self.end)]
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[i] - self.start[i]
        return own

    def by_name(self, start_ns: int = 0, end_ns: int | None = None) -> dict[str, dict]:
        """calls, inclusive ns, self ns and summed size per span name, over
        the spans that start in [start_ns, end_ns]."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "size": 0})
        for (name, begin, end, _, _, size), own in zip(self.spans(), self.self_times()):
            if begin < start_ns or (end_ns is not None and begin > end_ns):
                continue
            row = out[name]
            row["calls"] += 1
            row["ns"] += end - begin
            row["self_ns"] += own
            row["size"] += size
        return out


# ---------------------------------------------------------------------------
# probes


def tag_probe(api: Api, tally: Tally) -> None:
    """Draw, solve and both oracles on a fixed input of each tag's length."""
    for n in TAG_PROBE_LENGTHS:
        s = api.draw(n)
        res = api.solve(s)
        err = keys_error(
            api.key(res), api.key(api.gcd_method(s)), api.key(api.berlekamp_massey(s))
        )
        tally.record(err, f"probe N={n}")


def kernel_probe() -> dict[str, float]:
    """gf2poly.{gcd,divrem,mul} in ns per operand bit on oracle-mix's sizes."""
    rng = SplitMix64(PROBE_SEED)
    operands = []
    for n in ORACLE_MIX.lengths:
        a = Poly2(rng.getrandbits(n) | 1 << (n - 1))
        b = Poly2(rng.getrandbits(n) | 1 << (n - 1))
        operands.append((n, a, b, Poly2((1 << n) | 1)))
    bits = sum(n for n, *_ in operands) * KERNEL_REPS
    kernels = {
        "gcd": lambda a, b, xn1: gf2poly.gcd(a, xn1),
        "divrem": lambda a, b, xn1: gf2poly.divrem(xn1, a),
        "mul": lambda a, b, xn1: gf2poly.mul(a, b),
    }
    out = {}
    for name, op in kernels.items():
        rounds = []
        for _ in range(KERNEL_ROUNDS):
            t0 = time.perf_counter_ns()
            for _ in range(KERNEL_REPS):
                for _, a, b, xn1 in operands:
                    op(a, b, xn1)
            rounds.append((time.perf_counter_ns() - t0) / bits)
        out[f"gf2poly.{name}.ns_per_bit"] = statistics.median(rounds)
    return out


def _clear_dispatch_caches() -> None:
    lincomplex.choose_algorithm.cache_clear()
    gf2poly.factor_xn_minus_1.cache_clear()


def _factor_all(lengths) -> list[int]:
    """Factor x^N - 1 for every length; return the lengths it supports."""
    supported = []
    for n in lengths:
        try:
            gf2poly.factor_xn_minus_1(n)
            supported.append(n)
        except UnsupportedPeriod:
            pass
    return supported


def cache_probe(lengths) -> dict[str, float]:
    """Cold dispatch and factoring over the workload's lengths, warm factoring."""
    _clear_dispatch_caches()
    t0 = time.perf_counter_ns()
    _factor_all(lengths)
    factor_cold = time.perf_counter_ns() - t0
    _clear_dispatch_caches()
    t0 = time.perf_counter_ns()
    for n in lengths:
        lincomplex.choose_algorithm(n)
    choose_cold = time.perf_counter_ns() - t0
    supported = _factor_all(lengths)
    calls = 0
    t0 = time.perf_counter_ns()
    while calls < WARM_FACTOR_CALLS and supported:
        for n in supported:
            gf2poly.factor_xn_minus_1(n)
        calls += len(supported)
    warm = (time.perf_counter_ns() - t0) / max(calls, 1)
    return {
        "gf2poly.factor_xn_minus_1.cold_ms": factor_cold / 1e6,
        "gf2poly.factor_xn_minus_1.warm_us": warm / 1e3,
        "lincomplex.choose_algorithm.cold_ms": choose_cold / 1e6,
    }


def cli_probe(source: str, tally: Tally) -> dict[str, float]:
    """A fresh `import lcseq.cli`, and cli.main in process, warm and cold."""
    startup = []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter_ns()
        run_child(["-c", "import lcseq.cli"], source).check_returncode()
        startup.append(time.perf_counter_ns() - t0)
    rng = SplitMix64(PROBE_SEED)
    seqs = [cyclicseq.CyclicSeq(rng.getrandbits(n), n) for n in CLI_COMPUTE.lengths]
    nonzero = 0
    means = {}
    for mode in ("warm", "cold"):
        total = 0
        for s in seqs:
            if mode == "cold":
                _clear_dispatch_caches()
            else:
                lincomplex.choose_algorithm(s.n)
            out = io.StringIO()
            t0 = time.perf_counter_ns()
            with contextlib.redirect_stdout(out):
                code = cli.main(["compute", "--seq", s.to_bits_str()])
            total += time.perf_counter_ns() - t0
            nonzero += code != 0
            tally.record(None if code == 0 else f"exit code {code}", f"cli.main N={s.n}")
        means[f"cli.main.{mode}_ms"] = total / len(seqs) / 1e6
    return {
        "cli.startup_ms": statistics.median(startup) / 1e6,
        **means,
        "cli.exit_nonzero": nonzero,
    }


def _hit_ratio(info) -> float:
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def cache_counts() -> dict[str, float]:
    f = gf2poly.factor_xn_minus_1.cache_info()
    c = lincomplex.choose_algorithm.cache_info()
    return {
        "gf2poly.factor_xn_minus_1.hit_ratio": _hit_ratio(f),
        "gf2poly.factor_xn_minus_1.cache_entries": f.currsize,
        "lincomplex.choose_algorithm.hit_ratio": _hit_ratio(c),
        "lincomplex.choose_algorithm.cache_entries": c.currsize,
    }


# ---------------------------------------------------------------------------
# span metrics


def span_metrics(tracer: Tracer) -> dict[str, float]:
    rows = tracer.by_name()
    out: dict[str, float] = {}
    for layer in ("rng.getrandbits", "cyclicseq.apply_poly_pow2"):
        row = rows[layer]
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_ms"] = row["self_ns"] / 1e6
        out[f"{layer}.ns_per_bit"] = row["ns"] / row["size"] if row["size"] else 0.0
    for o in ("oracle.gcd_method", "oracle.berlekamp_massey"):
        row = rows[o]
        out[f"{o}.calls"] = row["calls"]
        out[f"{o}.self_ms"] = row["self_ns"] / 1e6
        out[f"{o}.us_per_call"] = row["ns"] / row["calls"] / 1e3 if row["calls"] else 0.0
    out["lincomplex.solve.calls"] = rows["lincomplex.solve"]["calls"]
    out["lincomplex.solve.self_ms"] = rows["lincomplex.solve"]["self_ns"] / 1e6
    per_tag: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "ns": 0, "bits": 0, "ops": 0.0, "ratio": 0.0}
    )
    for idx, (tag, ops) in tracer.notes.items():
        start, end, n = tracer.start[idx], tracer.end[idx], tracer.size[idx]
        row = per_tag[tag]
        row["calls"] += 1
        row["ns"] += end - start
        row["bits"] += n
        row["ops"] = max(row["ops"], ops / n)
        bound = paper_bound(tag, n)
        if bound:
            row["ratio"] = max(row["ratio"], ops / bound)
    for tag in TAGS:
        row, t = per_tag[tag], f"lincomplex.solve.{tag}"
        out[f"{t}.calls"] = row["calls"]
        out[f"{t}.ns_per_bit"] = row["ns"] / row["bits"] if row["bits"] else 0.0
        out[f"{t}.ops_per_bit_max"] = row["ops"]
        if tag in BOUNDED_TAGS:
            out[f"{t}.bound_ratio_max"] = row["ratio"]
    calls = out["lincomplex.solve.calls"]
    out["lincomplex.fallback_ratio"] = (
        out["lincomplex.solve.OracleFallback.calls"] / calls if calls else 0.0
    )
    out["trace.span_count"] = len(tracer)
    return out


def accounting(tracer: Tracer, start_ns: int, end_ns: int) -> list[tuple[str, int, float, float]]:
    """Self time per span name as a share of the traced loop's wall time."""
    rows = tracer.by_name(start_ns, end_ns).items()
    return [
        (name, row["calls"], row["self_ns"] / 1e6, row["self_ns"] / (end_ns - start_ns))
        for name, row in sorted(rows, key=lambda kv: -kv[1]["self_ns"])
    ]
