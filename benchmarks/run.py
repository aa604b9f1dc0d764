"""lcseq benchmark: four closed-loop workloads, end-to-end and per-layer.

    python3 benchmarks/run.py --workload oracle-mix --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is always taken from ``src/`` beside this
directory, and the run fails (nonzero exit, no result) when it is missing.  Every
workload runs one sequence (or one CLI process) at a time in this single
process and thread; its length list, mix and default seed are frozen in
``workloads.py``.  Every output is checked.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, writes
the spans to ``benchmarks/traces/`` and reports the per-layer metrics (see
``layers.py``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"

SETUP_REPS = 5

END_TO_END = [
    ("seq_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("meter_ops_per_bit", "ops/bit"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

SETUP_CODE = """\
import sys
import lcseq
from lcseq.gf2poly import UnsupportedPeriod, factor_xn_minus_1
from lcseq.lincomplex import choose_algorithm
for n in map(int, sys.argv[1:]):
    choose_algorithm(n)
    try:
        factor_xn_minus_1(n)
    except UnsupportedPeriod:
        pass
"""


def load_program() -> None:
    """Import lcseq from this checkout's src/, never from anywhere else."""
    if not (SOURCE / "lcseq" / "__init__.py").is_file():
        sys.exit(f"error: no lcseq package under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import lcseq

    if Path(lcseq.__file__).resolve().parent.parent != SOURCE:
        sys.exit(f"error: lcseq imported from {lcseq.__file__}, not {SOURCE}")


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_speed(seconds: float = 0.2) -> float:
    """Rounds per second of a fixed pure-Python loop, to read machine noise off a run."""
    rounds = 0
    start = time.perf_counter_ns()
    end = start + int(seconds * 1e9)
    while time.perf_counter_ns() < end:
        acc = 0
        for i in range(10000):
            acc ^= (i * 2654435761) & 0xFFFFFFFF
        rounds += 1
    return rounds / ((time.perf_counter_ns() - start) / 1e9)


def percentile(sorted_values: list[int], pct: int) -> tuple[int, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    if not sorted_values:
        return 0, 0
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def slowest_lengths_ns(loop, count: int) -> float:
    """Mean, over the `count` slowest lengths, of each length's median latency."""
    per_length: dict[int, list[int]] = {}
    for n, elapsed in zip(loop.lengths, loop.latencies_ns):
        per_length.setdefault(n, []).append(elapsed)
    medians = sorted(statistics.median(v) for v in per_length.values())
    return statistics.mean(medians[-count:])


def setup_seconds(wl) -> float:
    """Median wall time of a fresh interpreter doing the workload's set-up."""
    from workloads import run_child

    if wl.name == "cli-compute":
        args = ["-c", "import lcseq.cli"]
    else:
        args = ["-c", SETUP_CODE, *map(str, wl.lengths)]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter_ns()
        proc = run_child(args, str(SOURCE))
        times.append(time.perf_counter_ns() - t0)
        if proc.returncode:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
    return statistics.median(times) / 1e9


def end_to_end(wl, seed: int, seconds: float):
    from workloads import run_loop, warm_caches

    setup = setup_seconds(wl)
    warm_caches(wl.lengths)
    gc.collect()
    loop = run_loop(wl, seed, seconds, str(SOURCE))
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-compute" else resource.RUSAGE_SELF
    peak_rss = resource.getrusage(who).ru_maxrss / 1024
    lat = sorted(loop.latencies_ns)
    metrics = {"seq_per_s": loop.seq_per_s}
    notes = {"seq_per_s": f"{loop.sequences} in {loop.wall_ns / 1e9:.2f} s"}
    for name, pct in (("latency_p50_ms", 50), ("latency_tail_ms", wl.tail_pct)):
        value, beyond = percentile(lat, pct)
        metrics[name] = value / 1e6
        notes[name] = f"p{pct}, n={len(lat)}, {beyond} above"
    if wl.tail_lengths:
        metrics["latency_tail_ms"] = slowest_lengths_ns(loop, wl.tail_lengths) / 1e6
        notes["latency_tail_ms"] = (
            f"mean per-length median of the {wl.tail_lengths} slowest of "
            f"{len(set(loop.lengths))} lengths, n={len(lat)}; sample {notes['latency_tail_ms']}: "
            f"{percentile(lat, wl.tail_pct)[0] / 1e6:.6g} ms"
        )
    metrics["meter_ops_per_bit"] = loop.meter_ops / loop.meter_bits if loop.meter_bits else 0.0
    notes["meter_ops_per_bit"] = f"{loop.meter_ops} ops / {loop.meter_bits} bits"
    metrics["setup_s"] = setup
    notes["setup_s"] = f"median of {SETUP_REPS}"
    metrics["peak_rss_mb"] = peak_rss
    notes["peak_rss_mb"] = "largest child" if wl.name == "cli-compute" else "this process"
    return metrics, notes, loop, loop.tally


def traced(wl, seed: int, seconds: float):
    import layers
    from workloads import Api, Tally, run_loop, warm_caches

    warm_caches(wl.lengths)
    gc.collect()
    plain = run_loop(wl, seed, seconds / 2, str(SOURCE))
    tracer = layers.Tracer()
    gc.collect()
    with tracer.rebound():
        loop = run_loop(wl, seed, seconds / 2, str(SOURCE), tracer)
        table = layers.accounting(tracer, loop.start_ns, loop.end_ns)
        counts = layers.cache_counts()
        probe_tally = Tally()
        layers.tag_probe(Api(layers.PROBE_SEED, str(SOURCE), tracer), probe_tally)
    metrics = layers.span_metrics(tracer)
    metrics.update(counts)
    metrics.update(layers.kernel_probe())
    metrics.update(layers.cache_probe(wl.lengths))
    metrics.update(layers.cli_probe(str(SOURCE), probe_tally))
    metrics["cli.exit_nonzero"] += plain.cli_nonzero + loop.cli_nonzero
    metrics["trace.overhead_ratio"] = plain.seq_per_s / loop.seq_per_s if loop.seq_per_s else 0.0
    tally = Tally()
    for part in (plain.tally, loop.tally, probe_tally):
        tally.merge(part)
    print("accounting (self time of the traced loop, by span):")
    for name, calls, self_ms, share in table:
        print(f"  {name:32s} {calls:8d} calls {self_ms:11.2f} ms {100 * share:6.2f}%")
    print(f"  {'(all spans)':32s} {'':14s} {sum(r[2] for r in table):11.2f} ms of "
          f"{loop.wall_ns / 1e6:.2f} ms of traced loop")
    write_trace(wl, seed, tracer, table)
    return metrics, {}, loop, tally


def write_trace(wl, seed: int, tracer, table) -> None:
    """The latest traced run of each workload: its accounting, then one span a line."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{wl.name}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"workload": wl.name, "seed": seed, "accounting": table}) + "\n")
        fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "seq", "size"]) + "\n")
        for span in tracer.spans():
            fh.write(json.dumps(span) + "\n")
    print(f"spans: {len(tracer)} written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    load_program()
    import layers
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="overrides the workload's default seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed

    header = {
        "workload": wl.name,
        "seed": seed,
        "default_seed": wl.default_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "reference_per_s_before": reference_speed(),
        "commit": git_commit(),
    }
    print("header " + json.dumps(header))
    run = traced if args.trace else end_to_end
    metrics, notes, loop, tally = run(wl, seed, args.seconds)
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)

    print("census " + json.dumps(dict(sorted(loop.census.items()))))
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed, fail_ratio {fail_ratio}")
    for example in tally.examples:
        print(f"  failure: {example}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metrics[name]:.6g} {unit}{note}")
    print("footer " + json.dumps(
        {"loadavg_after": os.getloadavg(), "reference_per_s_after": reference_speed()}
    ))
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
