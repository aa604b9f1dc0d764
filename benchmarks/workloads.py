"""Frozen workload definitions, output checks and the closed-loop driver.

Every workload is one client in a closed loop: the next sequence is drawn
only after the previous one has a checked result.  A run is made of whole
decks; a deck is the workload's length list in an order shuffled from the
run seed, so lengths are interleaved and every run has the same length mix.
Sequence bits come from ``SplitMix64(2 * seed)``, deck orders from
``SplitMix64(2 * seed + 1)``.

``meter_ops_per_bit`` is taken over the first ``meter_decks`` decks only,
which every run completes, so it is an exact count for a given seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass

from lcseq import lincomplex, oracle
from lcseq._rng import SplitMix64
from lcseq.cyclicseq import CyclicSeq
from lcseq.gf2poly import UnsupportedPeriod, factor_xn_minus_1

TAGS = (
    "GamesChan",
    "Fast3x2n",
    "FastPx2n",
    "OddPrimePower",
    "OddComposite",
    "General",
    "OracleFallback",
)
BOUNDED_TAGS = ("GamesChan", "Fast3x2n", "FastPx2n", "OddPrimePower")


@dataclass(frozen=True)
class Workload:
    name: str
    lengths: tuple[int, ...]  # one deck
    default_seed: int
    meter_decks: int
    tail_pct: int  # the highest percentile a run has at least ten samples above
    # when nonzero, latency_tail_ms is instead the mean, over this many
    # slowest lengths, of each length's median latency in the run
    tail_lengths: int = 0


# lcseq verify on criterion 2's lengths: draw, solve and both oracles per
# sequence.  The oracles take most of the time, so oracle speed-ups show
# here and RNG speed-ups barely do.
ORACLE_MIX = Workload(
    name="oracle-mix",
    lengths=(20, 768, 320, 81, 15),
    default_seed=0xC2C2,
    meter_decks=200,
    tail_pct=99,
)

# lcseq bench on the paper's fast families at large N (criteria 3-7): draw,
# solve and a meter-bound check, no oracle in the loop.  The SplitMix64 draw
# takes most of the time, so RNG speed-ups show here and oracle ones do not.
FAST_LARGE = Workload(
    name="fast-large",
    lengths=(1 << 16, 3 << 14, 5 << 12, 13 << 8, 29 << 8, 3**7, 5**5),
    default_seed=0xFA57,
    meter_decks=100,
    tail_pct=99,
)

# The factor-aware general engine: solve and a gcd_method check on every
# N <= 2400 that dispatches to General or OddComposite, frozen here rather
# than recomputed so that a dispatch change shows in the census.
FACTOR_ENGINE = Workload(
    name="factor-engine",
    lengths=(
        15, 18, 22, 30, 33, 36, 38, 39, 44, 45, 50, 54, 60, 65, 66, 72, 76, 78,
        88, 90, 100, 108, 117, 118, 120, 130, 132, 134, 144, 152, 156, 162, 166,
        176, 180, 195, 200, 214, 216, 234, 236, 240, 242, 250, 260, 262, 264,
        268, 278, 288, 304, 312, 324, 326, 332, 338, 352, 358, 360, 390, 400,
        422, 428, 432, 454, 468, 472, 480, 484, 486, 500, 520, 524, 528, 536,
        556, 576, 585, 608, 624, 648, 652, 664, 676, 694, 704, 716, 720, 722,
        758, 780, 800, 838, 844, 856, 864, 886, 908, 934, 936, 944, 960, 968,
        972, 982, 1000, 1040, 1046, 1048, 1056, 1072, 1094, 1112, 1126, 1152,
        1170, 1174, 1216, 1238, 1248, 1250, 1296, 1304, 1318, 1328, 1352, 1388,
        1408, 1432, 1440, 1444, 1458, 1516, 1560, 1574, 1600, 1654, 1676, 1682,
        1688, 1712, 1718, 1728, 1766, 1772, 1814, 1816, 1868, 1872, 1888, 1894,
        1920, 1936, 1944, 1964, 2000, 2038, 2080, 2092, 2096, 2112, 2144, 2182,
        2188, 2224, 2246, 2252, 2304, 2340, 2342, 2348, 2374,
    ),
    default_seed=0xFAC7,
    meter_decks=1,
    tail_pct=99,
)

# One `python -m lcseq.cli compute` process per sequence, paying interpreter
# start, imports, cold dispatch and the JSON report every time.  One length
# was drawn uniformly from each 60-wide stratum of [2, 2400] by
# SplitMix64(0xC11) and frozen: a fixed set keeps the heavy-tailed
# per-length cost from making one seed's run incomparable with another's.
# A run holds only about 200 processes, so the 20 above its sample p90 are
# as much process-start spikes as slow lengths; the tail is taken over the
# slowest tenth of the lengths instead, each length by its median.
CLI_COMPUTE = Workload(
    name="cli-compute",
    lengths=(
        22, 121, 159, 192, 279, 339, 363, 452, 519, 578, 627, 686, 735, 815,
        855, 924, 997, 1045, 1094, 1186, 1206, 1304, 1350, 1404, 1463, 1560,
        1593, 1628, 1695, 1783, 1817, 1906, 1960, 2024, 2097, 2130, 2221, 2237,
        2335, 2359,
    ),
    default_seed=0xC11C,
    meter_decks=1,
    tail_pct=90,
    tail_lengths=4,
)

WORKLOADS = {w.name: w for w in (ORACLE_MIX, FAST_LARGE, FACTOR_ENGINE, CLI_COMPUTE)}

MAX_EXAMPLES = 5


# ---------------------------------------------------------------------------
# output checks


class Tally:
    """Checked sequences and the first few failures, none dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, error: str | None, what: str) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.examples) < MAX_EXAMPLES:
                self.examples.append(f"{what}: {error}")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.examples += other.examples[: MAX_EXAMPLES - len(self.examples)]


def _show(key) -> str:
    complexity, bits = key
    digits = format(bits, "x")
    return f"(c={complexity}, f=0x{digits[:16]}{'...' if len(digits) > 16 else ''})"


def keys_error(key, *oracle_keys) -> str | None:
    """Mismatch between a (complexity, min_poly bits) key and the oracles'."""
    for other in oracle_keys:
        if other != key:
            return f"key {_show(key)} differs from oracle key {_show(other)}"
    return None


def checked(tally: Tally, what: str, check) -> None:
    """Record check()'s error; an exception is a failure, not a crash."""
    try:
        err = check()
    except Exception:
        err = traceback.format_exc(limit=3).strip()
    tally.record(err, what)


def _prime_power_height(n: int) -> int:
    p = next(d for d in range(2, n + 1) if n % d == 0)
    k = 0
    while n > 1:
        n //= p
        k += 1
    return k


def paper_bound(tag: str, n: int) -> float | None:
    """The paper's metered-operation bound for the family of length n.

    Odd prime powers p^k are bounded by 2N data operations plus k counter
    additions; ``bound_error`` checks the two parts separately.
    """
    two = (n & -n).bit_length() - 1
    odd = n >> two
    if tag == "GamesChan":
        return n + two
    if tag == "Fast3x2n":
        return 7 * (1 << two) + 2 * two
    if tag == "FastPx2n":
        return (odd * odd + 7 * odd + 7) / 4 * (1 << two) + 2 * two
    if tag == "OddPrimePower":
        return 2 * n + _prime_power_height(n)
    return None


def bound_error(tag: str, n: int, meter) -> str | None:
    if tag == "OddPrimePower":
        data = meter.xor_ops + meter.cmp_ops
        if data > 2 * n or meter.counter_ops > _prime_power_height(n):
            return f"{tag} meter {data} data + {meter.counter_ops} counter ops over 2N + n"
        return None
    bound = paper_bound(tag, n)
    if bound is not None and meter.total() > bound:
        return f"{tag} meter {meter.total()} over bound {bound}"
    return None


def report_error(proc: subprocess.CompletedProcess, expected_key) -> str | None:
    """Check one `lcseq.cli compute` process and its report against an oracle key."""
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        report = json.loads(proc.stdout)
        got = (report["complexity"], report["min_poly_bits"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    want = (expected_key[0], format(expected_key[1], "b")[::-1])
    if got != want:
        return f"report {got} differs from gcd_method {want}"
    return None


# ---------------------------------------------------------------------------
# the program's calls, plain or traced


def _key(result):
    return result.key()


class Api:
    """The program calls a workload makes; a tracer wraps each in a span."""

    def __init__(self, seed: int, source: str, tracer=None):
        wrap = tracer.wrap if tracer is not None else (lambda name, fn, **_: fn)
        self.source = source
        self.getrandbits = wrap(
            "rng.getrandbits", SplitMix64(seed).getrandbits, size=lambda a: a[0]
        )
        self.solve = wrap(
            "lincomplex.solve",
            lincomplex.solve,
            size=lambda a: a[0].n,
            note=lambda r: (r.algorithm, r.meter.total()),
        )
        self.gcd_method = wrap("oracle.gcd_method", oracle.gcd_method, size=lambda a: a[0].n)
        self.berlekamp_massey = wrap(
            "oracle.berlekamp_massey", oracle.berlekamp_massey, size=lambda a: a[0].n
        )
        self.key = wrap("result.key", _key)
        self.cli_process = wrap("cli.process", self._cli_process)

    def draw(self, n: int) -> CyclicSeq:
        return CyclicSeq(self.getrandbits(n), n)

    def _cli_process(self, bits: str) -> subprocess.CompletedProcess:
        return run_child(["-m", "lcseq.cli", "compute", "--seq", bits], self.source)


def run_child(args: list[str], source: str) -> subprocess.CompletedProcess:
    """A fresh interpreter importing lcseq from `source`.

    Output is captured: waiting for the pipes to close returns as the child
    exits, where a bare wait with a timeout polls and overshoots by up to
    50 ms.
    """
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=source),
        timeout=120,
    )


# ---------------------------------------------------------------------------
# one sequence of each workload: (latency ns, tag, metered ops, error), where
# the error is None, a message, or DEFER when the workload's finish step
# checks the sequence after the timed loop

DEFER = object()


def step_oracle_mix(api: Api, n: int, late: list):
    t0 = time.perf_counter_ns()
    s = api.draw(n)
    res = api.solve(s)
    err = keys_error(
        api.key(res), api.key(api.gcd_method(s)), api.key(api.berlekamp_massey(s))
    )
    return time.perf_counter_ns() - t0, res.algorithm, res.meter.total(), err


SUBSAMPLE_PER_LENGTH = 2


def step_fast_large(api: Api, n: int, late: list):
    t0 = time.perf_counter_ns()
    s = api.draw(n)
    res = api.solve(s)
    err = bound_error(res.algorithm, n, res.meter)
    elapsed = time.perf_counter_ns() - t0
    # a frozen subsample (the first inputs of each length) also meets
    # gcd_method after the timed loop: gcd takes 160 ms at 2^16
    if sum(1 for item in late if item[0].n == n) < SUBSAMPLE_PER_LENGTH:
        late.append((s, res, err))
        err = DEFER
    return elapsed, res.algorithm, res.meter.total(), err


def finish_fast_large(api: Api, late: list, tally: Tally) -> int:
    for s, res, err in late:
        checked(
            tally,
            f"N={s.n} {s.to_hex_str()[:32]}",
            lambda: err or keys_error(api.key(res), api.key(api.gcd_method(s))),
        )
    return 0


def step_factor_engine(api: Api, n: int, late: list):
    t0 = time.perf_counter_ns()
    s = api.draw(n)
    res = api.solve(s)
    err = keys_error(api.key(res), api.key(api.gcd_method(s)))
    return time.perf_counter_ns() - t0, res.algorithm, res.meter.total(), err


def step_cli_compute(api: Api, n: int, late: list):
    s = api.draw(n)
    bits = s.to_bits_str()
    t0 = time.perf_counter_ns()
    proc = api.cli_process(bits)
    elapsed = time.perf_counter_ns() - t0
    try:
        report = json.loads(proc.stdout)
        tag, ops = report["algorithm"], report["ops"]["total"]
    except (ValueError, KeyError, TypeError):
        tag, ops = "unreadable", 0
    # checked against gcd_method after the loop, outside the timing
    late.append((s, proc))
    return elapsed, tag, ops, DEFER


def finish_cli_compute(api: Api, late: list, tally: Tally) -> int:
    """Check every report; return the number of nonzero exits."""
    for s, proc in late:
        checked(
            tally,
            f"N={s.n} {s.to_hex_str()[:32]}",
            lambda: report_error(proc, api.key(api.gcd_method(s))),
        )
    return sum(1 for _, proc in late if proc.returncode)


STEPS = {
    "oracle-mix": (step_oracle_mix, None),
    "fast-large": (step_fast_large, finish_fast_large),
    "factor-engine": (step_factor_engine, None),
    "cli-compute": (step_cli_compute, finish_cli_compute),
}


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class LoopResult:
    sequences: int
    start_ns: int
    end_ns: int
    latencies_ns: array
    lengths: array  # the length of each latency's sequence
    census: Counter
    meter_ops: int
    meter_bits: int
    tally: Tally
    cli_nonzero: int

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def seq_per_s(self) -> float:
        return self.sequences / (self.wall_ns / 1e9)


def warm_caches(lengths) -> None:
    """In-process twin of setup_s: dispatch and factor every length once."""
    for n in lengths:
        lincomplex.choose_algorithm(n)
        try:
            factor_xn_minus_1(n)
        except UnsupportedPeriod:
            pass


def shuffled(lengths, rng: SplitMix64) -> list[int]:
    deck = list(lengths)
    for i in range(len(deck) - 1, 0, -1):
        j = rng.randrange(i + 1)
        deck[i], deck[j] = deck[j], deck[i]
    return deck


def run_loop(wl: Workload, seed: int, seconds: float, source: str, tracer=None) -> LoopResult:
    """Whole decks until `seconds` have passed and the meter prefix is done."""
    step, finish = STEPS[wl.name]
    api = Api(2 * seed, source, tracer)
    if tracer is not None:
        step = tracer.wrap("workload.seq", step)
    order_rng = SplitMix64(2 * seed + 1)
    tally = Tally()
    census: Counter = Counter()
    latencies = array("q")  # 8 bytes a sample, so peak RSS is the program's
    lengths = array("q")
    late: list = []
    meter_ops = meter_bits = decks = 0
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while decks < wl.meter_decks or time.perf_counter_ns() < deadline:
        for n in shuffled(wl.lengths, order_rng):
            try:
                elapsed, tag, ops, err = step(api, n, late)
            except Exception:
                tally.record(traceback.format_exc(limit=3).strip(), f"N={n}")
                continue
            if err is not DEFER:
                tally.record(err, f"N={n}")
            latencies.append(elapsed)
            lengths.append(n)
            census[tag] += 1
            if decks < wl.meter_decks:
                meter_ops += ops
                meter_bits += n
        decks += 1
    end = time.perf_counter_ns()
    nonzero = finish(api, late, tally) if finish is not None else 0
    return LoopResult(
        len(latencies), start, end, latencies, lengths, census,
        meter_ops, meter_bits, tally, nonzero,
    )
