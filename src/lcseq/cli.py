"""Command-line front end: compute, verify, bench, enumerate.

Reports are JSON on stdout (CSV for bench on request); diagnostics go to
stderr.  Exit codes: 0 success, 1 verification found mismatches, 2
malformed input or flags, among them a --seed outside [0, 2^64) and a flag
the chosen mode would not read (--poly without --algorithm ppp, a bits
--len that disagrees with the bit count, --trials or --seed with verify
--exhaustive, --n-max with verify --n), 3 unsupported period for a forced
non-fallback algorithm or, with --algorithm ppp, a sequence that f^(2^n)
does not generate (f the --poly, N = exponent(f) * 2^n), 4 infeasible
enumeration.

Randomized campaigns draw inputs from SplitMix64 (see _rng) so runs
reproduce bit-for-bit across implementations given the same seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ._rng import SplitMix64
from .cyclicseq import CyclicSeq, LcResult
from .gf2poly import Poly2, UnsupportedPeriod, factor_xn_minus_1, is_irreducible, is_primitive
from .lincomplex import (
    TAG_ODD_COMPOSITE,
    bound_for,
    choose_algorithm,
    games_chan,
    is_fast,
    min_poly_general,
    ppp,
    solve,
    violates_bound,
)
from .oracle import InfeasibleSize, berlekamp_massey, enumerate_by_period, gcd_method

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_INFEASIBLE = 4

class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# report assembly


def _human_factored(deltas) -> str:
    live = [(q, d) for q, d in deltas if d > 0]
    if not live:
        return "1"
    if len(live) == 1 and live[0][1] == 1:
        return live[0][0].to_human()
    return "".join(
        f"({q.to_human()})" + (f"^{d}" if d > 1 else "") for q, d in live
    )


def make_report(s: CyclicSeq, input_format: str, result: LcResult, elapsed_ns: int) -> dict:
    tag = result.algorithm
    bound = bound_for(tag, s.n)
    ops = result.meter.as_dict()
    within = None if bound is None else not violates_bound(tag, s.n, result.meter)
    if result.deltas is None:
        deltas, human = None, result.min_poly.to_human()
    else:
        deltas = [
            {"factor_bits": q.to_bits_str(), "factor_human": q.to_human(), "exponent": d}
            for q, d in result.deltas
        ]
        human = _human_factored(result.deltas)
    return {
        "n": s.n,
        "input_format": input_format,
        "algorithm": tag,
        "complexity": result.complexity,
        "min_poly_bits": result.min_poly.to_bits_str(),
        "min_poly_human": human,
        "deltas": deltas,
        "ops": ops,
        "bound": bound,
        "within_bound": within,
        "elapsed_ns": elapsed_ns,
    }


# ---------------------------------------------------------------------------
# compute


def _read_sequence(args) -> tuple[CyclicSeq, str]:
    if (args.seq is None) == (getattr(args, "infile", None) is None):
        raise _UsageError("exactly one of --seq and --in is required")
    text = args.seq
    if text is None:
        try:
            with open(args.infile, "r", encoding="ascii") as fh:
                text = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read {args.infile}: {exc}")
    try:
        if args.format == "bits":
            s = CyclicSeq.from_bits_str(text)
            if args.len not in (None, s.n):
                raise _UsageError(f"--len {args.len} disagrees with the {s.n} bits given")
            return s, "bits"
        if args.len is None:
            raise _UsageError("--len is required with --format hex")
        return CyclicSeq.from_hex_str(text, args.len), "hex"
    except ValueError as exc:
        raise _UsageError(str(exc))


def _read_poly(text: str, test, adjective: str) -> Poly2:
    """The polynomial given as --poly bits; it must pass test (irreducible or primitive)."""
    try:
        f = Poly2.from_bits_str(text)
        passed = f.degree >= 1 and test(f)  # DegreeCapExceeded above 24
    except ValueError as exc:
        raise _UsageError(str(exc))
    if not passed:
        raise _UsageError(f"{f.to_human()} is not {adjective}")
    if not f.bits & 1:
        raise _UsageError(f"{f.to_human()} has constant term 0, so it has no exponent")
    return f


def _run_algorithm(name: str, s: CyclicSeq, f: Poly2 | None) -> LcResult:
    if name == "ppp":
        return ppp(f, s)[1]
    if name == "general":
        return min_poly_general(s, factor_xn_minus_1(s.n))
    if name == "fast" and not is_fast(choose_algorithm(s.n).tag):
        raise UnsupportedPeriod(s.n, "no fast family applies")
    run = {"auto": solve, "fast": solve, "games-chan": games_chan,
           "bm": berlekamp_massey, "gcd": gcd_method}  # argparse admits no other name
    return run[name](s)


def cmd_compute(args) -> int:
    s, fmt = _read_sequence(args)
    f = None
    if args.algorithm == "ppp":
        if args.poly is None:
            raise _UsageError("--algorithm ppp requires --poly")
        f = _read_poly(args.poly, is_irreducible, "irreducible")
    elif args.poly is not None:
        raise _UsageError("--poly applies only to --algorithm ppp")
    t0 = time.perf_counter_ns()
    try:
        result = _run_algorithm(args.algorithm, s, f)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    elapsed = time.perf_counter_ns() - t0
    report = make_report(s, fmt, result, elapsed)
    if args.plain:
        print(f"n          : {report['n']}")
        print(f"algorithm  : {report['algorithm']}")
        print(f"complexity : {report['complexity']}")
        print(f"min_poly   : {report['min_poly_human']}  (bits: {report['min_poly_bits']})")
        print(f"ops        : {report['ops']}")
        if report["bound"] is not None:
            print(f"bound      : {report['bound']}  within: {report['within_bound']}")
    else:
        print(json.dumps(report, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / bench campaigns


# (first k, k-th length) of each family; composite is the finite one
_FAMILIES = {
    "pow2": (1, lambda k: 1 << k),
    "3x2n": (0, lambda k: 3 << k),
    "5x2n": (0, lambda k: 5 << k),
    "p^n": (1, lambda k: 3**k),
    "composite": None,
}

# Longest sequence a campaign draws, as --exhaustive caps n at 20: the draw
# and the oracles are quadratic in it, so a much longer one runs for hours.
_CAMPAIGN_BIT_CAP = 1 << 20


def _campaign_length(n: int) -> int:
    if n > _CAMPAIGN_BIT_CAP:
        raise _UsageError(f"campaign length {n} exceeds the cap of 2^20 bits")
    return n


def _family_lengths(family: str, n_max: int) -> list[int]:
    if family == "composite":
        # the support rule admits 15 ... 585
        lengths = [m for m in range(5, 4098, 2) if choose_algorithm(m).tag == TAG_ODD_COMPOSITE]
        if len(lengths) < n_max:
            raise _UsageError(f"family 'composite' has only {len(lengths)} lengths, not {n_max}")
        return lengths[:n_max]
    first, length = _FAMILIES[family]
    # stops at the first length over the cap, before building the next one
    return [_campaign_length(length(k)) for k in range(first, n_max + 1)]


def _draws(args):
    """(length, its inputs) in campaign order, every draw from one generator.

    Refuses the flags the mode does not read and fills in the defaults of
    those it does, before the first draw.  Use up each length's inputs
    before taking the next length.
    """
    if (args.n is None) == (args.family is None):
        raise _UsageError("exactly one of --n and --family is required")
    if args.exhaustive and args.n is None:
        raise _UsageError("--exhaustive needs --n")
    if args.n is not None and args.n_max is not None:
        raise _UsageError("--n-max applies to --family, not --n")
    if args.exhaustive:
        if args.trials is not None or args.seed is not None:
            raise _UsageError("--exhaustive checks every input: --trials and --seed do not apply")
        if args.n > 20:
            raise _UsageError("exhaustive verification caps n at 20")
        return iter([(args.n, (CyclicSeq(bits, args.n) for bits in range(1 << args.n)))])
    for name, value in (("n_max", 8), ("trials", 100), ("seed", 0)):
        if getattr(args, name) is None:
            setattr(args, name, value)
    if not 0 <= args.seed < 1 << 64:
        raise _UsageError("--seed must be in [0, 2^64): SplitMix64 keeps 64 bits of state")
    if args.n is not None:
        lengths = [_campaign_length(args.n)]
    else:
        lengths = _family_lengths(args.family, args.n_max)
    rng = SplitMix64(args.seed)
    return ((n, (CyclicSeq(rng.getrandbits(n), n) for _ in range(args.trials))) for n in lengths)


def cmd_verify(args) -> int:
    lengths = []
    checked = 0
    mismatches = 0
    mismatch_examples: list[str] = []
    bound_violations = 0
    bound_examples: list[str] = []
    for n, inputs in _draws(args):
        lengths.append(n)
        for s in inputs:
            res = solve(s)
            checked += 1
            if res.key() != gcd_method(s).key() or res.key() != berlekamp_massey(s).key():
                mismatches += 1
                if mismatches <= 5:
                    mismatch_examples.append(s.to_bits_str())
            if violates_bound(res.algorithm, s.n, res.meter):
                bound_violations += 1
                if bound_violations <= 5:
                    bound_examples.append(s.to_bits_str())

    scope = {"n": args.n} if args.n is not None else {"family": args.family, "lengths": lengths}
    summary = {
        **scope,
        "checked": checked,
        "mismatches": mismatches,
        "mismatch_examples": mismatch_examples,
        "bound_violations": bound_violations,
        "bound_violation_examples": bound_examples,
        "seed": args.seed,  # None when exhaustive
    }
    print(json.dumps(summary, indent=2))
    return EXIT_MISMATCH if (mismatches or bound_violations) else EXIT_OK


def cmd_bench(args) -> int:
    rows = []
    for n, inputs in _draws(args):
        t0 = time.perf_counter_ns()
        totals = [solve(s).meter.total() for s in inputs]
        elapsed = time.perf_counter_ns() - t0
        tag = choose_algorithm(n).tag
        rows.append(
            {
                "family": args.family,
                "N": n,
                "algorithm": tag,
                "trials": args.trials,
                "ops_max": max(totals),
                "ops_mean": sum(totals) / len(totals),
                "bound": bound_for(tag, n),
                "beta_max": max(totals) / n,
                "elapsed_ns": elapsed,
            }
        )
    if args.format == "csv":
        cols = list(rows[0].keys()) if rows else []
        print(",".join(cols))
        for row in rows:
            print(",".join(str(row[c]) for c in cols))
    else:
        print(json.dumps(rows, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    f = _read_poly(args.poly, is_primitive, "primitive")
    k = f.degree
    censuses = {0: {1: 1}}
    # largest power first: enumerate_by_period refuses it before any work
    for power in range(args.max_power, 0, -1):
        censuses[power] = enumerate_by_period(f, power)
    rows = []
    all_pass = True
    for power in range(1, args.max_power + 1):
        i = (power - 1).bit_length()  # ceil(log2(power))
        period = ((1 << k) - 1) << i
        formula = 1 << ((power - 1) * k - i)
        brute = censuses[power].get(period, 0) - censuses[power - 1].get(period, 0)
        ok = brute == formula
        all_pass = all_pass and ok
        rows.append(
            {
                "l": power,
                "i": i,
                "period": period,
                "formula": formula,
                "brute_force": brute,
                "pass": ok,
            }
        )
    print(json.dumps({"poly": f.to_bits_str(), "rows": rows, "all_pass": all_pass}, indent=2))
    return EXIT_OK if all_pass else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument plumbing


def _positive_int(text: str) -> int:
    """argparse type for counts: a run over zero inputs must not pass."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcseq",
        description="Linear complexity of periodic binary sequences, with "
        "metered fast algorithms and differential verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="complexity and minimal polynomial of one sequence")
    pc.add_argument("--seq", help="sequence literal (s_0 first)")
    pc.add_argument("--in", dest="infile", help="file with one line of bits/hex digits")
    pc.add_argument("--format", choices=("bits", "hex"), default="bits")
    pc.add_argument("--len", type=int, help="cycle length (required for hex)")
    pc.add_argument(
        "--algorithm",
        choices=("auto", "games-chan", "ppp", "general", "fast", "bm", "gcd"),
        default="auto",
    )
    pc.add_argument("--poly", help="connection polynomial bits for --algorithm ppp")
    pc.add_argument("--plain", action="store_true", help="plain text instead of JSON")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="differential campaign against both oracles")
    pv.add_argument("--n", type=_positive_int, help="single cycle length")
    pv.add_argument("--family", choices=_FAMILIES, help="length family ('p^n' uses p=3)")
    pb = sub.add_parser("bench", help="metered operation counts vs the paper bounds")
    pb.add_argument("--family", choices=_FAMILIES, required=True)
    for campaign in (pv, pb):  # None when not given; see _draws
        campaign.add_argument("--n-max", type=_positive_int, dest="n_max")
        campaign.add_argument("--trials", type=_positive_int)
        campaign.add_argument("--seed", type=int)
    pv.add_argument("--exhaustive", action="store_true", help="all 2^n inputs (with --n)")
    pv.set_defaults(func=cmd_verify)
    pb.add_argument("--format", choices=("json", "csv"), default="json")
    pb.set_defaults(func=cmd_bench, n=None, exhaustive=False)

    pe = sub.add_parser("enumerate", help="period census of powers of a primitive polynomial")
    pe.add_argument("--poly", required=True, help="polynomial bits, constant term first")
    pe.add_argument("--max-power", type=_positive_int, required=True, dest="max_power")
    pe.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InfeasibleSize as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
