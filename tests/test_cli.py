import json
import subprocess
import sys
from pathlib import Path

import pytest

import lcseq
from lcseq import cli
from lcseq.cli import main, make_report
from lcseq.cyclicseq import CyclicSeq, OpMeter
from lcseq.gf2poly import Poly2
from lcseq.lincomplex import TAG_ODD_PRIME_POWER, violates_bound
from lcseq.oracle import LcResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# compute


def test_compute_gcd_fixture(capsys):
    # fixture value produced by the gcd oracle (s^6(x) = x^4+x^3+1 is
    # irreducible and coprime to x^6+1, so the full x^6+1 remains)
    rep = run_json(capsys, "compute", "--seq", "100110", "--format", "bits", "--algorithm", "gcd")
    assert rep["complexity"] == 6
    assert rep["min_poly_bits"] == "1000001"
    assert rep["algorithm"] == "GcdMethod"
    assert rep["n"] == 6


def test_compute_auto_all_ones(capsys):
    rep = run_json(capsys, "compute", "--seq", "111", "--algorithm", "auto")
    assert rep["complexity"] == 1
    assert rep["min_poly_human"] == "x+1"
    assert rep["within_bound"] is True


def test_compute_fast_fixture(capsys):
    rep = run_json(capsys, "compute", "--seq", "000101", "--algorithm", "fast")
    assert rep["complexity"] == 4
    assert rep["min_poly_bits"] == "10101"  # (x^2+x+1)^2 = x^4+x^2+1
    assert rep["min_poly_human"] == "(x^2+x+1)^2"
    assert rep["algorithm"] == "Fast3x2n"
    assert rep["within_bound"] is True


def test_compute_hex_input(capsys):
    rep = run_json(
        capsys, "compute", "--seq", "a1", "--format", "hex", "--len", "8",
        "--algorithm", "gcd",
    )
    assert rep["n"] == 8
    assert rep["input_format"] == "hex"
    bits_rep = run_json(
        capsys, "compute", "--seq", "01011000", "--len", "8", "--algorithm", "gcd"
    )
    assert rep["complexity"] == bits_rep["complexity"]


def test_compute_from_file(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("10011010\n")
    rep = run_json(capsys, "compute", "--in", str(path), "--algorithm", "games-chan")
    assert rep["complexity"] == 7
    assert rep["ops"]["total"] <= rep["bound"] == 8 + 3


def test_compute_plain_output(capsys):
    code, out, err = run(capsys, "compute", "--seq", "111", "--plain")
    assert code == 0
    assert "complexity : 1" in out


def test_compute_malformed_input_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "compute", "--seq", "10x1")
    assert code == 2 and err
    code, out, err = run(capsys, "compute", "--seq", "a1", "--format", "hex")
    assert code == 2  # missing --len
    code, out, err = run(capsys, "compute", "--seq", "111", "--algorithm", "ppp")
    assert code == 2  # missing --poly
    code, out, err = run(capsys, "compute", "--seq", "111", "--algorithm", "ppp", "--poly", "1x")
    assert code == 2 and err  # malformed --poly
    for poly in ("0", "1", "011", "101"):  # constant or reducible --poly
        code, out, err = run(
            capsys, "compute", "--seq", "0101", "--algorithm", "ppp", "--poly", poly
        )
        assert code == 2 and "not irreducible" in err and not out, poly
    # x is irreducible but has no exponent
    code, out, err = run(capsys, "compute", "--seq", "0101", "--algorithm", "ppp", "--poly", "01")
    assert code == 2 and "constant term 0" in err and not out
    poly = "1" + "0" * 24 + "1"  # degree 25, above the irreducibility cap
    code, out, err = run(capsys, "compute", "--seq", "0101", "--algorithm", "ppp", "--poly", poly)
    assert code == 2 and "cap" in err and not out
    code, out, err = run(capsys, "compute")
    assert code == 2  # neither --seq nor --in
    path = tmp_path / "seq.txt"
    path.write_bytes(b"01\xff1\n")  # not ASCII
    code, out, err = run(capsys, "compute", "--in", str(path))
    assert code == 2 and "error:" in err and not out
    # a flag the chosen path would not read
    for argv in (
        ("--seq", "10", "--format", "bits", "--len", "5"),
        ("--seq", "0101", "--poly", "111"),
        ("--seq", "0101", "--algorithm", "gcd", "--poly", "1x"),
    ):
        code, out, err = run(capsys, "compute", *argv)
        assert code == 2 and "error:" in err and not out, argv


def test_report_within_bound_is_violates_bound():
    # odd prime powers are bounded by 2N data ops plus one counter per
    # level: a run with 2N + 1 data ops and no counter stays under the
    # summed bound 2N + n but breaks the paper's split bound
    s = CyclicSeq(0, 9)
    meter = OpMeter(xor_ops=2 * 9 + 1)
    res = LcResult(TAG_ODD_PRIME_POWER, meter, min_poly=Poly2(1))
    rep = make_report(s, "bits", res, 0)
    assert rep["ops"]["total"] <= rep["bound"] == 20
    assert violates_bound(TAG_ODD_PRIME_POWER, 9, meter)
    assert rep["within_bound"] is False


def test_compute_unsupported_exit_3(capsys):
    code, out, err = run(capsys, "compute", "--seq", "000101", "--algorithm", "games-chan")
    assert code == 3 and err
    code, out, err = run(capsys, "compute", "--seq", "0011010", "--algorithm", "fast")
    assert code == 3  # N=7 has no fast family
    code, out, err = run(capsys, "compute", "--seq", "0011010", "--algorithm", "general")
    assert code == 3
    # N = 3 = exponent(x^2+x+1) * 2^0, but x^2+x+1 does not annihilate 010
    code, out, err = run(capsys, "compute", "--seq", "010", "--algorithm", "ppp", "--poly", "111")
    assert code == 3 and not out
    assert err == "error: sequence is not generated by (x^2+x+1)^1\n"


def test_compute_ppp_with_poly(capsys):
    rep = run_json(
        capsys, "compute", "--seq", "000101", "--algorithm", "ppp", "--poly", "111"
    )
    assert rep["complexity"] == 4
    assert rep["algorithm"] == "PPP"


def test_stdout_carries_only_json(capsys):
    code, out, err = run(capsys, "compute", "--seq", "111")
    assert code == 0
    json.loads(out)  # no diagnostics interleaved


def test_compute_byte_stable_given_same_flags(capsys):
    outs = []
    for _ in range(2):
        code, out, err = run(capsys, "compute", "--seq", "100110", "--algorithm", "gcd")
        assert code == 0
        rep = json.loads(out)
        rep["elapsed_ns"] = 0  # timing is the only run-dependent field
        outs.append(json.dumps(rep, indent=2))
    assert outs[0] == outs[1]


def _delta(bits, human, exponent):
    return {"factor_bits": bits, "factor_human": human, "exponent": exponent}


def _ops(xor, cmp, counter):
    return {"xor": xor, "cmp": cmp, "counter": counter, "total": xor + cmp + counter}


def _golden(n, algorithm, complexity, min_poly_bits, min_poly_human, deltas, ops,
            bound=None, within_bound=None):
    return {
        "n": n, "input_format": "bits", "algorithm": algorithm,
        "complexity": complexity, "min_poly_bits": min_poly_bits,
        "min_poly_human": min_poly_human, "deltas": deltas, "ops": ops,
        "bound": bound, "within_bound": within_bound,
    }


_LEVELS_15 = [
    _delta("11", "x+1", 0),
    _delta("111", "x^2+x+1", 1),
    _delta("11111", "x^4+x^3+x^2+x+1", 1),
    _delta("11001", "x^4+x+1", 1),
    _delta("10011", "x^4+x^3+1", 1),
]
_HUMAN_15 = "(x^2+x+1)(x^4+x^3+x^2+x+1)(x^4+x+1)(x^4+x^3+1)"

# Full compute reports (minus elapsed_ns), one per dispatched tag; the
# FastPx2n bound is a float in the JSON.
_GOLDEN_AUTO = [
    ("10011010", _golden(
        8, "GamesChan", 7, "11111111", "(x+1)^7", [_delta("11", "x+1", 7)],
        _ops(7, 1, 2), 11, True)),
    ("011010001101", _golden(
        12, "Fast3x2n", 11, "111111111111", "(x^2+x+1)^4(x+1)^3",
        [_delta("111", "x^2+x+1", 4), _delta("11", "x+1", 3)],
        _ops(18, 1, 3), 32, True)),
    ("10110011100011110000", _golden(
        20, "FastPx2n", 17, "110011001100110011", "(x^4+x^3+x^2+x+1)^4(x+1)",
        [_delta("11111", "x^4+x^3+x^2+x+1", 4), _delta("11", "x+1", 1)],
        _ops(40, 1, 2), 71.0, True)),
    ("110100111", _golden(
        9, "OddPrimePower", 8, "111111111", "(x^2+x+1)(x^6+x^3+1)",
        [_delta("11", "x+1", 0), _delta("111", "x^2+x+1", 1),
         _delta("1001001", "x^6+x^3+1", 1)],
        _ops(16, 0, 2), 20, True)),
    ("100101110010011", _golden(
        15, "OddComposite", 14, "111111111111111", _HUMAN_15, _LEVELS_15,
        _ops(70, 0, 0))),
    ("101100111000101101", _golden(
        18, "General", 16, "10101010101010101", "(x^2+x+1)^2(x^6+x^3+1)^2",
        [_delta("11", "x+1", 0), _delta("111", "x^2+x+1", 2),
         _delta("1001001", "x^6+x^3+1", 2)],
        _ops(52, 0, 2))),
    ("0011010", _golden(
        7, "OracleFallback", 4, "10111", "x^4+x^3+x^2+1", None, _ops(0, 0, 0))),
]

_GOLDEN_FORCED = [
    (("100101110010011", "--algorithm", "general"), _golden(
        15, "General", 14, "111111111111111", _HUMAN_15, _LEVELS_15,
        _ops(70, 0, 0))),
    (("100110", "--algorithm", "gcd"), _golden(
        6, "GcdMethod", 6, "1000001", "x^6+1", None, _ops(0, 0, 0))),
    (("011010001101", "--algorithm", "bm"), _golden(
        12, "BerlekampMassey", 11, "111111111111",
        "x^11+x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1", None, _ops(0, 0, 0))),
    (("000101", "--algorithm", "ppp", "--poly", "111"), _golden(
        6, "PPP", 4, "10101", "(x^2+x+1)^2", [_delta("111", "x^2+x+1", 2)],
        _ops(15, 0, 1))),
]


# The zero sequence at one length per dispatch path: complexity 0 and the
# empty product "1", also where the report lists every factor's exponent.
_GOLDEN_ZERO = [
    ("0000", _golden(
        4, "GamesChan", 0, "1", "1", [_delta("11", "x+1", 0)], _ops(3, 1, 0), 6, True)),
    ("000000", _golden(
        6, "Fast3x2n", 0, "1", "1", [_delta("111", "x^2+x+1", 0), _delta("11", "x+1", 0)],
        _ops(7, 0, 0), 16, True)),
    ("0" * 15, _golden(
        15, "OddComposite", 0, "1", "1", [{**d, "exponent": 0} for d in _LEVELS_15],
        _ops(42, 0, 0))),
    ("0" * 7, _golden(7, "OracleFallback", 0, "1", "1", None, _ops(0, 0, 0))),
]


def _report_text(capsys, *argv):
    rep = run_json(capsys, "compute", "--seq", *argv)
    del rep["elapsed_ns"]
    return json.dumps(rep)


@pytest.mark.parametrize(
    "seq, want",
    _GOLDEN_AUTO + _GOLDEN_ZERO,
    ids=[want["algorithm"] for _, want in _GOLDEN_AUTO]
    + [want["algorithm"] + "-zero" for _, want in _GOLDEN_ZERO],
)
def test_compute_golden_report_per_tag(capsys, seq, want):
    assert _report_text(capsys, seq) == json.dumps(want)
    if want["algorithm"] in ("General", "OracleFallback"):
        assert run(capsys, "compute", "--seq", seq, "--algorithm", "fast")[0] == 3
    else:
        assert _report_text(capsys, seq, "--algorithm", "fast") == json.dumps(want)


@pytest.mark.parametrize(
    "argv, want", _GOLDEN_FORCED, ids=[argv[2] for argv, _ in _GOLDEN_FORCED]
)
def test_compute_golden_report_forced_algorithm(capsys, argv, want):
    assert _report_text(capsys, *argv) == json.dumps(want)


# ---------------------------------------------------------------------------
# verify


def test_verify_exhaustive_n12(capsys):
    rep = run_json(capsys, "verify", "--n", "12", "--exhaustive")
    assert rep["checked"] == 4096
    assert rep["mismatches"] == 0
    assert rep["bound_violations"] == 0


def test_verify_exhaustive_n9(capsys):
    rep = run_json(capsys, "verify", "--n", "9", "--exhaustive")
    assert rep["checked"] == 512
    assert rep["mismatches"] == 0


def test_verify_family_campaign(capsys):
    rep = run_json(
        capsys, "verify", "--family", "3x2n", "--n-max", "6", "--trials", "40",
        "--seed", "7",
    )
    assert rep["mismatches"] == 0
    assert rep["bound_violations"] == 0
    assert rep["checked"] == 7 * 40


def test_verify_reproducible(capsys):
    outs = []
    for _ in range(2):
        code, out, err = run(
            capsys, "verify", "--family", "5x2n", "--n-max", "4", "--trials", "25",
            "--seed", "99",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_flag_validation(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 2
    code, out, err = run(capsys, "verify", "--n", "8", "--family", "pow2")
    assert code == 2
    # counts that are not positive: no traceback, no empty pass
    for argv in (
        ("verify", "--n", "0"),
        ("verify", "--n", "5", "--trials", "-3"),
        ("verify", "--family", "pow2", "--n-max", "0"),
        ("bench", "--family", "pow2", "--trials", "0"),
        ("bench", "--family", "pow2", "--n-max", "0"),
        ("enumerate", "--poly", "111", "--max-power", "0"),
        # above the irreducibility cap of degree 24
        ("enumerate", "--poly", "1" + "0" * 24 + "1", "--max-power", "1"),
        # an exhaustive run covers one length; a family run is seeded
        ("verify", "--family", "pow2", "--exhaustive", "--n-max", "2", "--trials", "3"),
        ("verify", "--n", "4", "--exhaustive", "--trials", "5"),
        ("verify", "--n", "4", "--exhaustive", "--seed", "3"),
        ("verify", "--n", "21", "--exhaustive"),
        ("verify", "--n", "6", "--n-max", "3"),
        # SplitMix64 keeps 64 bits of state: -1 would draw what 2^64 - 1 draws
        ("verify", "--n", "5", "--seed", "-1", "--trials", "2"),
        ("verify", "--n", "5", "--seed", str(1 << 64), "--trials", "2"),
        ("bench", "--family", "pow2", "--n-max", "2", "--seed", "-1", "--trials", "2"),
        ("bench", "--family", "pow2", "--n-max", "2", "--seed", str(1 << 64), "--trials", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "error" in err and not out, argv
    # both ends of the seed range are accepted
    for seed in (0, (1 << 64) - 1):
        code, out, err = run(capsys, "verify", "--n", "5", "--seed", str(seed), "--trials", "2")
        assert code == 0 and json.loads(out)["seed"] == seed


def _verify_summary(scope, checked, seed):
    return {
        **scope, "checked": checked, "mismatches": 0, "mismatch_examples": [],
        "bound_violations": 0, "bound_violation_examples": [], "seed": seed,
    }


# One summary per campaign mode, and the first five inputs it draws: a
# bound check that always fails lists them in draw order.
_GOLDEN_VERIFY = {
    "exhaustive": (
        ("--n", "6", "--exhaustive"),
        _verify_summary({"n": 6}, 64, None),
        ["000000", "100000", "010000", "110000", "001000"]),
    "n": (
        ("--n", "10", "--trials", "5", "--seed", "3"),
        _verify_summary({"n": 10}, 5, 3),
        ["1011011111", "1001000110", "1000000010", "1111001110", "0110100110"]),
    "family": (
        ("--family", "5x2n", "--n-max", "3", "--trials", "4", "--seed", "11"),
        _verify_summary({"family": "5x2n", "lengths": [5, 10, 20, 40]}, 16, 11),
        ["10111", "10000", "10110", "00001", "0010001110"]),
}


@pytest.mark.parametrize("mode", list(_GOLDEN_VERIFY))
def test_verify_golden_summary_per_mode(capsys, monkeypatch, mode):
    argv, want, first_drawn = _GOLDEN_VERIFY[mode]
    code, out, err = run(capsys, "verify", *argv)
    assert code == 0 and out == json.dumps(want, indent=2) + "\n"
    monkeypatch.setattr(cli, "violates_bound", lambda tag, n, meter: True)
    code, out, err = run(capsys, "verify", *argv)
    rep = json.loads(out)
    assert code == 1 and rep["bound_violations"] == want["checked"]
    assert rep["bound_violation_examples"] == first_drawn
    # an oracle that disagrees on every input: the mismatch branch
    monkeypatch.undo()
    # x^2 has constant term 0, so its key (2, 4) is no minimal polynomial's
    wrong = LcResult("Wrong", OpMeter(), min_poly=Poly2(0b100))
    monkeypatch.setattr(cli, "gcd_method", lambda s: wrong)
    code, out, err = run(capsys, "verify", *argv)
    rep = json.loads(out)
    assert code == 1 and rep["mismatches"] == want["checked"]
    assert rep["mismatch_examples"] == first_drawn and rep["bound_violations"] == 0


def test_composite_family_runs_out(capsys):
    # the support rule admits 8 OddComposite lengths (15 ... 585)
    for command in ("verify", "bench"):
        code, out, err = run(
            capsys, command, "--family", "composite", "--n-max", "9", "--trials", "1"
        )
        assert code == 2 and "only 8 lengths" in err and not out, command
    rep = run_json(capsys, "verify", "--family", "composite", "--n-max", "8", "--trials", "1")
    assert rep["lengths"] == [15, 33, 39, 45, 65, 117, 195, 585]
    rows = run_json(capsys, "bench", "--family", "composite", "--n-max", "8", "--trials", "1")
    assert rows[-1]["N"] == 585


def test_campaign_length_cap_exit_2(capsys):
    # each would first draw a sequence of 2^21, 3^13 or 10^12 bits
    for argv in (
        ("bench", "--family", "pow2", "--n-max", "60"),
        ("verify", "--family", "p^n", "--n-max", "30"),
        ("verify", "--n", str(10**12)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "exceeds the cap of 2^20 bits" in err and not out, argv


# ---------------------------------------------------------------------------
# bench


def test_bench_bound_columns(capsys):
    rows = run_json(
        capsys, "bench", "--family", "pow2", "--n-max", "10", "--trials", "5",
        "--seed", "1",
    )
    row = next(r for r in rows if r["N"] == 1024)
    assert row["bound"] == 1024 + 10
    assert row["ops_max"] <= row["bound"]

    rows = run_json(
        capsys, "bench", "--family", "3x2n", "--n-max", "10", "--trials", "5",
        "--seed", "1",
    )
    row = next(r for r in rows if r["N"] == 3 * 1024)
    assert row["bound"] == 7 * 1024 + 20

    rows = run_json(
        capsys, "bench", "--family", "5x2n", "--n-max", "10", "--trials", "5",
        "--seed", "1",
    )
    row = next(r for r in rows if r["N"] == 5 * 1024)
    assert row["bound"] == 16.75 * 1024 + 20
    assert row["beta_max"] <= row["bound"] / row["N"]


_GOLDEN_BENCH = {
    "pow2": (3, {"family": "pow2", "N": 8, "algorithm": "GamesChan", "trials": 3,
                 "ops_max": 10, "ops_mean": 10.0, "bound": 11, "beta_max": 1.25}),
    "3x2n": (4, {"family": "3x2n", "N": 24, "algorithm": "Fast3x2n", "trials": 3,
                 "ops_max": 48, "ops_mean": 47.0, "bound": 62, "beta_max": 2.0}),
    "5x2n": (4, {"family": "5x2n", "N": 40, "algorithm": "FastPx2n", "trials": 3,
                 "ops_max": 95, "ops_mean": 88.0, "bound": 140.0, "beta_max": 2.375}),
    "p^n": (3, {"family": "p^n", "N": 27, "algorithm": "OddPrimePower", "trials": 3,
                "ops_max": 55, "ops_mean": 55.0, "bound": 57,
                "beta_max": 2.037037037037037}),
    "composite": (3, {"family": "composite", "N": 39, "algorithm": "OddComposite",
                      "trials": 3, "ops_max": 330, "ops_mean": 330.0, "bound": None,
                      "beta_max": 8.461538461538462}),
}


@pytest.mark.parametrize("family", list(_GOLDEN_BENCH))
def test_bench_golden_row_per_family(capsys, family):
    rows = run_json(
        capsys, "bench", "--family", family, "--n-max", "3", "--trials", "3",
        "--seed", "11",
    )
    count, want = _GOLDEN_BENCH[family]
    assert len(rows) == count
    last = rows[-1]
    del last["elapsed_ns"]
    assert json.dumps(last) == json.dumps(want)


def test_bench_csv(capsys):
    code, out, err = run(
        capsys, "bench", "--family", "pow2", "--n-max", "3", "--trials", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_x2x1(capsys):
    rep = run_json(capsys, "enumerate", "--poly", "111", "--max-power", "2")
    rows = {r["l"]: r for r in rep["rows"]}
    assert rows[1] == {"l": 1, "i": 0, "period": 3, "formula": 1, "brute_force": 1, "pass": True}
    assert rows[2]["formula"] == 2 and rows[2]["brute_force"] == 2 and rows[2]["pass"]
    assert rep["all_pass"] is True


def test_enumerate_cubic(capsys):
    rep = run_json(capsys, "enumerate", "--poly", "1101", "--max-power", "2")
    rows = {r["l"]: r for r in rep["rows"]}
    assert rows[2]["formula"] == 4 and rows[2]["brute_force"] == 4


def test_enumerate_rejects_non_primitive(capsys):
    code, out, err = run(capsys, "enumerate", "--poly", "11111", "--max-power", "2")
    assert code == 2 and err
    # x: its shift map is not a bijection, so an orbit walk would not return
    code, out, err = run(capsys, "enumerate", "--poly", "01", "--max-power", "1")
    assert code == 2 and "error:" in err and not out


def test_enumerate_infeasible_exit_4(capsys):
    code, out, err = run(capsys, "enumerate", "--poly", "111", "--max-power", "11")
    assert code == 4 and not out
    assert err == "error: enumerate_by_period caps degree * power at 20\n"


# ---------------------------------------------------------------------------
# packaging


# the standard-library modules lcseq imports by name; a new one goes here only
# with its measured cost to every compute process's start-up
_STDLIB_IMPORTS = ("__future__", "argparse", "dataclasses", "functools", "json", "math", "sys",
                   "time", "typing")


def test_cli_imports_only_the_standard_library():
    # a bare interpreter importing lcseq's named stdlib modules loads a set M;
    # import lcseq.cli may load only M and lcseq.*, so a third-party module or
    # any other stdlib one (array, an extension module, costs about 0.4 ms)
    # fails here.  -S keeps site hooks (.pth files) from importing third-party
    # modules; -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps .pyc files out of src/
    source = str(Path(lcseq.__file__).resolve().parents[1])
    probes = (
        f"import sys, {', '.join(_STDLIB_IMPORTS)}; print(*sys.modules)",
        f"import sys; sys.path.insert(0, {source!r}); import lcseq.cli; print(*sys.modules)",
    )
    loaded = []
    for code in probes:
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        loaded.append(set(proc.stdout.split()))
    baseline, cli = loaded
    assert "lcseq.cli" in cli
    assert sorted(name for name in cli - baseline if name.split(".")[0] != "lcseq") == []


_CACHE_PROBE = """
import json, sys
sys.path.insert(0, {source!r})
import lcseq.cli
from lcseq import gf2poly, lincomplex
caches = {{name: fn for module in (gf2poly, lincomplex)
          for name, fn in vars(module).items() if hasattr(fn, "cache_info")}}
after_import = {{name: fn.cache_info().currsize for name, fn in caches.items()}}
for n in range(2, 2401):
    lincomplex.choose_algorithm(n)
after_dispatch = {{name: fn.cache_info().currsize for name, fn in caches.items()}}
print(json.dumps([after_import, after_dispatch]))
"""


def test_dispatch_is_number_theory_only():
    # importing the CLI fills no cache, and choosing an algorithm factors no
    # polynomial: both stay off the one-off cost every compute process pays
    source = str(Path(lcseq.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", _CACHE_PROBE.format(source=source)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_dispatch = json.loads(proc.stdout)
    assert "choose_algorithm" in after_import and "factor_xn_minus_1" in after_import
    assert set(after_import.values()) == {0}, after_import
    factoring = ("factor_xn_minus_1", "_cyclotomic_factors", "_remainder_tree", "_level_plan",
                 "_exponent_int", "_is_irreducible_int")
    assert {name: after_dispatch[name] for name in factoring} == dict.fromkeys(factoring, 0)
