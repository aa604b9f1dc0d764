import pytest

import lcseq.oracle
from lcseq._rng import SplitMix64
from lcseq.cyclicseq import CyclicSeq, apply_poly
from lcseq.gf2poly import (
    Poly2,
    _divrem_int,
    _gcd_int,
    _mod_int,
    _mul_int,
    exponent,
    gcd,
    is_irreducible,
    x_pow_n_minus_1,
)
from lcseq.oracle import (
    InfeasibleSize,
    berlekamp_massey,
    enumerate_by_period,
    gcd_method,
    msequence,
    sequence_family,
)

S = CyclicSeq.from_bits_str
P = Poly2.from_bits_str


def canonical(s: CyclicSeq) -> str:
    return min(s.rotated(j).to_bits_str() for j in range(s.n))


def test_gcd_method_examples():
    r = gcd_method(S("1111"))
    assert (r.complexity, r.min_poly) == (1, P("11"))

    r = gcd_method(S("10011010"))
    assert r.complexity == 7
    assert r.min_poly == P("11") ** 7

    r = gcd_method(S("011"))
    assert (r.complexity, r.min_poly) == (2, P("111"))


def test_gcd_method_zero_convention():
    r = gcd_method(S("0000"))
    assert (r.complexity, r.min_poly) == (0, Poly2(1))


def test_bm_examples():
    assert berlekamp_massey(S("011")).key() == gcd_method(S("011")).key()

    r = berlekamp_massey(S("00000000"))
    assert (r.complexity, r.min_poly) == (0, Poly2(1))

    r = berlekamp_massey(S("000000001"))
    assert (r.complexity, r.min_poly) == (9, x_pow_n_minus_1(9))


def test_min_poly_annihilates_and_divides():
    rng = SplitMix64(2024)
    for n in (5, 8, 12, 15, 21):
        for _ in range(50):
            s = CyclicSeq(rng.getrandbits(n), n)
            for res in (gcd_method(s), berlekamp_massey(s)):
                assert res.complexity == res.min_poly.degree
                assert (x_pow_n_minus_1(n) % res.min_poly).is_zero()
                assert apply_poly(res.min_poly, s).bits == 0


def test_orientation_on_non_self_reciprocal_factors():
    # s^7(x) = x^3+x+1 divides x^7-1; the annihilating polynomial under the
    # shift operator is the reversed quotient (x+1)(x^3+x+1) = x^4+x^3+x^2+1
    s = S("1101000")
    for res in (gcd_method(s), berlekamp_massey(s)):
        assert res.min_poly == Poly2.from_bits_str("10111")
        assert apply_poly(res.min_poly, s).bits == 0


def test_oracle_agreement_exhaustive_small():
    for n in range(1, 15):
        for bits in range(1 << n):
            s = CyclicSeq(bits, n)
            assert gcd_method(s).key() == berlekamp_massey(s).key(), (n, bits)


def test_oracle_agreement_randomized_larger():
    rng = SplitMix64(99)
    for n in (17, 33, 70, 128, 200):
        for _ in range(60):
            s = CyclicSeq(rng.getrandbits(n), n)
            assert gcd_method(s).key() == berlekamp_massey(s).key()


@pytest.mark.parametrize("n", [1, 585, 1170, 2340])
def test_oracles_against_long_division(n):
    # zero; 1, whose gcd is 1; all ones, (x^N - 1)/(x + 1), whose quotient is
    # x + 1; for 3 | N a multiple of (x^N - 1)/(x^3 - 1), whose gcd has degree
    # above N/2; and five random inputs
    rng = SplitMix64(n)
    xn1 = (1 << n) | 1
    ones = (1 << n) - 1
    inputs = [0, 1, ones] + [rng.getrandbits(n) for _ in range(5)]
    if n % 3 == 0:
        multiple = _mod_int(_mul_int(rng.getrandbits(n), _divrem_int(xn1, 0b1001)[0]), xn1)
        inputs.append(multiple)
    complexity = {}
    for bits in inputs:
        s = CyclicSeq(bits, n)
        res = gcd_method(s)
        assert res.key() == berlekamp_massey(s).key(), (n, bits)
        f, rem = _divrem_int(xn1, _gcd_int(bits, xn1) if bits else xn1)
        assert rem == 0
        assert res.key() == (f.bit_length() - 1, int(format(f, "b")[::-1], 2))
        complexity[bits] = res.complexity
    assert (complexity[1], complexity[ones]) == (n, 1)
    if n % 3 == 0:
        assert complexity[multiple] <= 3


def test_gcd_method_checks_the_quotient(monkeypatch):
    # x^2 + x + 1 does not divide x^8 - 1: the quotient check must raise, also
    # under python -O
    monkeypatch.setattr(lcseq.oracle, "_gcd_int", lambda a, b: 0b111)
    with pytest.raises(ArithmeticError):
        gcd_method(S("10110001"))


def test_msequence_fixtures():
    assert msequence(P("111")) == S("011")
    seq = msequence(P("1101"))
    assert seq == S("0010111")
    # window property: every nonzero 3-tuple appears exactly once per period
    windows = set()
    for i in range(seq.n):
        windows.add(tuple(seq.to_list()[(i + j) % seq.n] for j in range(3)))
    assert len(windows) == 7 and (0, 0, 0) not in windows

    assert msequence(P("11")) == S("1")
    with pytest.raises(ValueError):
        msequence(P("11111"))
    with pytest.raises(ValueError):
        msequence(P("01"))  # x: no exponent, no m-sequence


def test_sequence_family_paper_fixture():
    fam = sequence_family(P("11111"))
    got = {s.to_bits_str() for s in fam}
    paper = {"00011", "01010", "11011"}
    assert got == {canonical(S(w)) for w in paper}
    assert all(s.n == 5 for s in fam)


def test_sequence_family_small():
    assert {s.to_bits_str() for s in sequence_family(P("111"))} == {"011"}
    assert {s.to_bits_str() for s in sequence_family(P("11"))} == {"1"}
    with pytest.raises(ValueError):
        sequence_family(P("101"))


def test_sequence_family_counts_and_membership():
    for bits in (0b111, 0b1011, 0b11111, 0b100101):
        q = Poly2(bits)
        e = exponent(q)
        fam = sequence_family(q)
        assert len(fam) == ((1 << q.degree) - 1) // e
        for member in fam:
            assert apply_poly(q, member).bits == 0
            assert member.bits != 0


def test_enumerate_by_period_examples():
    f = P("111")
    assert enumerate_by_period(f, 1) == {1: 1, 3: 1}
    assert enumerate_by_period(f, 2) == {1: 1, 3: 1, 6: 2}
    census = enumerate_by_period(f, 3)
    assert census[12] == 4  # 2^((3-1)*2 - 2)
    # the orbits partition the whole state space
    assert sum(d * c for d, c in census.items()) == 1 << 6


def test_enumerate_by_period_guards():
    with pytest.raises(ValueError):
        enumerate_by_period(P("11111"), 2)  # not primitive
    with pytest.raises(ValueError):
        enumerate_by_period(P("01"), 1)  # x: the shift map is not a bijection
    with pytest.raises(InfeasibleSize):
        enumerate_by_period(P("111"), 11)  # 2*11 > 20


def test_family_closure_and_divisibility_smoke():
    rng = SplitMix64(5)
    q = P("1011")  # x^3+x^2+1, primitive
    fam = sequence_family(q)
    for r in fam:
        for _ in range(40):
            f = Poly2(rng.getrandbits(12) | 1)
            if f.is_zero():
                continue
            image = apply_poly(f, r)
            divisible = (f % q).is_zero()
            assert (image.bits == 0) == divisible
            if not divisible:
                assert apply_poly(q, image).bits == 0  # stays in S(q)
