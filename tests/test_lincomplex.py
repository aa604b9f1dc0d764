import math
from collections import Counter

import pytest

from lcseq import gf2poly
from lcseq._rng import SplitMix64
from lcseq.cyclicseq import CyclicSeq, OpMeter, apply_poly, apply_poly_pow2
from lcseq.gf2poly import (
    Factorization,
    FactorPower,
    Poly2,
    UnsupportedPeriod,
    all_ones,
    factor_xn_minus_1,
    x_pow_n_minus_1,
)
from lcseq.lincomplex import (
    AlgorithmChoice,
    NotGeneratedBy,
    TAG_FAST_3X2N,
    TAG_FAST_PX2N,
    TAG_GAMES_CHAN,
    TAG_GENERAL,
    TAG_ODD_COMPOSITE,
    TAG_ODD_PRIME_POWER,
    TAG_ORACLE_FALLBACK,
    _fold,
    _level_plan,
    _remainder_tree,
    choose_algorithm,
    find_delta,
    games_chan,
    lc_3x2n,
    lc_odd_composite,
    lc_odd_prime_power,
    lc_px2n,
    min_poly_general,
    ppp,
    solve,
    violates_bound,
)
from lcseq.oracle import berlekamp_massey, gcd_method

S = CyclicSeq.from_bits_str
P = Poly2.from_bits_str


# ---------------------------------------------------------------------------
# Games-Chan


def test_games_chan_examples():
    r = games_chan(S("10011010"))
    assert (r.complexity, r.min_poly) == (7, P("11") ** 7)

    r = games_chan(S("10"))
    assert (r.complexity, r.min_poly) == (2, P("101"))
    assert gcd_method(S("10")).key() == r.key()

    r = games_chan(S("0" * 16))
    assert (r.complexity, r.min_poly) == (0, Poly2(1))


def test_games_chan_rejects_non_power_of_two():
    with pytest.raises(UnsupportedPeriod):
        games_chan(S("000101"))


def test_games_chan_bound_exhaustive_n8():
    for bits in range(1 << 8):
        meter = OpMeter()
        r = games_chan(CyclicSeq(bits, 8), meter)
        assert meter.total() <= 8 + 3
        assert r.key() == gcd_method(CyclicSeq(bits, 8)).key()


# ---------------------------------------------------------------------------
# PPP


def test_ppp_examples():
    m, r = ppp(P("111"), S("000101"))
    assert (m, r.complexity) == (2, 4)
    assert r.min_poly == P("111") ** 2

    m, r = ppp(P("111"), S("011"))
    assert (m, r.complexity) == (1, 2)

    m, r = ppp(P("11"), S("10011010"))
    assert (m, r.complexity) == (7, 7)
    assert r.key() == games_chan(S("10011010")).key()


def test_ppp_games_chan_coincidence():
    for bits in range(1, 1 << 8):
        s = CyclicSeq(bits, 8)
        m, r = ppp(P("11"), s)
        assert r.key() == games_chan(s).key()
    rng = SplitMix64(17)
    for n in (16, 32, 64):
        for _ in range(100):
            s = CyclicSeq(rng.getrandbits(n), n)
            m, r = ppp(P("11"), s)
            assert r.key() == games_chan(s).key()


def test_ppp_rejects_ungenerated():
    # [1,1,0] has minimal polynomial involving x+1, not a power of x^2+x+1
    with pytest.raises(NotGeneratedBy):
        ppp(P("111"), S("010"))
    with pytest.raises(ValueError):
        ppp(P("101"), S("0101"))  # reducible polynomial


def test_ppp_zero_sequence():
    m, r = ppp(P("111"), S("000000"))
    assert (m, r.complexity, r.min_poly) == (0, 0, Poly2(1))


def test_ppp_general_irreducible():
    # (x^e - 1)/f, raised to 2^n, projects onto the sequences f^(2^n)
    # generates; 11111 and 11001 are not primitive
    rng = SplitMix64(3)
    for f in map(P, ("11", "111", "1101", "1011", "11111", "11001")):
        e = gf2poly.exponent(f)
        cofactor = x_pow_n_minus_1(e) // f
        for n_pow in range(4):
            n = e << n_pow
            for _ in range(20):
                s = apply_poly_pow2(cofactor, n_pow, CyclicSeq(rng.getrandbits(n), n))
                m, r = ppp(f, s)
                assert r.key() == gcd_method(s).key(), (f, n, s)
                assert r.complexity == f.degree * m


# ---------------------------------------------------------------------------
# delta extraction and the general method


def test_find_delta_examples():
    fac = factor_xn_minus_1(3)
    idx = {f.poly: i for i, f in enumerate(fac.factors)}
    d, _ = find_delta(S("011"), fac, idx[P("111")])
    assert d == 1
    d, _ = find_delta(S("011"), fac, idx[P("11")])
    assert d == 0

    fac12 = factor_xn_minus_1(12)
    idx12 = {f.poly: i for i, f in enumerate(fac12.factors)}
    d, _ = find_delta(S("1" * 12), fac12, idx12[P("11")])
    assert d == 1

    for s, fac, error, text in _refused_factorizations():
        with pytest.raises(error, match=text):
            find_delta(s, fac, 2)


def _refused_factorizations():
    """(sequence, factorization, error, text) cases that find_delta and
    min_poly_general refuse: they accept factor_xn_minus_1(N) alone."""
    s15 = S("011010001110101")
    fac15 = factor_xn_minus_1(15)
    stranger = FactorPower(P("1101"), 1, 0)  # does not divide x^15 - 1
    # past the 2^32 cap, built without the range check that would take 2^33 bits
    huge = object.__new__(CyclicSeq)
    object.__setattr__(huge, "bits", 0)
    object.__setattr__(huge, "n", 1 << 33)
    return [
        # another length, whether or not the target also divides x^N - 1
        (s15, factor_xn_minus_1(9), ValueError, "does not match"),
        (s15, factor_xn_minus_1(5), ValueError, "does not match"),
        # the right length with a factor missing, or a stranger as the target
        (s15, Factorization(15, fac15.factors[:-1]), ValueError, "does not match"),
        (s15, Factorization(15, fac15.factors[:2] + (stranger,)), ValueError, "does not match"),
        # unsupported lengths: one level of 1206 has factors of degree 66
        (CyclicSeq(5, 1206), Factorization(1206, ()), UnsupportedPeriod, "supported family"),
        (huge, Factorization(1 << 33, ()), UnsupportedPeriod, "beyond 2\\^32"),
    ]


def _multiplicity(minpoly: Poly2, q: Poly2) -> int:
    d = 0
    while not (minpoly % q).bits:
        minpoly = minpoly // q
        d += 1
    return d


def test_find_delta_residual_annihilated():
    fac = factor_xn_minus_1(12)
    rng = SplitMix64(7)
    for _ in range(100):
        s = CyclicSeq(rng.getrandbits(12), 12)
        truth = gcd_method(s).min_poly
        for t, fp in enumerate(fac.factors):
            d, residual = find_delta(s, fac, t)
            assert d == _multiplicity(truth, fp.poly)
            # the residual is the input with the target factor annihilated,
            # other exponents untouched
            dd, _ = find_delta(residual, fac, t)
            assert dd == 0
            for i, other in enumerate(fac.factors):
                if i != t:
                    want = _multiplicity(truth, other.poly)
                    assert find_delta(residual, fac, i)[0] == want


def test_min_poly_general_examples():
    fac6 = factor_xn_minus_1(6)
    r = min_poly_general(S("000101"), fac6)
    assert (r.complexity, r.min_poly) == (4, P("111") ** 2)

    r = min_poly_general(S("111111"), fac6)
    assert (r.complexity, r.min_poly) == (1, P("11"))

    r = min_poly_general(S("011011"), fac6)
    assert (r.complexity, r.min_poly) == (2, P("111"))

    for s, fac, error, text in _refused_factorizations():
        with pytest.raises(error, match=text):
            min_poly_general(s, fac)


def test_min_poly_general_matches_oracles_exhaustive():
    for n in (6, 9, 12, 15):
        fac = factor_xn_minus_1(n)
        for bits in range(1 << n):
            s = CyclicSeq(bits, n)
            assert min_poly_general(s, fac).key() == gcd_method(s).key(), (n, bits)


def test_fold_matches_naive_xor():
    rng = SplitMix64(17)
    for width in (1, 3, 64, 65):
        for count in (1, 2, 3, 5, 7, 585):
            bits = rng.getrandbits(width * count)
            naive = 0
            for k in range(count):
                naive ^= (bits >> (k * width)) & ((1 << width) - 1)
            assert _fold(bits, width, count) == naive, (width, count)


def _level_engine_lengths():
    tags = (TAG_GENERAL, TAG_ODD_COMPOSITE)
    return [n for n in range(1, 3000) if choose_algorithm(n).tag in tags]


def _level_engine_inputs(n, rng, randoms):
    return [CyclicSeq(0, n), CyclicSeq((1 << n) - 1, n)] + [
        CyclicSeq(rng.getrandbits(n), n) for _ in range(randoms)
    ]


def test_level_engine_matches_oracles_below_3000():
    rng = SplitMix64(23)
    lengths = _level_engine_lengths()
    assert len(lengths) == 197
    for n in lengths:
        for s in _level_engine_inputs(n, rng, 4):
            want = gcd_method(s).key()
            assert solve(s).key() == want == berlekamp_massey(s).key(), (n, s.bits)


def test_level_engine_bound_on_irreducible_levels():
    # with m an odd prime power every level Phi_d is irreducible.  The chained
    # folds cost N - 2^t in all; each d | m then costs at most
    # omega(d) * width (rotations) + width - d (halvings) + t (counters)
    # + d (final read), width = d * 2^t
    rng = SplitMix64(29)
    checked = 0
    for n in _level_engine_lengths():
        m, t = gf2poly._split_period(n)
        if len(gf2poly._factorize(m)) > 1:
            continue
        bound = n - (1 << t) + sum(
            (d << t) * (1 + len(gf2poly._factorize(d))) + t for d in gf2poly._divisors(m)
        )
        for s in _level_engine_inputs(n, rng, 20):
            meter = OpMeter()
            solve(s, meter)
            assert meter.total() <= bound, (n, s.bits)
            checked += 1
    assert checked == 150 * 22


def _largest_level(n):
    m, t = gf2poly._split_period(n)
    d = max(gf2poly._divisors(m), key=lambda k: len(gf2poly._cyclotomic_factors(k)))
    return _remainder_tree(d, t), t


def test_level_engine_structured_reducible_levels():
    # inputs projected onto a chosen set S of one reducible level's factors:
    # one factor, the tree's left half, its right half, all but one.  Each
    # leaves whole subtrees with a zero remainder, so the descent's zero
    # skip runs; every factor outside S reads exponent 0, and with these
    # seeded inputs every factor in S a nonzero one
    rng = SplitMix64(37)
    lengths = []
    for n in _level_engine_lengths():
        (factors, _, *below), t = _largest_level(n)
        if len(factors) <= 2:
            continue
        lengths.append(n)
        left, right = below
        xn1 = x_pow_n_minus_1(n)
        subsets = [factors[:1], left[0], right[0], factors[1:]]
        for subset in subsets:
            product = math.prod(subset, start=Poly2(1))
            s = apply_poly(xn1 // product ** (1 << t), CyclicSeq(rng.getrandbits(n), n))
            r = solve(s)
            assert r.key() == gcd_method(s).key() == berlekamp_massey(s).key(), (n, subset)
            assert all((e > 0) == (q in subset) for q, e in r.deltas), (n, subset)
    assert lengths == [
        65, 117, 130, 195, 234, 260, 390, 468, 520,
        585, 780, 936, 1040, 1170, 1560, 1872, 2080, 2340,
    ]
    # partial multiplicities: q(E)^v lowers q's exponent e in a seeded input
    # by v, 0 < v < 2^t, so a leaf's remainder keeps q* with multiplicity
    # 2^t - e + v and its descent takes exact and inexact divisions in
    # either order; e is read off the gcd oracle, and is 2^t for most inputs
    partial = 0
    for n in (60, 260, 780, 1248, 1920, 2340):
        (factors, *_), t = _largest_level(n)
        assert len(factors) > 1 and t >= 2, n
        for q in (factors[0], factors[-1]):
            for v in (1, 1 << (t - 1), (1 << t) - 1):
                s = CyclicSeq(rng.getrandbits(n), n)
                f, e = gcd_method(s).min_poly, 0
                while q.divides(f):
                    f, e = f // q, e + 1
                s = apply_poly(q**v, s)
                r = solve(s)
                assert dict(r.deltas)[q] == max(e - v, 0), (n, q, v)
                assert r.key() == gcd_method(s).key() == berlekamp_massey(s).key(), (n, q, v)
                partial += 0 < e - v
    assert partial == 36


def test_level_engine_meter_target_585_family():
    # the 585 family's < 200 ops/bit target: with chained folds and the
    # remainder tree, random inputs cost about 131-135 ops/bit
    rng = SplitMix64(41)
    for n in (585, 1170, 2340):
        for s in _level_engine_inputs(n, rng, 10):
            meter = OpMeter()
            solve(s, meter)
            assert meter.total() < 200 * n, (n, meter)


def _delta_after_saturation(s, fac, t, exponents):
    """Smallest target exponent after applying chosen powers of the others."""
    r = s
    for i, (q, _, _) in enumerate(fac.factors):
        if i != t:
            for _ in range(exponents[i]):
                r = apply_poly(q, r)
    q_t = fac.factors[t].poly
    d = 0
    while r.bits:
        r = apply_poly(q_t, r)
        d += 1
    return d


def test_saturation_soundness_smoke():
    # any saturation exponents at or above the true ones find the same delta
    fac = factor_xn_minus_1(12)
    rng = SplitMix64(11)
    for _ in range(120):
        s = CyclicSeq(rng.getrandbits(12), 12)
        truth = gcd_method(s).min_poly
        true_d = [_multiplicity(truth, fp.poly) for fp in fac.factors]
        for t in range(len(fac.factors)):
            choice = [
                true_d[i] + rng.randrange(3) for i in range(len(fac.factors))
            ]
            got = _delta_after_saturation(s, fac, t, choice)
            assert got == true_d[t]
            assert find_delta(s, fac, t)[0] == true_d[t]


# ---------------------------------------------------------------------------
# 3 * 2^n


def test_lc_3x2n_examples():
    r = lc_3x2n(S("000101"))
    assert (r.complexity, r.min_poly) == (4, P("111") ** 2)
    assert r.key() == gcd_method(S("000101")).key()
    assert r.key() == berlekamp_massey(S("000101")).key()

    r = lc_3x2n(S("1" * 12))
    assert (r.complexity, r.min_poly) == (1, P("11"))

    r = lc_3x2n(S("0" * 11 + "1"))
    assert (r.complexity, r.min_poly) == (12, x_pow_n_minus_1(12))
    assert r.min_poly == (P("11") ** 4) * (P("111") ** 4)


def test_lc_3x2n_exhaustive_small():
    for n in (3, 6, 12):
        for bits in range(1 << n):
            s = CyclicSeq(bits, n)
            meter = OpMeter()
            r = lc_3x2n(s, meter)
            assert r.key() == gcd_method(s).key(), (n, bits)
            n2 = (n // 3).bit_length() - 1
            assert meter.total() <= 7 * (1 << n2) + 2 * n2, (n, bits)


def test_lc_3x2n_rejects():
    with pytest.raises(UnsupportedPeriod):
        lc_3x2n(S("11111"))


# ---------------------------------------------------------------------------
# p * 2^n


def test_lc_px2n_examples():
    r = lc_px2n(5, S("1" * 20))
    assert (r.complexity, r.min_poly) == (1, P("11"))

    r = lc_px2n(5, S("0" * 19 + "1"))
    assert (r.complexity, r.min_poly) == (20, x_pow_n_minus_1(20))

    # periodic extension of [0,0,0,1,1]; expected value frozen from gcd_method
    s = S("00011" * 4)
    r = lc_px2n(5, s)
    assert (r.complexity, r.min_poly) == (4, P("11111"))
    assert r.key() == gcd_method(s).key()


def test_lc_px2n_exhaustive_n10():
    for bits in range(1 << 10):
        s = CyclicSeq(bits, 10)
        meter = OpMeter()
        r = lc_px2n(5, s, meter)
        assert r.key() == gcd_method(s).key(), bits
        assert meter.total() <= 16.75 * 2 + 2


def test_lc_px2n_p13_p29_random():
    rng = SplitMix64(4242)
    for p in (13, 29):
        for n2 in (0, 1, 2):
            n = p << n2
            for _ in range(150):
                s = CyclicSeq(rng.getrandbits(n), n)
                meter = OpMeter()
                r = lc_px2n(p, s, meter)
                assert r.key() == gcd_method(s).key()
                assert meter.total() <= (p * p + 7 * p + 7) / 4 * (1 << n2) + 2 * n2


def _with_exponents(rng, p, n2, i, j):
    """Random sequence whose minimal polynomial is Q^i (x+1)^j (usually).

    Starting from a random cycle (full exponents with high probability) and
    applying Q^(2^n - i) and (x+1)^(2^n - j) caps the exponents at exactly
    (i, j) whenever they started saturated.
    """
    n = p << n2
    s = CyclicSeq(rng.getrandbits(n) | 1, n)
    q = all_ones(p)
    for poly, target in ((q, i), (P("11"), j)):
        drop = (1 << n2) - target
        b = 0
        while drop:
            if drop & 1:
                s = apply_poly_pow2(poly, b, s)
            drop >>= 1
            b += 1
    return s


def test_lc_px2n_every_exponent_pair():
    # one constructed input per (i, j) pair reaches every branch profile of
    # the two-phase descent; value and budget checked on each
    rng = SplitMix64(0xBEEF)
    for p, n2 in ((3, 4), (3, 5), (5, 3), (5, 4), (13, 2)):
        if p == 3:
            bound = 7 * (1 << n2) + 2 * n2
        else:
            bound = (p * p + 7 * p + 7) / 4 * (1 << n2) + 2 * n2
        for i in range((1 << n2) + 1):
            for j in range((1 << n2) + 1):
                s = _with_exponents(rng, p, n2, i, j)
                meter = OpMeter()
                r = lc_px2n(p, s, meter)
                assert r.key() == gcd_method(s).key(), (p, n2, i, j)
                assert meter.total() <= bound, (p, n2, i, j, meter.as_dict())


def _px2n_pinned_inputs(p, n2, rng):
    """Every input up to 13 bits; else zero, all-ones, random inputs, a random
    block repeated 2, 4, ..., 2^n2 times, and one input whose first test is
    zero (its first difference has p equal blocks)."""
    n = p << n2
    if n <= 13:
        yield from range(1 << n)
        return
    yield 0
    yield (1 << n) - 1
    for _ in range(8):
        yield rng.getrandbits(n)
    for r in range(1, n2 + 1):
        width = n >> r
        yield rng.getrandbits(width) * (((1 << n) - 1) // ((1 << width) - 1))
    if n2:
        half, blk = n >> 1, 1 << (n2 - 1)
        low = rng.getrandbits(half)
        top = (rng.getrandbits(blk) | 1) * (((1 << half) - 1) // ((1 << blk) - 1))
        yield low | (low ^ top) << half


# (p, n2) -> (xor, cmp, counter) summed over _px2n_pinned_inputs, frozen from
# the engine at commit b86bac4; the zero-difference, zero-test and n2 = 0
# paths each charge their own share
_PX2N_METER_TOTALS = {
    (3, 0): (32, 0, 0),
    (3, 1): (448, 8, 80),
    (3, 2): (76144, 1512, 12736),
    (5, 0): (256, 0, 0),
    (5, 1): (13472, 32, 1472),
    (13, 0): (196608, 0, 0),
    (3, 8): (22042, 5, 184),
    (5, 6): (8923, 3, 128),
    (13, 4): (5358, 5, 74),
    (29, 2): (2500, 2, 33),
    (2221, 0): (44400, 0, 0),
}


def test_lc_px2n_meter_totals_pinned():
    rng = SplitMix64(1313)
    for (p, n2), want in _PX2N_METER_TOTALS.items():
        got = [0, 0, 0]
        for bits in _px2n_pinned_inputs(p, n2, rng):
            meter = OpMeter()
            lc_px2n(p, CyclicSeq(bits, p << n2), meter)
            got[0] += meter.xor_ops
            got[1] += meter.cmp_ops
            got[2] += meter.counter_ops
        assert tuple(got) == want, (p, n2)


def test_lc_px2n_validation():
    with pytest.raises(UnsupportedPeriod):
        lc_px2n(7, S("0" * 14))  # 2 not a primitive root mod 7
    with pytest.raises(UnsupportedPeriod):
        lc_px2n(11, S("0" * 11))  # 11 = 3 mod 4
    with pytest.raises(UnsupportedPeriod):
        lc_px2n(5, S("0" * 15))  # length mismatch
    with pytest.raises(UnsupportedPeriod):
        lc_px2n(9, S("0" * 18))  # 9 is not prime
    assert lc_px2n(3, S("011")).key() == gcd_method(S("011")).key()
    assert lc_px2n(13, S("01" + "0" * 24)).key() == gcd_method(S("01" + "0" * 24)).key()
    # the odd entry points check their arguments against the same dispatch
    with pytest.raises(UnsupportedPeriod):
        lc_odd_prime_power(9, 1, S("0" * 9))  # 9 is not prime
    with pytest.raises(UnsupportedPeriod):
        lc_odd_prime_power(7, 1, S("0" * 7))  # 2 has order 3 mod 7
    with pytest.raises(UnsupportedPeriod):
        lc_odd_prime_power(3, 2, S("0" * 27))  # length mismatch
    with pytest.raises(UnsupportedPeriod):
        lc_odd_composite([(3, 1), (3, 1)], S("0" * 9))  # repeated prime
    with pytest.raises(UnsupportedPeriod):
        lc_odd_composite([(3, 1), (5, 1)], S("0" * 30))  # even length
    for p, k in ((3, 1), (5, 1), (5, 2)):
        s = CyclicSeq(1, p**k)
        assert lc_odd_prime_power(p, k, s).key() == gcd_method(s).key()
    s = S("0" * 14 + "1")
    assert lc_odd_composite([(5, 1), (3, 1)], s).key() == gcd_method(s).key()


# ---------------------------------------------------------------------------
# odd periods


def test_lc_odd_prime_power_examples():
    r = lc_odd_prime_power(3, 2, S("001001001"))
    assert (r.complexity, r.min_poly) == (3, x_pow_n_minus_1(3))

    r = lc_odd_prime_power(3, 2, S("1" * 9))
    assert (r.complexity, r.min_poly) == (1, P("11"))

    r = lc_odd_prime_power(3, 2, S("0" * 8 + "1"))
    assert (r.complexity, r.min_poly) == (9, x_pow_n_minus_1(9))


def test_lc_odd_prime_power_exhaustive_9_and_bound():
    for bits in range(1 << 9):
        s = CyclicSeq(bits, 9)
        meter = OpMeter()
        r = lc_odd_prime_power(3, 2, s, meter)
        assert r.key() == gcd_method(s).key(), bits
        assert meter.xor_ops + meter.cmp_ops <= 18
        assert meter.counter_ops <= 2


def test_lc_odd_prime_power_larger():
    rng = SplitMix64(55)
    for p, k in ((3, 5), (5, 3), (11, 1), (11, 2)):
        n = p**k
        for _ in range(60):
            s = CyclicSeq(rng.getrandbits(n), n)
            meter = OpMeter()
            r = lc_odd_prime_power(p, k, s, meter)
            assert r.key() == gcd_method(s).key()
            assert meter.xor_ops + meter.cmp_ops <= 2 * n
            assert meter.counter_ops <= k


def test_lc_odd_prime_power_structured_inputs():
    # inputs of every period p^j, so each level's test meets zero and nonzero
    # differences and the delta decoding reads zero digits at every place
    rng = SplitMix64(61)
    lengths = [n for n in range(3, 3000, 2) if choose_algorithm(n).tag == TAG_ODD_PRIME_POWER]
    for n in lengths + [5**5]:
        choice = choose_algorithm(n)
        inputs = [0, (1 << n) - 1]
        for j in range(1, choice.n + 1):
            w = choice.p**j
            repunit = ((1 << n) - 1) // ((1 << w) - 1)
            inputs += [rng.getrandbits(w) * repunit for _ in range(2)]
        for bits in inputs:
            s = CyclicSeq(bits, n)
            r = solve(s)
            assert r.algorithm == TAG_ODD_PRIME_POWER
            assert r.key() == gcd_method(s).key(), (n, bits)
            assert all(d in (0, 1) for _, d in r.deltas), (n, bits)
            assert sum(q.degree * d for q, d in r.deltas) == r.complexity, (n, bits)
            assert not violates_bound(TAG_ODD_PRIME_POWER, n, r.meter), (n, bits)


def test_lc_odd_composite_examples():
    r = lc_odd_composite([(3, 1), (5, 1)], S("1" * 15))
    assert (r.complexity, r.min_poly) == (1, P("11"))

    r = lc_odd_composite([(3, 1), (5, 1)], S("0" * 14 + "1"))
    assert (r.complexity, r.min_poly) == (15, x_pow_n_minus_1(15))

    s9 = S("011011011")
    assert (
        lc_odd_composite([(3, 2)], s9).key()
        == lc_odd_prime_power(3, 2, s9).key()
    )


def test_lc_odd_composite_exhaustive_15():
    fac = factor_xn_minus_1(15)
    for bits in range(1 << 15):
        s = CyclicSeq(bits, 15)
        r = lc_odd_composite([(3, 1), (5, 1)], s)
        assert r.key() == gcd_method(s).key(), bits
        # the factor order does not change the cost: same engine, same meter
        g = min_poly_general(s, fac)
        assert (r.meter, r.deltas) == (g.meter, g.deltas), bits


# ---------------------------------------------------------------------------
# dispatcher


def test_dispatch_examples():
    assert choose_algorithm(8).tag == TAG_GAMES_CHAN
    assert choose_algorithm(20).tag == TAG_FAST_PX2N
    assert choose_algorithm(20).p == 5
    assert choose_algorithm(7).tag == TAG_ORACLE_FALLBACK
    assert choose_algorithm(12).tag == TAG_FAST_3X2N
    assert choose_algorithm(9).tag == TAG_ODD_PRIME_POWER
    assert choose_algorithm(15).tag == TAG_ODD_COMPOSITE
    assert choose_algorithm(18).tag == TAG_GENERAL
    assert choose_algorithm(13).tag == TAG_FAST_PX2N


def test_dispatch_census_below_3000():
    census = Counter(choose_algorithm(n).tag for n in range(1, 3000))
    assert census == {
        TAG_GAMES_CHAN: 12,
        TAG_FAST_3X2N: 10,
        TAG_FAST_PX2N: 204,
        TAG_ODD_PRIME_POWER: 95,
        TAG_ODD_COMPOSITE: 8,
        TAG_GENERAL: 189,
        TAG_ORACLE_FALLBACK: 2481,
    }


def test_dispatch_large_lengths():
    # no factorization of x^N - 1 is needed (or possible) at these sizes
    assert choose_algorithm(3**21) == AlgorithmChoice(TAG_ODD_PRIME_POWER, p=3, n=21)
    assert choose_algorithm(5 << 40) == AlgorithmChoice(TAG_FAST_PX2N, p=5, n=40)
    assert choose_algorithm(1 << 40) == AlgorithmChoice(TAG_GAMES_CHAN, n=40)
    assert choose_algorithm(15 << 40) == AlgorithmChoice(TAG_ORACLE_FALLBACK)


def test_caches_are_bounded():
    for cached in (
        choose_algorithm,
        factor_xn_minus_1,
        _remainder_tree,
        _level_plan,
        gf2poly._cyclotomic_factors,
        gf2poly._exponent_int,
        gf2poly._is_irreducible_int,
    ):
        assert cached.cache_parameters()["maxsize"] == gf2poly._CACHE_SIZE
    for n in range(1, gf2poly._CACHE_SIZE + 100):
        choose_algorithm(n)
    info = choose_algorithm.cache_info()
    assert info.currsize == info.maxsize


def test_dispatch_consistency_with_length_shape():
    for n in range(1, 130):
        choice = choose_algorithm(n)
        odd = n >> ((n & -n).bit_length() - 1)
        if choice.tag == TAG_GAMES_CHAN:
            assert odd == 1
        elif choice.tag == TAG_FAST_3X2N:
            assert odd == 3
        elif choice.tag == TAG_FAST_PX2N:
            assert choice.p == odd and odd % 4 == 1
        elif choice.tag == TAG_ODD_PRIME_POWER:
            assert n == choice.p ** choice.n and n % 2 == 1
        elif choice.tag == TAG_ODD_COMPOSITE:
            assert n % 2 == 1


def test_solve_matches_oracle_exhaustive_to_13():
    for n in range(1, 14):
        for bits in range(1 << n):
            s = CyclicSeq(bits, n)
            assert solve(s).key() == gcd_method(s).key(), (n, bits)


def test_solve_totality_and_invariants():
    rng = SplitMix64(2)
    for n in list(range(1, 40)) + [63, 64, 81, 100]:
        for _ in range(20):
            s = CyclicSeq(rng.getrandbits(n), n)
            r = solve(s)
            assert r.complexity == r.min_poly.degree
            assert apply_poly(r.min_poly, s).bits == 0
            assert (x_pow_n_minus_1(n) % r.min_poly).is_zero()


def test_minimality_witness_smoke():
    rng = SplitMix64(13)
    for n in (6, 9, 12, 15, 20, 24):
        for _ in range(40):
            s = CyclicSeq(rng.getrandbits(n), n)
            if s.bits == 0:
                continue
            r = solve(s)
            assert apply_poly(r.min_poly, s).bits == 0
            if r.deltas is None:
                continue
            for q, d in r.deltas:
                if d == 0:
                    continue
                reduced = r.min_poly // q
                if reduced.is_zero():
                    continue
                assert apply_poly(reduced, s).bits != 0
