import math
from collections import Counter

import pytest

from lcseq import gf2poly, lincomplex
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
    _remainder_tree,
    bound_for,
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
    totals = []
    for bits in range(1 << 8):
        meter = OpMeter()
        r = games_chan(CyclicSeq(bits, 8), meter)
        assert meter.total() <= 8 + 3
        assert r.key() == gcd_method(CyclicSeq(bits, 8)).key()
        totals.append(meter.total())
    assert max(totals) == 10


def test_games_chan_worst_case_exact():
    # the single 1 leaves every halving step nonzero: N + n - 1, one below
    # the bound N + n
    for n in range(1, 17):
        meter = OpMeter()
        games_chan(CyclicSeq(1, 1 << n), meter)
        assert meter.total() == (1 << n) + n - 1, n
    worst = 0
    for bits in range(1 << 16):
        meter = OpMeter()
        games_chan(CyclicSeq(bits, 16), meter)
        worst = max(worst, meter.total())
    assert worst == 19


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
    # exponent(x^2+x+1) = 3: N = 8 is no multiple, N = 9 has odd quotient 3
    with pytest.raises(UnsupportedPeriod, match="is not exponent"):
        ppp(P("111"), S("0" * 8))
    with pytest.raises(UnsupportedPeriod, match="is not a power of two"):
        ppp(P("111"), S("0" * 9))


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


def test_min_poly_general_reads_stored_bits_as_games_chan_does():
    # at N = 2^n the one level's bits are the input itself, not fresh: the
    # general engine charges what Games-Chan charges, the zero input included
    for n in (1, 2, 4, 8, 16):
        fac = factor_xn_minus_1(n)
        for bits in range(1 << n):
            s = CyclicSeq(bits, n)
            general, halving = min_poly_general(s, fac), games_chan(s)
            assert (general.meter, general.key()) == (halving.meter, halving.key()), (n, bits)


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


def _below_chain(tree):
    """The divisors of the sparse chain above a remainder tree, and its root."""
    chain = []
    while len(tree) == 3 and len(tree[0]) > 1:  # a one-child node over several factors
        chain.append(tree[1])
        tree = tree[2]
    return chain, tree


def _largest_level(n):
    m, t = gf2poly._split_period(n)
    d = max(gf2poly._divisors(m), key=lambda k: len(gf2poly._cyclotomic_factors(k)))
    polys, tree = _remainder_tree(d, t)
    return d, polys, _below_chain(tree)[1], t


def _projected(n, t, subset, rng):
    """A seeded input of length n projected onto the factors in subset."""
    product = math.prod(subset, start=Poly2(1))
    return apply_poly(x_pow_n_minus_1(n) // product ** (1 << t), CyclicSeq(rng.getrandbits(n), n))


def test_level_engine_structured_reducible_levels():
    # inputs projected onto a chosen set S of one reducible level's factors:
    # one factor, the tree's left half, its right half, all but one.  Each
    # leaves whole subtrees with a zero remainder, so the descent's zero
    # skip runs; every factor outside S reads exponent 0, and with these
    # seeded inputs every factor in S a nonzero one
    rng = SplitMix64(37)
    lengths = []
    for n in _level_engine_lengths():
        _, polys, root, t = _largest_level(n)
        if len(polys) <= 2:
            continue
        lengths.append(n)
        indices, _, left, right = root
        for subset in (indices[:1], left[0], right[0], indices[1:]):
            subset = [polys[i] for i in subset]
            s = _projected(n, t, subset, rng)
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
        _, polys, _, t = _largest_level(n)
        assert len(polys) > 1 and t >= 2, n
        for q in (polys[0], polys[-1]):
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
    # one lifted group: the factors of Phi_d dividing g(x^(d/r)) for the first
    # factor g of Phi_r, r the product of d's primes.  The tree has a node
    # over exactly these, so the input leaves every other lift's node a zero
    # remainder and this node a nonzero one
    lifted = []
    for n in lengths:
        d, polys, root, t = _largest_level(n)
        rad = math.prod(gf2poly._factorize(d))
        lift = Poly2(gf2poly._compose(gf2poly._cyclotomic_factors(rad)[0], d // rad))
        group = [q for q in polys if q.divides(lift)]
        if not 1 < len(group) < len(polys):
            continue
        lifted.append(n)
        nodes, index_sets = [root], []
        while nodes:
            node = nodes.pop()
            index_sets.append(set(node[0]))
            if len(node[0]) > 1:
                nodes += node[2:]
        assert {polys.index(q) for q in group} in index_sets, n
        s = _projected(n, t, group, rng)
        r = solve(s)
        assert r.key() == gcd_method(s).key() == berlekamp_massey(s).key(), n
        assert all((e > 0) == (q in group) for q, e in r.deltas), n
    assert lifted == [117, 234, 468, 585, 936, 1170, 1872, 2340]
    # the Phi_195 factors over one factor f of Phi_15, q | f(x^13): the tree's
    # node for the other factor f' divides by f'*(x^(13 * 2^t)), which keeps
    # h*(x^(2^t)) beside that node's own factors, h the factor of Phi_15 with
    # h | f'(x^13).  Projected onto the group, the node's remainder at level
    # 195 is zero; with h added it is nonzero only through h*, and every
    # child of the node reads a zero remainder
    f, other = gf2poly._cyclotomic_factors(15)
    lift, other_lift = gf2poly._compose(f, 13), gf2poly._compose(other, 13)
    group = [Poly2(q) for q in gf2poly._cyclotomic_factors(195) if not gf2poly._mod_int(lift, q)]
    kept = next(Poly2(h) for h in (f, other) if not gf2poly._mod_int(other_lift, h))
    assert len(group) == 4
    for n in (195, 390, 1560, 585, 2340):
        m, t = gf2poly._split_period(n)
        _, chain, _, node = _remainder_tree(195, t)[1]
        for subset in (group, group + [kept]):
            s = _projected(n, t, subset, rng)
            r = solve(s)
            assert r.key() == gcd_method(s).key() == berlekamp_massey(s).key(), (n, subset)
            assert all((e > 0) == (q in subset) for q, e in r.deltas), (n, subset)
            y = gf2poly._mod_int(_fold(s.bits, 195 << t, m // 195), chain[0])
            y = gf2poly._mod_int(y, node[1][0])
            assert (y != 0) == (len(subset) > len(group)), (n, subset)
            assert all(gf2poly._mod_int(y, child[1][0]) == 0 for child in node[2:]), (n, subset)


def test_level_engine_meter_target_585_family():
    # the 585 family's < 40 ops/bit target, and < 32 for the 195 family: with
    # the sparse chain split per factor of Phi_15 and the lifted tree the
    # worst of these inputs costs 38.1 and 29.6 ops/bit
    rng = SplitMix64(41)
    for family, target in (((585, 1170, 2340), 40), ((195, 390, 780, 1560), 32)):
        for n in family:
            for s in _level_engine_inputs(n, rng, 10):
                meter = OpMeter()
                solve(s, meter)
                assert meter.total() < target * n, (n, meter)


def test_level_engine_deltas_in_factorization_order():
    # a lifted tree visits its factors grouped by the lifts; the exponents
    # still come in factor_xn_minus_1's order at every length up to 2400
    rng = SplitMix64(43)
    lengths = [n for n in _level_engine_lengths() if n <= 2400]
    assert len(lengths) == 172
    for n in lengths:
        want = [q for q, _, _ in factor_xn_minus_1(n).factors]
        for s in _level_engine_inputs(n, rng, 1):
            assert [q for q, _ in solve(s).deltas] == want, (n, s.bits)


def _sparse(g):
    """The (g, exps) record of _remainder_tree: exps lists g's terms when its
    top gap exceeds its weight."""
    top = g.bit_length() - 1
    if top - (g ^ 1 << top).bit_length() < g.bit_count():
        return g, None
    return g, [e for e in range(top + 1) if g >> e & 1]


def _halving(factors, groups, t):
    """The tree's halving over groups of factor indices, then over the factors
    of each group; each node divides by the product of its children's
    divisors, each leaf by q*(x^(2^j)), j = t .. 0."""
    if len(groups) > 1:
        half = len(groups) // 2
        left, right = _halving(factors, groups[:half], t), _halving(factors, groups[half:], t)
        return left[0] + right[0], _sparse(gf2poly._mul_int(left[1][0], right[1][0])), left, right
    if len(groups[0]) > 1:
        return _halving(factors, tuple((i,) for i in groups[0]), t)
    q = factors[groups[0][0]]
    r = gf2poly._reversed(q, q.bit_length() - 1)
    return (groups[0], *(_sparse(gf2poly._compose(r, 1 << j)) for j in range(t, -1, -1)))


def _lifted(d):
    """Phi_d's factors, the product r of d's primes, and each factor g of Phi_r
    with the indices of the factors of Phi_d dividing g(x^(d/r))."""
    factors = gf2poly._cyclotomic_factors(d)
    rad = math.prod(gf2poly._factorize(d))
    lifted = []
    for g in gf2poly._cyclotomic_factors(rad):
        lift = gf2poly._compose(g, d // rad)
        lifted.append((g, tuple(i for i, q in enumerate(factors) if not gf2poly._mod_int(lift, q))))
    return factors, rad, lifted


def _unsplit_tree(d, t):
    """Reference: the tree with one chain node Phi_P(x^(W/P)) per product P of
    d's k smallest primes, unsplit when Phi_P is reducible, above the root
    Phi_d(x^(2^t)) and its halving over the lifts."""
    factors, _, lifted = _lifted(d)
    primes = list(gf2poly._factorize(d))
    tree = _halving(factors, tuple(group for _, group in lifted), t)
    for k in range(len(primes) - 1, 0, -1):
        product = math.prod(primes[:k])
        phi = math.prod(map(Poly2, gf2poly._cyclotomic_factors(product)), start=Poly2(1))
        g = gf2poly._compose(phi.bits, (d << t) // product)
        tree = tree[0], _sparse(g), tree
    return tree


def _split_tree(d, t, products):
    """The tree under any chain of products P_1 | P_2 | ... of proper subsets
    of d's primes: one node per factor f of Phi_P, dividing by f*(x^(W/P)),
    over the lifts g with g | f(x^(r/P)), then the halving.  A lone leaf
    stands for its node; several nodes at the top sit under their product."""
    factors, rad, lifted = _lifted(d)

    def parent(g, children):
        indices = sum((child[0] for child in children), ())
        return (indices, _sparse(g), *children) if len(indices) > 1 else children[0]

    def level(k, lifted):
        if k == len(products):
            return [_halving(factors, tuple(group for _, group in lifted), t)]
        nodes = []
        for f in gf2poly._cyclotomic_factors(products[k]):
            lift = gf2poly._compose(f, rad // products[k])
            under = [(g, group) for g, group in lifted if not gf2poly._mod_int(lift, g)]
            if under:
                star = gf2poly._reversed(f, f.bit_length() - 1)
                g = gf2poly._compose(star, (d << t) // products[k])
                nodes.append(parent(g, level(k + 1, under)))
        return nodes

    tops = level(0, lifted)
    if len(tops) == 1:
        return tops[0]
    return parent(math.prod((Poly2(top[1][0]) for top in tops), start=Poly2(1)).bits, tops)


def _charge(node, width):
    """A tree's charge with no zero skip, as _reduce charges it: each node's
    division from its parent's width, and each leaf's by q*(x^(2^j))."""
    indices, (g, _), *below = node
    cost, width = (width - g.bit_length() + 1) * (g.bit_count() - 1), g.bit_length() - 1
    if len(indices) > 1:
        return cost + sum(_charge(child, width) for child in below)
    for r, _ in below:
        cost, width = cost + (width - r.bit_length() + 1) * (r.bit_count() - 1), r.bit_length() - 1
    return cost


def _reducible_levels_to_2400():
    levels = set()
    for n in range(1, 2401):
        try:
            factor_xn_minus_1(n)
        except UnsupportedPeriod:
            continue
        m, t = gf2poly._split_period(n)
        levels.update(
            (d, t) for d in gf2poly._divisors(m) if len(gf2poly._cyclotomic_factors(d)) > 1
        )
    assert len(levels) == 45
    return sorted(levels)


def test_remainder_tree_charges_no_more_than_the_unsplit_chain():
    # at every reducible level up to N = 2400 the tree, with no zero skip, is
    # charged no more than the reference tree whose chain keeps one node per
    # prime set, and strictly less where a chain level splits (Phi_15 inside
    # 195 and 585).  The reference's chain plus its root's division costs no
    # more than the rotations (one width-W pass per prime of d) plus the
    # root's division from width W: a reducible level reads the fold without
    # the rotation kill
    split = []
    for d, t in _reducible_levels_to_2400():
        width = d << t
        got, reference = _charge(_remainder_tree(d, t)[1], width), _unsplit_tree(d, t)
        want = _charge(reference, width)
        rotations = len(gf2poly._factorize(d)) * width + _charge(_below_chain(reference)[1], width)
        assert got <= want <= rotations, (d, t)
        if got < want:
            split.append((d, t))
    assert split == [(195, 0), (195, 1), (195, 2), (195, 3), (585, 0), (585, 1), (585, 2)]


# levels outside the support rule whose smallest prime p = 7 leaves Phi_p
# reducible (2 is not primitive mod 7), so the chain has one top node per
# factor of Phi_7; no length dispatches to them
_SPLIT_TOP_LEVELS = [(d, t) for d in (119, 161, 217, 511) for t in (0, 1, 2)]


def test_remainder_tree_leaves_divide_their_ancestors():
    # each leaf i divides by polys[i]*(x^(2^t)), ..., polys[i]*; every
    # ancestor's divisor is a multiple of its first, so a remainder keeps
    # q*'s multiplicity up to 2^t; the leaves cover every factor once and
    # each node lists the indices of its children
    for d, t in _reducible_levels_to_2400() + _SPLIT_TOP_LEVELS:
        polys, tree = _remainder_tree(d, t)
        leaves, nodes = [], [(tree, ())]
        while nodes:
            (indices, (g, _), *below), ancestors = nodes.pop()
            if len(indices) > 1:
                assert indices == sum((child[0] for child in below), ()), (d, t)
                nodes += [(child, ancestors + (g,)) for child in below]
                continue
            r = gf2poly._reversed(polys[indices[0]].bits, polys[indices[0]].degree)
            want = [gf2poly._compose(r, 1 << j) for j in range(t, -1, -1)]
            assert [g] + [h for h, _ in below] == want, (d, t, indices)
            assert all(gf2poly._mod_int(a, g) == 0 for a in ancestors), (d, t, indices)
            leaves += indices
        assert sorted(leaves) == list(range(len(polys))), (d, t)


def test_remainder_tree_over_several_chain_tops():
    # one node, dividing by Phi_7(x^(W/7)), over the two nodes of Phi_7's
    # factors: the tree under the ascending chain.  On a seeded input of the
    # level's own length every node reads a nonzero remainder, so the descent
    # is charged exactly the tree's no-skip charge, and every exponent
    # matches the gcd oracle's minimal polynomial, also with one exponent
    # lowered
    rng = SplitMix64(47)
    for d, t in _SPLIT_TOP_LEVELS:
        polys, tree = _remainder_tree(d, t)
        assert len(tree) == 4 and tree == _split_tree(d, t, (7,)), (d, t)
        assert tree[1][0] == gf2poly._compose(0b1111111, (d << t) // 7), (d, t)
        s = CyclicSeq(rng.getrandbits(d << t), d << t)
        firsts, v = [], max((1 << t) - 1, 1)
        for s in (s, apply_poly(polys[0] ** v, s)):
            meter, exps = OpMeter(), [0] * len(polys)
            lincomplex._remainder_deltas(tree, s.bits, d << t, meter, exps, fresh=False)
            assert meter == OpMeter(_charge(tree, d << t)), (d, t)
            f = gcd_method(s).min_poly
            for q, e in zip(polys, exps):
                assert q**e == gf2poly.gcd(f, q ** (1 << t)), (d, t, q)
            firsts.append(exps[0])
        assert firsts == [1 << t, (1 << t) - v], (d, t)


_REDUCIBLE_LEVELS = (15, 33, 39, 45, 65, 117, 195, 585)


def test_reducible_levels_are_closed():
    # a level with several primes needs ord_d(2) <= _ENUM_CAP, so d divides
    # 2^k - 1 for some k <= _ENUM_CAP, and the support rule admits these
    # eight.  The odd lengths it admits with several primes are the same
    # eight.  A wider gate fails here by design: the tree's fixed root chain
    # is shown cheapest on these levels alone (the test below)
    levels = {
        d
        for k in range(1, gf2poly._ENUM_CAP + 1)
        for d in gf2poly._divisors((1 << k) - 1)
        if len(gf2poly._factorize(d)) > 1 and gf2poly._support_gap(d) is None
    }
    assert tuple(sorted(levels)) == _REDUCIBLE_LEVELS
    odd_composite = [n for n in range(1, 3000) if choose_algorithm(n).tag == TAG_ODD_COMPOSITE]
    assert tuple(odd_composite) == _REDUCIBLE_LEVELS


def _prime_set_chains(mask):
    """Every chain of prime sets (bit masks) that ends at mask, each set a
    proper subset of the next."""
    yield (mask,)
    for s in range(1, mask):
        if s & mask == s:
            for chain in _prime_set_chains(s):
                yield chain + (mask,)


def test_remainder_tree_chain_is_the_cheapest():
    # reference search: the tree under every chain of prime sets that ends
    # below all of d's primes, each set's level split per factor of Phi_P,
    # charged with no zero skip.  The tree's chain (ascending primes: p1,
    # p1 p2, ...) is the one built so, and strictly the cheapest on every
    # reducible level at t = 0 .. 4
    for d in _REDUCIBLE_LEVELS:
        primes = list(gf2poly._factorize(d))
        full = (1 << len(primes)) - 1
        for t in range(5):
            costs = {}
            for chain in _prime_set_chains(full):
                products = tuple(
                    math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
                    for mask in chain[:-1]
                )
                costs[products] = _charge(_split_tree(d, t, products), d << t)
            ascending = tuple(math.prod(primes[:k]) for k in range(1, len(primes)))
            assert _split_tree(d, t, ascending) == _remainder_tree(d, t)[1], (d, t)
            others = [cost for chain, cost in costs.items() if chain != ascending]
            assert costs[ascending] < min(others, default=math.inf), (d, t, costs)


# (xor, cmp, counter) of solve at each reducible level's own length and at
# N = 234, 1560, 2340, on zero, 1, all-ones and SplitMix64(N).getrandbits(N)
_LEVEL_ENGINE_METERS = {
    15: ((42, 0, 0), (70, 0, 0), (42, 0, 0), (70, 0, 0)),
    33: ((90, 0, 0), (198, 0, 0), (90, 0, 0), (198, 0, 0)),
    39: ((106, 0, 0), (330, 0, 0), (106, 0, 0), (330, 0, 0)),
    45: ((131, 0, 0), (253, 0, 0), (141, 0, 0), (253, 0, 0)),
    65: ((186, 0, 0), (1314, 0, 0), (186, 0, 0), (1314, 0, 0)),
    117: ((323, 0, 0), (2277, 0, 0), (349, 0, 0), (2277, 0, 0)),
    195: ((667, 0, 0), (4687, 0, 0), (755, 0, 0), (4687, 0, 0)),
    585: ((2136, 0, 0), (19486, 0, 0), (2462, 0, 0), (19486, 0, 0)),
    234: ((646, 0, 0), (5348, 0, 4), (699, 1, 0), (5348, 0, 4)),
    1560: ((5336, 0, 0), (46162, 0, 12), (6047, 1, 0), (46162, 4, 10)),
    2340: ((8544, 0, 0), (89173, 0, 10), (9851, 1, 0), (89173, 0, 9)),
}


def test_level_engine_meters_pinned():
    # any change to a tree's charge moves one of these exact counts
    for n, want in _LEVEL_ENGINE_METERS.items():
        got = []
        for bits in (0, 1, (1 << n) - 1, SplitMix64(n).getrandbits(n)):
            meter = OpMeter()
            solve(CyclicSeq(bits, n), meter)
            got.append((meter.xor_ops, meter.cmp_ops, meter.counter_ops))
        assert tuple(got) == want, n


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
        totals = []
        for bits in range(1 << n):
            s = CyclicSeq(bits, n)
            meter = OpMeter()
            r = lc_3x2n(s, meter)
            assert r.key() == gcd_method(s).key(), (n, bits)
            n2 = (n // 3).bit_length() - 1
            assert meter.total() <= 7 * (1 << n2) + 2 * n2, (n, bits)
            totals.append(meter.total())
    # N = 12: bound 32, first reached at bits = 5
    assert max(totals) == totals[5] == 25


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
    totals = []
    for bits in range(1 << 10):
        s = CyclicSeq(bits, 10)
        meter = OpMeter()
        r = lc_px2n(5, s, meter)
        assert r.key() == gcd_method(s).key(), bits
        assert meter.total() <= 16.75 * 2 + 2
        totals.append(meter.total())
    assert max(totals) == 20


# The exhaustive maximum at N = 20 is 49 metered operations, 47 XORs and 2
# counter additions, against the bound 71; these are the first 8 of the
# 128 inputs that reach it.
_PX2N_N20_WORST = (6483, 12966, 20153, 25932, 40306, 46727, 51864, 57709)


def test_lc_px2n_worst_case_n20():
    assert S("11001010100110000000") == CyclicSeq(_PX2N_N20_WORST[0], 20)
    assert bound_for(TAG_FAST_PX2N, 20) == 71
    for bits in _PX2N_N20_WORST:
        s = CyclicSeq(bits, 20)
        meter = OpMeter()
        r = lc_px2n(5, s, meter)
        assert r.key() == gcd_method(s).key(), bits
        assert (meter.xor_ops, meter.cmp_ops, meter.counter_ops) == (47, 0, 2), bits
        assert meter.total() == 49


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
    totals = []
    for bits in range(1 << 9):
        s = CyclicSeq(bits, 9)
        meter = OpMeter()
        r = lc_odd_prime_power(3, 2, s, meter)
        assert r.key() == gcd_method(s).key(), bits
        assert meter.xor_ops + meter.cmp_ops <= 18
        assert meter.counter_ops <= 2
        totals.append(meter.total())
    assert max(totals) == 18  # bound 20


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
    assert choose_algorithm(65537).tag == TAG_ORACLE_FALLBACK  # prime above 2^16
    with pytest.raises(ValueError):
        choose_algorithm(0)


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
    # every lru_cache the two modules define, found by scanning them
    caches = {name: fn for module in (gf2poly, lincomplex)
              for name, fn in vars(module).items() if hasattr(fn, "cache_info")}
    assert "choose_algorithm" in caches and "factor_xn_minus_1" in caches
    for name, cached in caches.items():
        assert cached.cache_parameters()["maxsize"] == gf2poly._CACHE_SIZE, name
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


def test_zero_sequence_pays_for_its_stored_bits():
    # a zero test of the input's own bits reads them: no entry point may
    # answer the all-zero sequence of length N in fewer than N metered ops
    def cost(run, n):
        meter = OpMeter()
        run(CyclicSeq(0, n), meter)
        return meter.total()

    direct = {
        TAG_GAMES_CHAN: lambda c, s, m: games_chan(s, m),
        TAG_FAST_3X2N: lambda c, s, m: lc_3x2n(s, m),
        TAG_FAST_PX2N: lambda c, s, m: lc_px2n(c.p, s, m),
        TAG_ODD_PRIME_POWER: lambda c, s, m: lc_odd_prime_power(c.p, c.n, s, m),
        TAG_ODD_COMPOSITE: lambda c, s, m: lc_odd_composite(
            list(gf2poly._factorize(s.n).items()), s, m
        ),
    }
    families = set()
    for n in range(1, 600):
        choice = choose_algorithm(n)
        if choice.tag == TAG_ORACLE_FALLBACK:
            continue
        fac = factor_xn_minus_1(n)
        runs = [
            solve,
            lambda s, m: min_poly_general(s, fac, m),
            lambda s, m: find_delta(s, fac, 0, m),
        ]
        if choice.tag in direct:
            families.add(choice.tag)
            runs.append(lambda s, m: direct[choice.tag](choice, s, m))
        for run in runs:
            assert cost(run, n) >= n, (n, run)
    assert families == set(direct)
    for f in map(P, ("11", "111", "1101", "1011", "11111", "11001")):
        for k in range(4):
            n = gf2poly.exponent(f) << k
            assert cost(lambda s, m: ppp(f, s, m), n) >= n, (f, n)


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
