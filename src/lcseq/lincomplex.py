"""The fast linear-complexity algorithm family and its dispatcher.

Every algorithm here returns both the linear complexity and the minimal
connection polynomial of a cyclic binary sequence, while charging a
machine-independent bit-operation meter:

* ``games_chan``            N = 2^n, at most N + n operations
* ``ppp``                   powers of an irreducible polynomial
* ``find_delta`` /
  ``min_poly_general``      any supported factorization of x^N - 1
* ``lc_3x2n``               N = 3 * 2^n, at most 7 * 2^n + 2n
* ``lc_px2n``               N = p * 2^n, p = 1 (mod 4), 2 primitive mod p,
                            at most (p^2+7p+7)/4 * 2^n + 2n
* ``lc_odd_prime_power``    N = p^n, 2 primitive mod p^n, 2N plus counters
* ``lc_odd_composite``      odd products of such prime powers
* ``solve``                 shape dispatcher with oracle fallback
* ``bound_for`` /
  ``violates_bound``        the paper's operation bound per algorithm tag

Every descent is one Games-Chan loop on blocks: halving on blocks of 1 bit
for Games-Chan, of exponent(f) bits for ``ppp`` and of d bits for each
irreducible cyclotomic level Phi_d, which the general engine projects out of
the input, and, for N = p^n, dividing by p on 1-bit blocks (radix p).  A
reducible level descends a remainder tree of its factors instead.

The p * 2^n engine runs the two-phase search (first the exponent of the
all-ones factor with the halving descent, then Games-Chan for the x+1
exponent) on a compact state: a sequence st of length p * 2^l standing for
the current value (E+1)^(2^l) st.  One halving of st advances the descent
one level; the test reads only the first (p-1) * 2^(l-1) bits of the
level's difference, which determine the rest through the linear
recurrence.  Besides st the run keeps acc, the sum of the block lengths of
the nonzero tests, and the first level's difference and test, from which
phase B reassembles the blockwise total, so the whole run stays inside the
advertised budget on every input, including the degenerate branches.
Each shift-XOR is charged where it is computed (``_diff``).
"""

from __future__ import annotations

import collections
import math
from functools import lru_cache, reduce

from .cyclicseq import CyclicSeq, LcResult, OpMeter, apply_poly_pow2
from .gf2poly import (
    Factorization,
    Poly2,
    UnsupportedPeriod,
    X_PLUS_1,
    _CACHE_SIZE,
    _compose,
    _cyclotomic_factors,
    _divisors,
    _divrem_int,
    _factorize,
    _mod_int,
    _mul_int,
    _reversed,
    _split_period,
    _support_gap,
    all_ones,
    exponent,
    factor_xn_minus_1,
    is_irreducible,
)
from .oracle import gcd_method

__all__ = [
    "AlgorithmChoice",
    "NotGeneratedBy",
    "TAG_GAMES_CHAN",
    "TAG_PPP",
    "TAG_GENERAL",
    "TAG_FAST_3X2N",
    "TAG_FAST_PX2N",
    "TAG_ODD_PRIME_POWER",
    "TAG_ODD_COMPOSITE",
    "TAG_ORACLE_FALLBACK",
    "games_chan",
    "ppp",
    "find_delta",
    "min_poly_general",
    "lc_3x2n",
    "lc_px2n",
    "lc_odd_prime_power",
    "lc_odd_composite",
    "choose_algorithm",
    "solve",
    "bound_for",
    "violates_bound",
    "is_fast",
]

TAG_GAMES_CHAN = "GamesChan"
TAG_PPP = "PPP"
TAG_GENERAL = "General"
TAG_FAST_3X2N = "Fast3x2n"
TAG_FAST_PX2N = "FastPx2n"
TAG_ODD_PRIME_POWER = "OddPrimePower"
TAG_ODD_COMPOSITE = "OddComposite"
TAG_ORACLE_FALLBACK = "OracleFallback"


class NotGeneratedBy(ValueError):
    """Input sequence is not generated by the required polynomial power."""


# ---------------------------------------------------------------------------
# Games-Chan


def _gc_int(
    bits: int, length: int, meter: OpMeter, fresh: bool, block: int = 1, radix: int = 2
) -> int:
    """Games-Chan descent on block * radix^n bits, metered; returns the exponent.

    Each step tests (E^step - 1)s, step = length / radix, on its first
    length - step bits.  A zero keeps the first step bits; a nonzero adds
    (length - step) / block and keeps the sum of the radix blocks, which
    for radix 2 is the tested difference and otherwise costs another
    length - step XORs (the p-ary descent of Xiao, Wei, Lam & Imamura on
    x^(p^n) - 1 with block 1).  For radix 2 the bits lie in the q^(2^n)
    component of one irreducible q dividing x^block - 1 (q = x+1 for block
    1).  ``fresh`` marks bits that were just produced by charged XORs,
    whose one deferred zero-test is free; the final block costs ``block``
    stored-bit reads unless it is the product of a nonzero branch.
    """
    c = 0
    while length > block:
        step = length // radix
        h = length - step
        b = ((bits >> step) ^ bits) & ((1 << h) - 1)
        meter.xor_ops += h
        fresh = b != 0
        if fresh:
            c += h // block
            meter.counter_ops += 1
            if radix > 2:
                b = _fold(bits, step, radix)
                meter.xor_ops += h
            bits = b
        else:
            bits &= (1 << step) - 1
        length = step
    if not fresh:
        meter.cmp_ops += block
    if bits:
        c += 1
    return c


def _fold(bits: int, width: int, count: int) -> int:
    """XOR of the ``count`` consecutive ``width``-bit blocks of bits < 2^(width * count),
    folding the upper half of the blocks onto the lower half each round."""
    while count > 1:
        low = (count - (count >> 1)) * width
        bits = (bits & ((1 << low) - 1)) ^ (bits >> low)
        count -= count >> 1
    return bits


def games_chan(s: CyclicSeq, meter: OpMeter | None = None) -> LcResult:
    """Recursive halving for N = 2^n; minimal polynomial (x+1)^c."""
    if s.n & (s.n - 1):
        raise UnsupportedPeriod(s.n, "Games-Chan needs a power-of-two length")
    meter = meter if meter is not None else OpMeter()
    c = _gc_int(s.bits, s.n, meter, fresh=False)
    return LcResult(TAG_GAMES_CHAN, meter, deltas=((X_PLUS_1, c),))


# ---------------------------------------------------------------------------
# powers of an irreducible polynomial


def ppp(f: Poly2, s: CyclicSeq, meter: OpMeter | None = None) -> tuple[int, LcResult]:
    """Minimal m with f(E)^m s = 0 for irreducible f, by Games-Chan on e-bit blocks.

    The input length must be e * 2^n with e = exponent(f); the sequence
    must be generated by f^(2^n), which is checked up front.
    """
    if not is_irreducible(f):
        raise ValueError(f"{f!r} is reducible")
    meter = meter if meter is not None else OpMeter()
    e = exponent(f)
    if s.n % e:
        raise UnsupportedPeriod(s.n, f"length is not exponent({f.to_human()}) * 2^n")
    q = s.n // e
    if q & (q - 1):
        raise UnsupportedPeriod(s.n, f"length / exponent({f.to_human()}) is not a power of two")
    n = q.bit_length() - 1
    if apply_poly_pow2(f, n, s, meter).bits:  # a fused zero test is free
        raise NotGeneratedBy(f"sequence is not generated by ({f.to_human()})^{1 << n}")
    m = _gc_int(s.bits, s.n, meter, False, e)
    return m, LcResult(TAG_PPP, meter, deltas=((f, m),))


# ---------------------------------------------------------------------------
# the general method: a block descent or a remainder tree per cyclotomic level


def _reduce(a: int, width: int, divisor: tuple, meter: OpMeter) -> int:
    """a mod g, a of the given width, charged (width - deg g) * (weight(g) - 1) XORs:
    in rounds of one shift-XOR per term when exps lists g's terms, else bit by bit."""
    g, exps = divisor
    top = g.bit_length() - 1
    meter.xor_ops += (width - top) * (g.bit_count() - 1)
    if exps is None:
        return _mod_int(a, g)
    while hi := a >> top:
        for e in exps:
            a ^= hi << e
    return a


@lru_cache(maxsize=_CACHE_SIZE)
def _remainder_tree(d: int, t: int) -> tuple[tuple[Poly2, ...], tuple]:
    """The factors of Phi_d, ascending, and the root of their remainder tree at
    width W = d * 2^t.

    Node (indices, divisor, *children), the indices of the factors q under
    it and a divisor that every q*(x^(2^t)) under it divides, q* the
    reciprocal of q; leaf ((i,), q*(x^(2^t)), ..., q*(x^2), q*).  Each
    divisor is a (g, exps) record for _reduce.  Phi_d(x) = Phi_r(x^(d/r))
    with r the product of d's primes, so each factor g of Phi_r lifts to
    g(x^(d/r)), of g's weight, a product of factors of Phi_d: the tree
    halves over these lifts, in Phi_r's order, then over the factors under
    each (for r = d, over the factors), each node dividing by the product
    of its children's divisors.  Above that, a chain divides by sparse
    multiples for P the product of d's k smallest primes, k = 1, 2, ... up
    to all but one of them: one node per factor f of Phi_P, dividing by
    f*(x^(W/P)), over the g with g | f(x^(r/P)), which is the node
    Phi_P(x^(W/P)) when Phi_P is irreducible.  Such a divisor also holds
    factors of a level below d; they can widen a remainder but never change
    an exponent, as every leaf's divisor divides it.  The support rule admits
    eight reducible levels, d = 15, 33, 39, 45, 65, 117, 195 and 585; only
    Phi_15, inside d = 195 and 585, splits, and on each level this chain is
    the one charged least (the test suite checks it against a search over
    every chain of prime sets, each set split per factor).
    """

    def divisor(g: int) -> tuple:  # g, with its terms' exponents if its top gap exceeds its weight
        top = g.bit_length() - 1
        if top - (g ^ 1 << top).bit_length() < g.bit_count():
            return g, None
        exps, rest = [], g
        while rest:
            exps.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        return g, exps

    def parent(g: int, children: list) -> tuple:  # a lone leaf stands for itself
        indices = sum((child[0] for child in children), ())
        return (indices, divisor(g), *children) if len(indices) > 1 else children[0]

    def node(groups: tuple[tuple[int, ...], ...]) -> tuple:
        if len(groups) > 1:
            left, right = node(groups[: len(groups) // 2]), node(groups[len(groups) // 2 :])
            return parent(_mul_int(left[1][0], right[1][0]), [left, right])
        if len(groups[0]) > 1:
            return node(tuple((i,) for i in groups[0]))
        q = factors[groups[0][0]]
        r = _reversed(q, q.bit_length() - 1)
        return (groups[0], *(divisor(_compose(r, 1 << j)) for j in range(t, -1, -1)))

    def chain(k: int, lifted: list) -> list:  # the nodes over lifted, (g, group) pairs
        if k >= len(primes):
            return [node(tuple(group for _, group in lifted))]
        product = math.prod(primes[:k])
        fs, nodes = _cyclotomic_factors(product), []
        for f in fs:
            lift = _compose(f, rad // product)
            under = [(g, group) for g, group in lifted if len(fs) == 1 or not _mod_int(lift, g)]
            if under:
                star = _compose(_reversed(f, f.bit_length() - 1), (d << t) // product)
                nodes.append(parent(star, chain(k + 1, under)))
        return nodes

    factors = _cyclotomic_factors(d)
    primes = list(_factorize(d))
    rad = math.prod(primes)
    lifts = [_compose(g, d // rad) for g in _cyclotomic_factors(rad)]
    groups = [[] for _ in lifts]
    for i, q in enumerate(factors):
        next(group for g, group in zip(lifts, groups) if not _mod_int(g, q)).append(i)
    tops = chain(1, [(g, tuple(group)) for g, group in zip(_cyclotomic_factors(rad), groups)])
    # several tops when Phi_p, p the smallest prime of d, is reducible: one node over them
    if len(tops) > 1:
        tops = [parent(reduce(_mul_int, (top[1][0] for top in tops)), tops)]
    return tuple(map(Poly2, factors)), tops[0]


def _remainder_deltas(
    node: tuple, y: int, width: int, meter: OpMeter, exps: list, fresh: bool = True
) -> None:
    """Set the exponent of each factor under node, y being bits of the width.

    y mod the node's divisor keeps each q*'s multiplicity up to 2^t, so a zero
    remainder leaves every q under it at exponent 0; the zero test of
    ``fresh`` bits, just produced by charged XORs, is free.  A leaf's r = q*
    divides by r(x^(2^j)), j = t-1 .. 0: an exact division adds 2^j to the
    multiplicity v and keeps the quotient.  q's exponent is 2^t - v."""
    indices, divisor, *below = node
    if y or not fresh:
        y = _reduce(y, width, divisor, meter)
    width = divisor[0].bit_length() - 1
    if not y:
        return
    if len(indices) > 1:
        for child in below:
            _remainder_deltas(child, y, width, meter, exps)
        return
    v = 0
    for r in below:
        rem = _reduce(y, width, r, meter)
        width = r[0].bit_length() - 1
        v += v + (not rem)
        y = rem or _divrem_int(y, r[0])[0]
    exps[indices[0]] = (1 << len(below)) - v


@lru_cache(maxsize=_CACHE_SIZE)
def _level_plan(m: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(d, the smallest prime of m/d, the primes of d) for each d | m, increasing;
    the smallest prime is 1 for d = m."""
    return tuple(
        (d, min(_factorize(m // d), default=1), tuple(_factorize(d))) for d in _divisors(m)
    )


def _level_deltas(s: CyclicSeq, meter: OpMeter) -> tuple[tuple[Poly2, int], ...]:
    """Each irreducible factor of x^N - 1 with its exponent in the minimal polynomial.

    N = m * 2^t, m odd.  For each d | m, decreasing, s folds onto width
    d * 2^t from the fold of d * p, p the smallest prime of m/d, at
    (p - 1) * width XORs.  Then, level by level: on an irreducible level,
    adding the rotation by width/p for each prime p | d kills the levels
    below Phi_d and is a unit on it, and block Games-Chan reads the result.
    A reducible level's remainder tree reads the fold itself: each leaf's
    divisor holds no other level and divides every divisor above it.  A
    zero test of fresh bits, just produced by charged XORs, is free; the
    input's own bits, at d = m, are not fresh.  Each level's exponents come
    in the order of its factors.
    """
    m, t = _split_period(s.n)
    plan = _level_plan(m)
    folds = {m: s.bits}
    for d, p, _ in reversed(plan[:-1]):
        folds[d] = _fold(folds[d * p], d << t, p)
        meter.xor_ops += (p - 1) * d << t
    deltas = []
    for d, _, primes in plan:
        width, y = d << t, folds[d]
        factors = _cyclotomic_factors(d)
        if len(factors) > 1:
            polys, tree = _remainder_tree(d, t)
            exps = [0] * len(polys)
            _remainder_deltas(tree, y, width, meter, exps, d < m)
            deltas += zip(polys, exps)
        else:
            for p in primes:
                y = _diff(y | y << width, width // p, width, meter)
            # only at N = 2^n (d = m = 1) does no fold or rotation make y fresh
            c = _gc_int(y, width, meter, m > 1, d) if y or m == 1 else 0
            deltas.append((Poly2(factors[0]), c))
    return tuple(deltas)


def find_delta(
    s: CyclicSeq,
    fac: Factorization,
    target_index: int,
    meter: OpMeter | None = None,
) -> tuple[int, CyclicSeq]:
    """Exact exponent of one irreducible factor in the minimal polynomial.

    The level engine finds it with all the others.  Returns the exponent
    and the target-annihilated image of the input for reuse.  ``fac`` must
    be factor_xn_minus_1(s.n), whose UnsupportedPeriod propagates; any
    other factorization raises ValueError.
    """
    if fac != factor_xn_minus_1(s.n):
        raise ValueError("factorization does not match the sequence length")
    meter = meter if meter is not None else OpMeter()
    q_t = fac.factors[target_index].poly
    delta = dict(_level_deltas(s, meter))[q_t]
    for power in range(delta.bit_length()):
        if delta >> power & 1:
            s = apply_poly_pow2(q_t, power, s, meter)
    return delta, s


def min_poly_general(
    s: CyclicSeq, fac: Factorization, meter: OpMeter | None = None
) -> LcResult:
    """Assemble the full minimal polynomial level by level.

    Each cyclotomic level of x^N - 1 is projected out of the input; block
    Games-Chan or the level's remainder tree reads its factors' exponents.
    ``fac`` must be factor_xn_minus_1(s.n), as for find_delta.
    """
    if fac != factor_xn_minus_1(s.n):
        raise ValueError("factorization does not match the sequence length")
    meter = meter if meter is not None else OpMeter()
    return LcResult(TAG_GENERAL, meter, _level_deltas(s, meter))


# ---------------------------------------------------------------------------
# N = p * 2^n two-phase engine


def _diff(bits: int, shift: int, width: int, meter: OpMeter) -> int:
    """The low ``width`` bits of bits XOR (bits >> shift), charged ``width`` XORs."""
    meter.xor_ops += width
    return ((bits >> shift) ^ bits) & ((1 << width) - 1)


def _px2n_engine(p: int, bits: int, n: int, meter: OpMeter) -> tuple[int, int]:
    """Return (i, j): the exponents of 1+x+..+x^(p-1) and of x+1.

    Phase A descends the all-ones factor with one halving of the state st
    per level; acc adds the block length of each nonzero test.  Phase B
    runs Games-Chan on the blockwise total of the input, reassembled from
    the first level's difference top and its test.  Every shift-XOR is
    charged where it is computed.
    """
    # fold away fully repeated halves: both exponents are preserved
    while n:
        top = _diff(bits, p << (n - 1), p << (n - 1), meter)
        if top:
            break
        n -= 1
        bits &= (1 << (p << n)) - 1

    # ---- phase A ----
    st = bits
    acc = 0
    for level in range(n, 0, -1):
        blk = 1 << (level - 1)
        d = top if level == n else _diff(st, p * blk, p * blk, meter)
        # a zero difference skips its test, which would read only zero bits
        test = d and _diff(d, blk, (p - 1) * blk, meter)
        if level == n:
            first_test = test
        if test:
            st = d
            acc += blk
            meter.counter_ops += 1
        else:
            # a zero difference or test: opposite blocks of st differ by one
            # common block, so the adjacent-block sums represent the halved
            # value; for p = 3 relabeling blocks 0, 2 and 4 gives one free
            if p == 3:
                mask = (1 << blk) - 1
                b0 = st & mask
                b2 = (st >> (2 * blk)) & mask
                b4 = (st >> (4 * blk)) & mask
                st = b2 | (b0 << blk) | (b4 << (2 * blk))
            else:
                st = _diff(st, blk, p * blk, meter)
    # a nonzero test already shows the all-ones factor; else read p - 1 bits
    i = acc + 1 if acc or _diff(st, 1, p - 1, meter) else 0

    # ---- phase B: Games-Chan on the blockwise total ----
    if n == 0:
        # one odd period: the total is the parity
        meter.xor_ops += p - 1
        return i, bits.bit_count() & 1
    blk = 1 << (n - 1)
    if not first_test:
        # the first test proved all p blocks of top equal; their total is
        # that common block, nonzero because top is. No bits are touched.
        meter.counter_ops += 1
        return i, blk + _gc_int(top & ((1 << blk) - 1), blk, meter, fresh=False)
    h = top >> ((p - 1) * blk)
    for t in range(0, p - 1, 2):
        h ^= first_test >> (t * blk)
    h &= (1 << blk) - 1
    meter.xor_ops += ((p - 1) // 2) * blk
    if h:
        meter.counter_ops += 1
        return i, blk + _gc_int(h, blk, meter, fresh=True)
    left = _fold(bits, 1 << n, p) & ((1 << blk) - 1)
    meter.xor_ops += (p - 1) * blk
    return i, _gc_int(left, blk, meter, fresh=True)


def lc_3x2n(s: CyclicSeq, meter: OpMeter | None = None) -> LcResult:
    """Two-phase procedure for N = 3 * 2^n within 7 * 2^n + 2n operations."""
    return lc_px2n(3, s, meter)


def lc_px2n(p: int, s: CyclicSeq, meter: OpMeter | None = None) -> LcResult:
    """Two-phase procedure for N = p * 2^n, p = 1 (mod 4), 2 primitive mod p.

    p = 3 runs the same engine within the 3 * 2^n bound.
    """
    choice = choose_algorithm(s.n)
    if choice.tag not in (TAG_FAST_3X2N, TAG_FAST_PX2N) or choice.p != p:
        raise UnsupportedPeriod(s.n, f"length is not {p} * 2^n with p in a fast family")
    meter = meter if meter is not None else OpMeter()
    i, j = _px2n_engine(p, s.bits, choice.n, meter)
    return LcResult(choice.tag, meter, deltas=((all_ones(p), i), (X_PLUS_1, j)))


# ---------------------------------------------------------------------------
# odd periods


def lc_odd_prime_power(
    p: int, n: int, s: CyclicSeq, meter: OpMeter | None = None
) -> LcResult:
    """Games-Chan's descent with radix p for N = p^n; 2N data operations plus counters.

    Each step checks whether the current period drops by a factor p
    (reading (p-1) * p^(n-m) freshly formed difference bits suffices) and,
    if not, adds the level's degree and sums the p blocks.
    """
    # choose_algorithm sets p for an odd length only when it is a supported
    # prime power (or a supported prime, dispatched to a p * 2^n family)
    if s.n != p**n or choose_algorithm(s.n).p != p:
        raise UnsupportedPeriod(s.n, f"length is not {p}^{n} for a supported prime p")
    meter = meter if meter is not None else OpMeter()
    c = _gc_int(s.bits, s.n, meter, False, 1, p)
    # x^(p^n) - 1 is squarefree and its level degrees 1, (p-1), (p-1)p, ...
    # are distinct base-p places of c / (p-1): x+1 is the remainder and
    # Phi_{p^j} is digit j-1, each level irreducible by the support gate
    digits, top = divmod(c, p - 1)
    levels = tuple(
        (Poly2(_cyclotomic_factors(p**j)[0]), digits // p ** (j - 1) % p) for j in range(1, n + 1)
    )
    return LcResult(TAG_ODD_PRIME_POWER, meter, deltas=((X_PLUS_1, top),) + levels)


def lc_odd_composite(
    primes: list[tuple[int, int]], s: CyclicSeq, meter: OpMeter | None = None
) -> LcResult:
    """Odd N = prod p_i^(n_i): the level engine over the cyclotomic levels
    of x^N - 1."""
    if s.n % 2 == 0 or sorted(map(tuple, primes)) != sorted(_factorize(s.n).items()):
        raise UnsupportedPeriod(s.n, "prime list does not match an odd length")
    factor_xn_minus_1(s.n)  # raises UnsupportedPeriod outside the supported families
    meter = meter if meter is not None else OpMeter()
    return LcResult(TAG_ODD_COMPOSITE, meter, _level_deltas(s, meter))


# ---------------------------------------------------------------------------
# dispatcher


# the family's tag, and p and n where the family is p * 2^n or p^n
AlgorithmChoice = collections.namedtuple("AlgorithmChoice", "tag p n", defaults=(None, None))


@lru_cache(maxsize=_CACHE_SIZE)
def choose_algorithm(n: int) -> AlgorithmChoice:
    """Most specific applicable algorithm for a cycle length.

    The family follows from the shape of n and the support gate on its odd
    part; the engines that factor x^N - 1 also need N below 2^32.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    odd, two_part = _split_period(n)
    if odd == 1:
        return AlgorithmChoice(TAG_GAMES_CHAN, n=two_part)
    if _support_gap(odd) is not None:
        return AlgorithmChoice(TAG_ORACLE_FALLBACK)
    fac_odd = _factorize(odd)
    if len(fac_odd) == 1:
        (p, k), = fac_odd.items()
        if k == 1 and (p == 3 or p % 4 == 1):
            return AlgorithmChoice(TAG_FAST_3X2N if p == 3 else TAG_FAST_PX2N, p=p, n=two_part)
        if two_part == 0:
            return AlgorithmChoice(TAG_ODD_PRIME_POWER, p=p, n=k)
    if n >= 1 << 32:
        return AlgorithmChoice(TAG_ORACLE_FALLBACK)
    return AlgorithmChoice(TAG_GENERAL if two_part else TAG_ODD_COMPOSITE)


# One row of the dispatch table.  run(choice, s, meter) computes the result;
# bound(n, p, n2) is the paper's operation bound for n = p * 2^n2 with p odd,
# None where it gives none; fast marks the families --algorithm fast accepts.
# Runners look functions up in this module at call time, so rebinding a
# module name (to trace it, say) reaches every dispatch.
_Algorithm = collections.namedtuple("_Algorithm", "run bound fast", defaults=(None, True))


_ALGORITHMS = {
    TAG_GAMES_CHAN: _Algorithm(lambda c, s, m: games_chan(s, m), lambda n, p, n2: n + n2),
    TAG_FAST_3X2N: _Algorithm(
        lambda c, s, m: lc_3x2n(s, m), lambda n, p, n2: 7 * (1 << n2) + 2 * n2
    ),
    TAG_FAST_PX2N: _Algorithm(
        lambda c, s, m: lc_px2n(c.p, s, m),
        lambda n, p, n2: (p * p + 7 * p + 7) / 4 * (1 << n2) + 2 * n2,
    ),
    TAG_ODD_PRIME_POWER: _Algorithm(
        lambda c, s, m: lc_odd_prime_power(c.p, c.n, s, m),
        lambda n, p, n2: 2 * n + sum(_factorize(p).values()),
    ),
    TAG_ODD_COMPOSITE: _Algorithm(lambda c, s, m: LcResult(c.tag, m, _level_deltas(s, m))),
    TAG_GENERAL: _Algorithm(lambda c, s, m: LcResult(c.tag, m, _level_deltas(s, m)), fast=False),
    TAG_ORACLE_FALLBACK: _Algorithm(
        lambda c, s, m: LcResult(c.tag, m, min_poly=gcd_method(s).min_poly), fast=False
    ),
}


def solve(s: CyclicSeq, meter: OpMeter | None = None) -> LcResult:
    """Dispatch by the shape of the length; total (never errors)."""
    meter = meter if meter is not None else OpMeter()
    choice = choose_algorithm(s.n)
    return _ALGORITHMS[choice.tag].run(choice, s, meter)


def is_fast(tag: str) -> bool:
    """Whether the tag names one of the paper's fast families."""
    return _ALGORITHMS[tag].fast


def bound_for(tag: str, n: int) -> int | float | None:
    """The paper's operation bound for the family handling length n, if any.

    For odd prime powers the 2N data-operation bound excludes the counter
    additions; the reported bound allows them one bit each (2N + n).
    """
    algorithm = _ALGORITHMS.get(tag)
    if algorithm is None or algorithm.bound is None:
        return None
    return algorithm.bound(n, *_split_period(n))


def violates_bound(tag: str, n: int, meter: OpMeter) -> bool:
    """Whether a run of the tag's algorithm on length n broke its bound.

    Odd prime powers are checked as the paper states them: data operations
    within 2N and at most one counter addition per level.
    """
    b = bound_for(tag, n)
    if tag == TAG_ODD_PRIME_POWER:
        return meter.xor_ops + meter.cmp_ops > 2 * n or meter.counter_ops > b - 2 * n
    return b is not None and meter.total() > b
