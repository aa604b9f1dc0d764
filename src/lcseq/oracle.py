"""Reference implementations used to validate the fast algorithms.

Two independent oracles compute the linear complexity and minimal
polynomial of a cyclic sequence:

* ``gcd_method`` takes g = gcd(s^N(x), x^N - 1) by Euclid and the quotient
  f = (x^N - 1)/g as the first N - deg g + 1 terms of the power series 1/g,
  as g^(w - 1) for a power of two w past that length, doubling w by sums of
  shifts of f; it checks g * f = x^N - 1 and raises ArithmeticError
  otherwise.
* ``berlekamp_massey`` runs LFSR synthesis over two concatenated periods,
  keeping stream * C shifted down to the current step and C itself above
  it in one integer, so the discrepancy is its lowest bit and each update
  is one XOR with the word saved at the last length change.

The module also provides the generators the property suites need: m-sequences,
the family S(q) of sequences annihilated by an irreducible q, and the
brute-force period census of sequences generated by a power of a primitive
polynomial.
"""

from __future__ import annotations

from .cyclicseq import CyclicSeq, LcResult, OpMeter
from .gf2poly import (
    Poly2,
    _gcd_int,
    _mul_int,
    _pow_int,
    _reversed,
    exponent,
    is_irreducible,
    is_primitive,
)

__all__ = [
    "InfeasibleSize",
    "gcd_method",
    "berlekamp_massey",
    "msequence",
    "sequence_family",
    "enumerate_by_period",
]


class InfeasibleSize(ValueError):
    """Raised when a brute-force enumeration would be too large."""


def gcd_method(s: CyclicSeq) -> LcResult:
    """Minimal polynomial via gcd(s^N(x), x^N - 1); complexity = its codegree.

    x^N - 1 over the gcd is the denominator of the generating function; the
    polynomial annihilating the sequence under the shift operator (the taps
    of the recurrence, reindexed c_{m-j} = a_j) is its reversal.  The two
    coincide exactly when the factor set involved is self-reciprocal.

    The quotient is 1/g mod x^k, k = N - deg g + 1.  Since g(0) = 1 and w is
    a power of two, g^w = g(x^w) = 1 mod x^w, so g^(w - 1) = 1/g mod x^w;
    the quotient is g^(w - 1) mod x^k once w >= k, and each doubling of w
    multiplies by g(x^w), a sum of shifts of f, one per exponent of g.
    """
    meter = OpMeter()
    xn1 = (1 << s.n) | 1
    if s.bits == 0:
        return LcResult("GcdMethod", meter, min_poly=Poly2(1))
    g = _gcd_int(s.bits, xn1)
    if g == 1:
        f = xn1
    else:
        # f = g^(w - 1) mod x^k, starting at w = 1; x^N/g starts above f's
        # degree.  Only g's positive exponents e with e*w < k reach below
        # x^k, so the loop stops when the smallest of them, times w, does.
        k = s.n - g.bit_length() + 2
        mask = (1 << k) - 1
        exps = []
        rest = (g & mask) >> 1
        while rest:
            low = rest & -rest
            exps.append(low.bit_length())
            rest ^= low
        f, w = 1, 1
        while exps and exps[0] * w < k:
            acc = f
            for e in exps:
                if e * w >= k:
                    break
                acc ^= f << (e * w)
            f = acc & mask
            w *= 2
    if _mul_int(g, f) != xn1:
        raise ArithmeticError(f"degree-{g.bit_length() - 1} gcd does not divide x^{s.n} - 1")
    return LcResult("GcdMethod", meter, min_poly=Poly2(_reversed(f, f.bit_length() - 1)))


def berlekamp_massey(s: CyclicSeq) -> LcResult:
    """Classical LFSR synthesis over two concatenated periods.

    Two periods (2N bits) guarantee the synthesized register is the
    periodic minimal one, since 2c bits always suffice and c <= N.  The
    register taps come out in recurrence order; they are re-emitted
    reversed so the connection polynomial is the same monic minimal
    polynomial the gcd method produces.

    The whole state is one integer z = (stream * C >> i) | (C << (k - i)) at
    step i, k = 3N + 1: deg C <= N keeps stream * C below x^(3N), so the
    halves never meet.  Adding x^(i - last) * B to C is z ^= zb, with zb the
    word saved at step last, and each step ends with one shift of z.
    """
    meter = OpMeter()
    n = s.n
    if s.bits == 0:
        return LcResult("BerlekampMassey", meter, min_poly=Poly2(1))
    k = 3 * n + 1
    stream = s.bits | (s.bits << n)
    # C = 1 at step 0; B = 1 saved at last = -1 packs as stream << 1 below
    # 1 << (k + 1)
    z, zb = stream | (1 << k), (stream << 1) | (2 << k)
    deg = 0
    for i in range(2 * n):
        if z & 1:
            if 2 * deg <= i:
                z, zb = z ^ zb, z
                deg = i + 1 - deg
            else:
                z ^= zb
        z >>= 1
    # after 2N steps C sits at k - 2N = N + 1; reverse its taps into a
    # monic degree-`deg` polynomial
    return LcResult("BerlekampMassey", meter, min_poly=Poly2(_reversed(z >> (n + 1), deg)))


def msequence(f: Poly2) -> CyclicSeq:
    """The m-sequence of the primitive polynomial f, seeded 0..01."""
    if not is_primitive(f):
        raise ValueError(f"{f!r} is not primitive")
    k = f.degree
    length = (1 << k) - 1
    taps = f.bits & ((1 << k) - 1)
    bits = 1 << (k - 1)  # s_0 .. s_{k-2} = 0, s_{k-1} = 1
    for i in range(length - k):
        nxt = (((bits >> i) & taps).bit_count() & 1) << (k + i)
        bits |= nxt
    return CyclicSeq(bits & ((1 << length) - 1), length)


def _canonical_rotation(s: CyclicSeq) -> CyclicSeq:
    """Representative whose s_0-first bit string is lexicographically least."""
    text = s.to_bits_str()
    return CyclicSeq.from_bits_str(min(text[j:] + text[:j] for j in range(s.n)))


def sequence_family(q: Poly2) -> set[CyclicSeq]:
    """All nonzero cyclic sequences generated by the irreducible q.

    One representative per cyclic class (lexicographically least rotation),
    each of length exponent(q).
    """
    if not is_irreducible(q):
        raise ValueError(f"{q!r} is reducible")
    if q.degree > 16:
        raise InfeasibleSize("sequence_family caps the degree at 16")
    e = exponent(q)
    k = q.degree
    taps = q.bits & ((1 << k) - 1)
    out: set[CyclicSeq] = set()
    visited = bytearray(1 << k)
    for state0 in range(1, 1 << k):
        if visited[state0]:
            continue
        # generate e bits from this state, marking the state orbit
        state = state0
        bits = 0
        for i in range(e):
            visited[state] = 1
            bits |= (state & 1) << i
            state = (state >> 1) | (((state & taps).bit_count() & 1) << (k - 1))
        out.add(_canonical_rotation(CyclicSeq(bits, e)))
    return out


def enumerate_by_period(f: Poly2, m: int) -> dict[int, int]:
    """Census of the cyclic sequences generated by f^m, grouped by period.

    Walks every state of the degree-k*m register with connection
    polynomial f^m (the map is a bijection, so orbits are pure cycles whose
    length is the sequence period).  The all-zero sequence lands under
    period 1.
    """
    if not is_primitive(f):
        raise ValueError(f"{f!r} is not primitive")
    if m < 1:
        raise ValueError("power must be >= 1")
    k = f.degree
    km = k * m
    if km > 20:
        raise InfeasibleSize("enumerate_by_period caps degree * power at 20")
    taps = _pow_int(f.bits, m) & ((1 << km) - 1)
    top = km - 1
    counts: dict[int, int] = {}
    visited = bytearray(1 << km)
    for state0 in range(1 << km):
        if visited[state0]:
            continue
        state = state0
        length = 0
        while True:
            visited[state] = 1
            length += 1
            state = (state >> 1) | (((state & taps).bit_count() & 1) << top)
            if state == state0:
                break
        counts[length] = counts.get(length, 0) + 1
    return counts
