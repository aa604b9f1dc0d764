"""Bit-packed polynomial arithmetic over GF(2).

A polynomial is stored as a Python integer: bit j holds the coefficient of
x^j, so the constant term is the least significant bit and an integer shift
is a multiplication by a power of x.  The zero polynomial is the integer 0;
its degree is reported with the sentinel -1.

Besides ring arithmetic the module provides exponent (multiplicative order
of x in the quotient ring), irreducibility and primitivity tests, and the
construction of the full irreducible factorization of x^N - 1 for the
period families the fast algorithms support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._rng import SplitMix64

__all__ = [
    "Poly2",
    "FactorPower",
    "Factorization",
    "UnsupportedPeriod",
    "DegreeCapExceeded",
    "add",
    "mul",
    "divrem",
    "gcd",
    "exponent",
    "is_irreducible",
    "is_primitive",
    "factor_xn_minus_1",
]

# Trial-division irreducibility is quadratic in the candidate count; the
# algorithms here never need factors above this degree.
DEGREE_CAP = 24

# Dispatch gate on a cyclotomic level Phi_d with several primes (such as
# 15 = 3*5): its factor degree ord_d(2) must not exceed this.  Equal-degree
# splitting is not limited by it; the gate keeps the supported lengths fixed.
_ENUM_CAP = 16

# Draws that fail to split one piece before _equal_degree_factors gives up;
# on valid input each draw splits with probability at least 1/2.
_SPLIT_DRAWS = 64

# Entries kept by each per-length or per-polynomial cache; holds every
# length a benchmark workload or a test campaign revisits.
_CACHE_SIZE = 4096


class UnsupportedPeriod(ValueError):
    """Raised when x^N - 1 has no factorization in the supported families."""

    def __init__(self, n: int, why: str = ""):
        self.n = n
        super().__init__(f"period {n} is not in a supported family" + (f": {why}" if why else ""))


class DegreeCapExceeded(ValueError):
    """Raised when a brute-force test is asked for a degree above the cap."""


# ---------------------------------------------------------------------------
# raw integer kernels (shared with the sequence algorithms for speed)


def _mul_int(a: int, b: int) -> int:
    """Carry-less product of two bit-packed polynomials."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def _compose(a: int, k: int) -> int:
    """a(x^k), which over GF(2) is also a^k when k is a power of two."""
    return int(("0" * (k - 1)).join(format(a, "b")), 2)


# The division loops read bit_length() once per quotient bit and carry the
# remainder's length forward: the gcd oracle runs them about once per
# coefficient of its input.


def _divrem_int(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    da = a.bit_length()
    q = 0
    while da >= db:
        sh = da - db
        q |= 1 << sh
        a ^= b << sh
        da = a.bit_length()
    return q, a


def _mod_int(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length()
    return a


def _gcd_int(a: int, b: int) -> int:
    """Euclid with the remainder loop inline: no call per step."""
    db = b.bit_length()
    while b:
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b, db = b, a, da
    return a


def _pow_int(base: int, e: int) -> int:
    """base^e: square-and-multiply on the odd part of e, then one x -> x^(2^v)."""
    low = (e & -e) or 1
    e //= low
    r = 1
    while e:
        if e & 1:
            r = _mul_int(r, base)
        e >>= 1
        if e:
            base = _compose(base, 2)
    return _compose(r, low) if low > 1 else r


def _product_of_powers(pairs) -> int:
    """prod q^e over the (q, e) pairs: the q sharing an exponent are multiplied
    first, so each distinct exponent costs one power."""
    groups: dict[int, int] = {}
    for q, e in pairs:
        if e:
            groups[e] = _mul_int(groups.get(e, 1), q)
    r = 1
    for e, g in groups.items():
        r = _mul_int(r, _pow_int(g, e))
    return r


def _powmod_int(base: int, e: int, mod: int) -> int:
    r = 1
    base = _mod_int(base, mod)
    while e:
        if e & 1:
            r = _mod_int(_mul_int(r, base), mod)
        e >>= 1
        if e:
            base = _mod_int(_compose(base, 2), mod)
    return r


# ---------------------------------------------------------------------------
# integer number theory (small moduli only)


def _factorize(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _split_period(n: int) -> tuple[int, int]:
    """(odd part, 2-adic valuation) of n."""
    two_part = (n & -n).bit_length() - 1
    return n >> two_part, two_part


def _euler_phi(m: int) -> int:
    t = 1
    for p, e in _factorize(m).items():
        t *= (p - 1) * p ** (e - 1)
    return t


def _mult_order(a: int, m: int) -> int:
    """Multiplicative order of a modulo m (requires gcd(a, m) = 1)."""
    t = _euler_phi(m)
    for q in _factorize(t):
        while t % q == 0 and pow(a, t // q, m) == 1:
            t //= q
    return t


def _divisors(m: int) -> list[int]:
    divs = [1]
    for p, e in _factorize(m).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# the polynomial value type


@dataclass(frozen=True, order=True)
class Poly2:
    """A polynomial over GF(2), bit-packed least-significant-first."""

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("polynomial bits must be nonnegative")

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return self.bits.bit_length() - 1

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    # -- construction / text forms ------------------------------------------

    @classmethod
    def from_bits_str(cls, text: str) -> "Poly2":
        """Parse the canonical binary form, constant term first ("111" = 1+x+x^2)."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a binary coefficient string: {text!r}")
        return cls(int(text[::-1], 2))

    @classmethod
    def from_exponents(cls, exps) -> "Poly2":
        bits = 0
        for e in exps:
            bits ^= 1 << e
        return cls(bits)

    def to_bits_str(self) -> str:
        """Canonical binary form, constant term first."""
        if self.bits == 0:
            return "0"
        return format(self.bits, "b")[::-1]

    def to_human(self) -> str:
        """Display form such as "x^2+x+1" (descending powers)."""
        if self.bits == 0:
            return "0"
        terms = []
        for j in range(self.degree, -1, -1):
            if (self.bits >> j) & 1:
                terms.append("1" if j == 0 else ("x" if j == 1 else f"x^{j}"))
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"Poly2({self.to_human()})"

    # -- ring operators ------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "Poly2") -> "Poly2":
        return Poly2(_mul_int(self.bits, other.bits))

    def __pow__(self, e: int) -> "Poly2":
        if e < 0:
            raise ValueError("negative exponent")
        return Poly2(_pow_int(self.bits, e))

    def __divmod__(self, other: "Poly2") -> tuple["Poly2", "Poly2"]:
        q, r = _divrem_int(self.bits, other.bits)
        return Poly2(q), Poly2(r)

    def __floordiv__(self, other: "Poly2") -> "Poly2":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly2") -> "Poly2":
        return Poly2(_mod_int(self.bits, other.bits))

    def divides(self, other: "Poly2") -> bool:
        return _mod_int(other.bits, self.bits) == 0


X_PLUS_1 = Poly2(3)


def x_pow_n_minus_1(n: int) -> Poly2:
    """x^n - 1 (== x^n + 1 over GF(2))."""
    if n < 1:
        raise ValueError("n must be positive")
    return Poly2((1 << n) | 1)


def all_ones(p: int) -> Poly2:
    """1 + x + ... + x^(p-1)."""
    return Poly2((1 << p) - 1)


# ---------------------------------------------------------------------------
# spec operations


def add(a: Poly2, b: Poly2) -> Poly2:
    return a + b


def mul(a: Poly2, b: Poly2) -> Poly2:
    return a * b


def divrem(a: Poly2, b: Poly2) -> tuple[Poly2, Poly2]:
    return divmod(a, b)


def gcd(a: Poly2, b: Poly2) -> Poly2:
    """Monic greatest common divisor (monic is automatic over GF(2))."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return Poly2(_gcd_int(a.bits, b.bits))


@lru_cache(maxsize=_CACHE_SIZE)
def _exponent_int(fbits: int) -> int:
    f = Poly2(fbits)
    k = f.degree
    if _is_irreducible_int(fbits):
        # the order of x divides 2^k - 1; peel prime factors off
        e = (1 << k) - 1
        for q in _factorize(e):
            while e % q == 0 and _powmod_int(2, e // q, fbits) == 1:
                e //= q
        return e
    # reducible: step x, x^2, ... until 1 (small inputs only)
    cur = _mod_int(2, fbits)
    e = 1
    cap = 1 << 20
    while cur != 1:
        cur = _mod_int(cur << 1, fbits)
        e += 1
        if e > cap:
            raise DegreeCapExceeded(f"exponent of {f!r} exceeds stepping cap")
    return e


def exponent(f: Poly2) -> int:
    """The smallest e with f(x) | x^e - 1 (the order of x modulo f)."""
    if f.is_zero():
        raise ValueError("zero polynomial has no exponent")
    if not (f.bits & 1):
        raise ValueError("constant term is zero: x divides f, no exponent exists")
    if f.degree < 1:
        raise ValueError("constant polynomial has no exponent")
    return _exponent_int(f.bits)


@lru_cache(maxsize=_CACHE_SIZE)
def _is_irreducible_int(fbits: int) -> bool:
    deg = fbits.bit_length() - 1
    if deg > DEGREE_CAP:
        raise DegreeCapExceeded(f"irreducibility cap is degree {DEGREE_CAP}, got {deg}")
    for d in range(1, deg // 2 + 1):
        for div in range(1 << d, 1 << (d + 1)):
            if _mod_int(fbits, div) == 0:
                return False
    return True


def is_irreducible(f: Poly2) -> bool:
    """Trial division by every smaller-degree polynomial up to degree deg/2."""
    if f.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    return _is_irreducible_int(f.bits)


def is_primitive(f: Poly2) -> bool:
    """Irreducible with exponent 2^deg - 1 (nonzero roots generate the field)."""
    if f.degree < 1:
        raise ValueError("primitivity needs degree >= 1")
    if not f.bits & 1:
        return False  # x divides f, so f has no exponent
    return _is_irreducible_int(f.bits) and _exponent_int(f.bits) == (1 << f.degree) - 1


# ---------------------------------------------------------------------------
# factorization of x^N - 1


@dataclass(frozen=True)
class FactorPower:
    poly: Poly2
    multiplicity: int  # alpha_i
    gamma: int  # smallest g with multiplicity <= 2^g

    def __iter__(self):
        return iter((self.poly, self.multiplicity, self.gamma))


@dataclass(frozen=True)
class Factorization:
    """x^N - 1 = prod q_i^alpha_i with 2^ceil powers recorded per factor."""

    modulus_degree: int
    factors: tuple[FactorPower, ...]

    def validate(self) -> None:
        n = self.modulus_degree
        seen = set()
        for q, alpha, gamma in self.factors:
            if q.bits in seen:
                raise ValueError("repeated irreducible factor")
            seen.add(q.bits)
            if alpha < 1:
                raise ValueError("multiplicity must be >= 1")
            if alpha == 1:
                ok = gamma == 0
            else:
                ok = (1 << (gamma - 1)) < alpha <= (1 << gamma)
            if not ok:
                raise ValueError("gamma is not the ceiling exponent of alpha")
        if _product_of_powers((q.bits, alpha) for q, alpha, _ in self.factors) != (1 << n) | 1:
            raise ValueError("factor product does not reproduce x^N - 1")


def _support_gap(n: int) -> str | None:
    """Why x^N - 1 is outside the supported families, or None if it is not.

    Over GF(2) the cyclotomic level Phi_d splits into phi(d)/ord_d(2)
    irreducible factors of degree ord_d(2), so support is decided by the
    divisors d of N's odd part alone: a prime-power level p^j needs
    p < 2^16 and 2 primitive mod p^j (Phi_{p^j} irreducible), and a level
    with several primes needs ord_d(2) <= _ENUM_CAP, a gate on dispatch
    rather than a limit of the equal-degree split.  The first failing
    level, in increasing d, is reported.
    """
    for d in _divisors(_split_period(n)[0])[1:]:
        fac_d = _factorize(d)
        if len(fac_d) > 1:
            k = _mult_order(2, d)
            if k > _ENUM_CAP:
                return f"cross-cyclotomic degree {k} above enumeration cap"
            continue
        (p, j), = fac_d.items()
        if p >= 1 << 16:
            return f"prime {p} above the 2^16 validation cap"
        if _mult_order(2, d) != _euler_phi(d):
            return f"2 is not a primitive root mod {p}^{j}"
    return None


def _equal_degree_factors(f: int, k: int, seed: int) -> tuple[int, ...]:
    """The irreducible factors of f, in increasing order, when f is a product
    of distinct irreducibles of degree k (Cantor-Zassenhaus, characteristic 2).

    For a random a of degree < deg f, T(a) = a + a^2 + ... + a^(2^(k-1)) mod f
    is 0 or 1 modulo each factor, each with probability 1/2, so gcd(f, T(a))
    splits a piece with two or more factors at least half the time.  The a
    are drawn from SplitMix64(seed); the sorted result does not depend on
    the seed.  Raises ValueError after _SPLIT_DRAWS draws fail on one piece,
    which on valid input has probability at most 2^-64.
    """
    rng = SplitMix64(seed)
    pieces, done = [f], []
    while pieces:
        g = pieces.pop()
        deg = g.bit_length() - 1
        if deg == k:
            done.append(g)
            continue
        for _ in range(_SPLIT_DRAWS):
            a = t = rng.getrandbits(deg)
            for _ in range(k - 1):
                a = _mod_int(_compose(a, 2), g)
                t ^= a
            h = _gcd_int(g, t)
            if 1 < h < g:
                pieces += (h, _divrem_int(g, h)[0])
                break
        else:
            raise ValueError(f"no split of a degree-{deg} polynomial into degree-{k} factors")
    return tuple(sorted(done))


@lru_cache(maxsize=_CACHE_SIZE)
def _cyclotomic_factors(d: int) -> tuple[int, ...]:
    """The irreducible factors of Phi_d over GF(2), as raw bits in increasing order.

    Phi_d(x) = Phi_r(x^(d/r)) with r the product of d's distinct primes, and
    Phi_r = (x^r - 1) / lcm over primes p | r of (x^(r/p) - 1), which is
    the all-ones polynomial when r is a single prime.  Every
    irreducible factor of Phi_d has degree k = ord_d(2), and equal-degree
    splitting, seeded by d, finds its phi(d)/k factors; it returns Phi_d
    itself at once when k = phi(d).
    """
    primes = _factorize(d)
    r = math.prod(primes)
    if len(primes) == 1:
        phi_r = (1 << r) - 1
    else:
        den = 1
        for p in primes:
            b = (1 << (r // p)) | 1
            den = _divrem_int(_mul_int(den, b), _gcd_int(den, b))[0]
        phi_r = _divrem_int((1 << r) | 1, den)[0]
    phi = _compose(phi_r, d // r)
    return _equal_degree_factors(phi, _mult_order(2, d), d)


@lru_cache(maxsize=_CACHE_SIZE)
def factor_xn_minus_1(n: int) -> Factorization:
    """Factor x^N - 1 for the supported period families.

    x^N - 1 = prod over d | m of Phi_d^(2^a) for N = m * 2^a, m odd: the factors
    come level by level in increasing d, each level split by equal-degree
    factorization in _cyclotomic_factors.

    Supported: N < 2^32 whose odd part has only primes p < 2^16, with 2 a
    primitive root mod every prime power p^j dividing it, and whose
    divisors d with several primes have ord_d(2) <= 16 (the dispatch gate
    _ENUM_CAP, not a limit of the split).  That covers
    N = 2^a, odd prime powers p^k, products of them, and any of these times
    a power of two.  Raises UnsupportedPeriod otherwise; callers fall back
    to the oracle module.
    """
    if n < 1:
        raise ValueError("period must be positive")
    if n >= 1 << 32:
        raise UnsupportedPeriod(n, "periods beyond 2^32 are out of scope")
    gap = _support_gap(n)
    if gap is not None:
        raise UnsupportedPeriod(n, gap)
    m, two_part = _split_period(n)
    factors = tuple(
        FactorPower(Poly2(q), 1 << two_part, two_part)
        for d in _divisors(m)
        for q in _cyclotomic_factors(d)
    )
    fac = Factorization(n, factors)
    fac.validate()
    return fac
