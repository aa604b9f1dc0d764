"""Cyclic binary sequences, polynomials in the shift operator, the
logical bit-operation meter, and the result every algorithm returns.

A sequence [s_0 .. s_{N-1}] is stored as an integer with bit i = s_i, so a
polynomial f applied to the shift operator acts as an XOR of rotated copies
and runs word-parallel.  The meter adds block lengths analytically, which
keeps the accounting machine-independent: one XOR producing one output bit
costs 1, a zero-test of freshly produced bits is free (the producing XORs
were already charged), a zero-test of stored bits costs its length, and
relabeling (halves, thirds, prefixes) costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2poly import Poly2, _divisors, _product_of_powers

__all__ = [
    "CyclicSeq",
    "OpMeter",
    "LcResult",
    "apply_poly",
    "apply_poly_pow2",
    "is_zero",
    "halves",
    "thirds",
    "minimal_period",
]


@dataclass(frozen=True)
class CyclicSeq:
    """One cycle of a binary sequence; the minimal period may divide n."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("cycle length must be >= 1")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bits out of range for the cycle length")

    # -- text formats ---------------------------------------------------------

    @classmethod
    def from_bits_str(cls, text: str) -> "CyclicSeq":
        """ASCII '0'/'1', s_0 first."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(int(text[::-1], 2), len(text))

    @classmethod
    def from_hex_str(cls, text: str, n: int) -> "CyclicSeq":
        """Hex digits, 4 bits each, s_0 = least significant bit of the first digit.

        The explicit length is required since n need not be a multiple of 4.
        """
        if not text or any(ch not in "0123456789abcdefABCDEF" for ch in text):
            raise ValueError(f"not a hex string: {text!r}")
        value = int(text[::-1], 16)
        if n < 1 or len(text) != (n + 3) // 4:
            raise ValueError(f"hex string length {len(text)} does not cover {n} bits")
        if value >> n:
            raise ValueError("hex digits set bits beyond the declared length")
        return cls(value, n)

    @classmethod
    def from_list(cls, seq) -> "CyclicSeq":
        bits = 0
        for i, b in enumerate(seq):
            if b:
                bits |= 1 << i
        return cls(bits, len(seq))

    def to_bits_str(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]

    def to_hex_str(self) -> str:
        ndigits = (self.n + 3) // 4
        return format(self.bits, f"0{ndigits}x")[::-1]

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.n)]

    def rotated(self, j: int) -> "CyclicSeq":
        """E^j applied as a value (t_i = s_{i+j}); not metered."""
        j %= self.n
        if j == 0:
            return self
        mask = (1 << self.n) - 1
        return CyclicSeq(((self.bits >> j) | (self.bits << (self.n - j))) & mask, self.n)

    def __repr__(self) -> str:
        return f"CyclicSeq({self.to_bits_str()})"


class OpMeter:
    """Ledger of logical bit operations for one algorithm invocation."""

    __slots__ = ("xor_ops", "cmp_ops", "counter_ops")

    def __init__(self, xor_ops: int = 0, cmp_ops: int = 0, counter_ops: int = 0):
        self.xor_ops = xor_ops
        self.cmp_ops = cmp_ops
        self.counter_ops = counter_ops

    def total(self) -> int:
        return self.xor_ops + self.cmp_ops + self.counter_ops

    def snapshot(self) -> "OpMeter":
        return OpMeter(self.xor_ops, self.cmp_ops, self.counter_ops)

    def as_dict(self) -> dict[str, int]:
        return {
            "xor": self.xor_ops,
            "cmp": self.cmp_ops,
            "counter": self.counter_ops,
            "total": self.total(),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpMeter):
            return NotImplemented
        return (self.xor_ops, self.cmp_ops, self.counter_ops) == (
            other.xor_ops,
            other.cmp_ops,
            other.counter_ops,
        )

    def __repr__(self) -> str:
        return f"OpMeter(xor={self.xor_ops}, cmp={self.cmp_ops}, counter={self.counter_ops})"


class LcResult:
    """Linear complexity plus the minimal polynomial and meter snapshot.

    The minimal polynomial is assembled lazily from the per-factor
    exponents when an algorithm reports those instead of the product.
    """

    __slots__ = ("complexity", "algorithm", "meter", "deltas", "_min_poly")

    def __init__(
        self,
        complexity: int,
        algorithm: str,
        meter: OpMeter,
        deltas: tuple[tuple[Poly2, int], ...] | None = None,
        min_poly: Poly2 | None = None,
    ):
        if min_poly is None and deltas is None:
            raise ValueError("need the minimal polynomial or its factor exponents")
        self.complexity = complexity
        self.algorithm = algorithm
        self.meter = meter
        self.deltas = deltas
        self._min_poly = min_poly

    @property
    def min_poly(self) -> Poly2:
        if self._min_poly is None:
            self._min_poly = Poly2(_product_of_powers((q.bits, d) for q, d in self.deltas))
        return self._min_poly

    def key(self) -> tuple[int, int]:
        """(complexity, min_poly bits) for cross-oracle comparison."""
        return self.complexity, self.min_poly.bits

    def __repr__(self) -> str:
        return (
            f"LcResult(c={self.complexity}, f={self.min_poly.to_human()}, "
            f"algorithm={self.algorithm})"
        )


def apply_poly(f: Poly2, s: CyclicSeq, meter: OpMeter | None = None) -> CyclicSeq:
    """Evaluate f(E)s cyclically: t_i = XOR of s_{i+j} over the set bits j of f.

    Metered cost is (weight(f) - 1) * n output-producing XORs.
    """
    return apply_poly_pow2(f, 0, s, meter)


def apply_poly_pow2(f: Poly2, m: int, s: CyclicSeq, meter: OpMeter | None = None) -> CyclicSeq:
    """Evaluate f(E)^(2^m) s as f(E^(2^m)) s (Frobenius), at the cost of one pass.

    The value equals m-fold squared application; the metered cost is
    (weight(f) - 1) * n independently of m.
    """
    if f.is_zero():
        raise ValueError("zero polynomial cannot be applied")
    if m < 0:
        raise ValueError("m must be nonnegative")
    n, bits = s.n, s.bits
    out = 0
    b = f.bits
    # exponents wrap (E^n is the identity); equal shifts cancel in the XOR
    while b:
        low = b & -b
        j = ((low.bit_length() - 1) << m) % n
        out ^= (bits >> j) | (bits << (n - j))
        b ^= low
    if meter is not None:
        meter.xor_ops += (f.weight - 1) * n
    return CyclicSeq(out & ((1 << n) - 1), n)


def is_zero(s: CyclicSeq, meter: OpMeter | None = None, fused: bool = True) -> bool:
    """Zero test; free when fused with production, n stored-bit reads otherwise."""
    if meter is not None and not fused:
        meter.cmp_ops += s.n
    return s.bits == 0


def halves(s: CyclicSeq) -> tuple[CyclicSeq, CyclicSeq]:
    """(L, R) halves; pure relabeling, no metered cost."""
    if s.n % 2:
        raise ValueError("halves need an even length")
    h = s.n // 2
    mask = (1 << h) - 1
    return CyclicSeq(s.bits & mask, h), CyclicSeq(s.bits >> h, h)


def thirds(s: CyclicSeq) -> tuple[CyclicSeq, CyclicSeq, CyclicSeq]:
    """Three consecutive blocks of length n/3; pure relabeling."""
    if s.n % 3:
        raise ValueError("thirds need a length divisible by 3")
    t = s.n // 3
    mask = (1 << t) - 1
    return (
        CyclicSeq(s.bits & mask, t),
        CyclicSeq((s.bits >> t) & mask, t),
        CyclicSeq(s.bits >> (2 * t), t),
    )


def minimal_period(s: CyclicSeq) -> int:
    """Smallest divisor d of n with s_i = s_{i+d} for all i."""
    n = s.n
    for d in _divisors(n):
        if d == n:
            break
        mask = (1 << n) - 1
        rot = ((s.bits >> d) | (s.bits << (n - d))) & mask
        if rot == s.bits:
            return d
    return n
