"""SplitMix64, the named PRNG behind every randomized campaign.

Campaigns must reproduce across implementations, so the generator is
pinned by algorithm rather than by library: SplitMix64 (Steele, Lea &
Flood), 64-bit state, golden-gamma increment.  A k-bit sequence draw
concatenates successive outputs little-endian (word 0 supplies bits
0..63) and truncates to k bits.  The draw mixes in one local loop and
assembles the words with a single int.from_bytes, so its cost is linear
in k; the bits and the final state are those of the word concatenation.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def getrandbits(self, k: int) -> int:
        if k <= 0:
            raise ValueError("k must be positive")
        # next_u64 inlined, its output kept as 8 little-endian bytes
        s = self.state
        parts = []
        for _ in range((k + 63) // 64):
            s = (s + _GAMMA) & _MASK64
            z = ((s ^ (s >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            parts.append((z ^ (z >> 31)).to_bytes(8, "little"))
        self.state = s
        return int.from_bytes(b"".join(parts), "little") & ((1 << k) - 1)

    def randrange(self, n: int) -> int:
        """Uniform draw from range(n) by rejection on 64-bit words."""
        if n <= 0:
            raise ValueError("n must be positive")
        span = n.bit_length()
        while True:
            v = self.getrandbits(span)
            if v < n:
                return v
