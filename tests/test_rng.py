"""SplitMix64 pinned by its outputs: every seeded campaign depends on them."""

import pytest

from lcseq._rng import SplitMix64

# 2^16 + 1 and the lengths of the large-N benchmark: 2^16, 3*2^14, 5*2^12, 13*2^8,
# 29*2^8, 3^7, 5^5
_LARGE = (1 << 16, (1 << 16) + 1, 3 << 14, 5 << 12, 13 << 8, 29 << 8, 3**7, 5**5)
# 20 seeds, the ends of the 64-bit state among them
_SEEDS = (0, 1, 2, 0xFA57, 2 * 0xFA57, 0x9E3779B97F4A7C15, (1 << 64) - 1, 1 << 63, *range(3, 15))


def _reference(seed: int, k: int) -> tuple[int, int]:
    """(draw, final state) by definition: next_u64 words ORed in little-endian,
    word 0 supplying bits 0..63, truncated to k bits."""
    rng = SplitMix64(seed)
    out = 0
    for i in range((k + 63) // 64):
        out |= rng.next_u64() << (64 * i)
    return out & ((1 << k) - 1), rng.state


def test_published_reference_outputs():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize("seed", _SEEDS)
def test_draw_is_the_word_concatenation(seed):
    for k in (*range(1, 1101), *_LARGE):
        rng = SplitMix64(seed)
        assert (rng.getrandbits(k), rng.state) == _reference(seed, k), (seed, k)


def test_pinned_draws():
    # values of the per-word OR loop, the draw's first form; a change of any bit fails here
    rng = SplitMix64(2 * 0xFA57)
    assert rng.getrandbits(1 << 16) % (2**61 - 1) == 267502203512287965
    assert rng.state == 0xDDE6E5FD29F248AE
    rng = SplitMix64(0xFA57)
    bounds = (1, 2, 3, 10, 1000, 2**64 - 1, 2**64, 2**64 + 1, 10**30)
    assert [rng.randrange(n) for n in bounds] == [
        0, 1, 1, 7, 787, 16757868797186891291, 4736750264365198056,
        17120437031587933067, 911619381077010999601125906575,
    ]


@pytest.mark.parametrize("k", [0, -1])
def test_empty_draw_raises(k):
    with pytest.raises(ValueError):
        SplitMix64(0).getrandbits(k)
