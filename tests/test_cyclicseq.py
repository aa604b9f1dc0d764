import pytest
from hypothesis import given, settings, strategies as st

from lcseq.cyclicseq import (
    CyclicSeq,
    OpMeter,
    apply_poly,
    apply_poly_pow2,
    minimal_period,
)
from lcseq.gf2poly import Poly2, x_pow_n_minus_1

S = CyclicSeq.from_bits_str
P = Poly2.from_bits_str


def test_apply_poly_pure_shift():
    meter = OpMeter()
    out = apply_poly(P("01"), S("011"), meter)
    assert out == S("110")
    assert meter.xor_ops == 0 and meter.total() == 0


def test_apply_poly_annihilates_constant():
    meter = OpMeter()
    out = apply_poly(P("11"), S("1111"), meter)
    assert out == S("0000")
    assert meter.xor_ops == 4


def test_apply_poly_trinomial():
    meter = OpMeter()
    out = apply_poly(P("111"), S("000101"), meter)
    assert out == S("011011")
    assert meter.xor_ops == 12


def test_apply_poly_zero_poly_rejected():
    with pytest.raises(ValueError):
        apply_poly(Poly2(0), S("01"))


def test_apply_poly_pow2_examples():
    meter = OpMeter()
    assert apply_poly_pow2(P("11"), 1, S("1010"), meter) == S("0000")
    assert meter.xor_ops == 4

    s = S("001011001011")  # any length-12 input
    direct = apply_poly(P("111") * P("111"), s)
    assert apply_poly_pow2(P("111"), 1, s) == direct

    assert apply_poly_pow2(P("11"), 0, S("011")) == S("101")

    # shifts that coincide mod n cancel: f(E^4) on 4 bits is weight(f) copies of s
    meter = OpMeter()
    assert apply_poly_pow2(P("111"), 2, S("0110"), meter) == S("0110")
    assert meter.xor_ops == 8
    meter = OpMeter()
    assert apply_poly_pow2(P("11"), 2, S("0110"), meter) == S("0000")
    assert meter.xor_ops == 4


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=(1 << 9) - 1).map(Poly2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=48),
    st.data(),
)
def test_apply_poly_pow2_matches_iterated_squaring(f, m, n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = CyclicSeq(bits, n)
    fast = apply_poly_pow2(f, m, s)
    g = f
    for _ in range(m):
        g = g * g
    assert fast == apply_poly(g, s)
    # the definition: t_i = XOR over the set bits j of f of s_((i + j * 2^m) mod n)
    js = [j for j in range(f.bits.bit_length()) if f.bits >> j & 1]
    t = [0] * n
    for i in range(n):
        for j in js:
            t[i] ^= bits >> ((i + (j << m)) % n) & 1
    assert fast == CyclicSeq.from_list(t)


def test_minimal_period():
    assert minimal_period(S("1010")) == 2
    assert minimal_period(S("000101")) == 6
    assert minimal_period(S("0000")) == 1


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=(1 << 7) - 1).map(Poly2),
    st.integers(min_value=1, max_value=(1 << 7) - 1).map(Poly2),
    st.integers(min_value=1, max_value=24),
    st.data(),
)
def test_operator_homomorphism(f, g, n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = CyclicSeq(bits, n)
    lhs = apply_poly(f, apply_poly(g, s))
    prod = (f * g) % x_pow_n_minus_1(n)
    if prod.is_zero():
        prod = x_pow_n_minus_1(n)  # representative acting as zero
    assert lhs == apply_poly(prod, s)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_en_plus_one_annihilates(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = CyclicSeq(bits, n)
    assert apply_poly(x_pow_n_minus_1(n), s).bits == 0


def test_meter_determinism():
    from lcseq.lincomplex import lc_3x2n

    s = S("100110101100")
    m1, m2 = OpMeter(), OpMeter()
    r1 = lc_3x2n(s, m1)
    r2 = lc_3x2n(s, m2)
    assert (r1.complexity, r1.min_poly) == (r2.complexity, r2.min_poly)
    assert m1 == m2


def test_text_formats():
    s = S("0110")
    assert s.to_bits_str() == "0110"
    assert CyclicSeq.from_bits_str(s.to_bits_str()) == s
    # hex: 4 bits per digit, s_0 the least significant bit of the first digit
    h = CyclicSeq.from_hex_str("a1", 8)
    assert h.to_list() == [0, 1, 0, 1, 1, 0, 0, 0]
    assert h.to_hex_str() == "a1"


def test_hex_length_validation():
    with pytest.raises(ValueError):
        CyclicSeq.from_hex_str("a1", 3)  # wrong digit count
    with pytest.raises(ValueError):
        CyclicSeq.from_hex_str("a4", 6)  # second digit sets bit 6
    ok = CyclicSeq.from_hex_str("21", 6)
    assert ok.to_list() == [0, 1, 0, 0, 1, 0]
    for text in ("a_1", " a1", "a1 "):  # int(text, 16) accepts all three
        with pytest.raises(ValueError):
            CyclicSeq.from_hex_str(text, 12)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        CyclicSeq.from_bits_str("01x")
    with pytest.raises(ValueError):
        CyclicSeq(0, 0)
    with pytest.raises(ValueError):
        CyclicSeq(4, 2)
