import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from lcseq.gf2poly import (
    DEGREE_CAP,
    DegreeCapExceeded,
    Poly2,
    UnsupportedPeriod,
    _compose,
    _cyclotomic_factors,
    _equal_degree_factors,
    _product_of_powers,
    add,
    divrem,
    exponent,
    factor_xn_minus_1,
    gcd,
    is_irreducible,
    is_primitive,
    mul,
    x_pow_n_minus_1,
)

P = Poly2.from_bits_str


polys = st.integers(min_value=0, max_value=(1 << 257) - 1).map(Poly2)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 257) - 1).map(Poly2)


def test_add_examples():
    assert add(P("11"), P("11")) == Poly2(0)
    assert add(P("111"), P("11")) == P("001")  # x^2
    assert add(P("1101"), Poly2(0)) == P("1101")


def test_mul_examples():
    assert mul(P("11"), P("11")) == P("101")  # x^2+1
    assert mul(P("11"), P("111")) == P("1001")  # x^3+1
    assert mul(P("111"), P("111")) == P("10101")  # x^4+x^2+1


def test_divrem_examples():
    # x^6+x^4+x^3+1 / (x+1): remainder 0, verified by round-trip below
    a = Poly2.from_exponents([6, 4, 3, 0])
    q, r = divrem(a, P("11"))
    assert r == Poly2(0)
    assert q == Poly2.from_exponents([5, 4, 2, 1, 0])
    assert q * P("11") + r == a

    q, r = divrem(P("001"), P("111"))
    assert (q, r) == (Poly2(1), P("11"))

    q, r = divrem(P("11"), P("111"))
    assert (q, r) == (Poly2(0), P("11"))


def test_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        divrem(P("11"), Poly2(0))


def test_gcd_examples():
    assert gcd(P("101"), P("11")) == P("11")
    assert gcd(P("1001"), P("111")) == P("111")
    assert gcd(P("001"), Poly2.from_exponents([9, 0])) == Poly2(1)
    with pytest.raises(ValueError):
        gcd(Poly2(0), Poly2(0))


def _exponent_brute(f: Poly2, cap: int) -> int:
    for e in range(1, cap + 1):
        if (x_pow_n_minus_1(e) % f).is_zero():
            return e
    raise AssertionError("no exponent found below cap")


def test_exponent_examples():
    assert exponent(P("111")) == 3
    assert exponent(P("11111")) == 5
    assert _exponent_brute(P("11111"), 5) == 5
    assert exponent(P("11001")) == 15
    assert _exponent_brute(P("11001"), 15) == 15


def test_exponent_errors():
    with pytest.raises(ValueError):
        exponent(Poly2(0))
    with pytest.raises(ValueError):
        exponent(P("01"))  # x: constant term zero


def test_irreducible_examples():
    assert is_irreducible(P("111"))
    assert not is_irreducible(P("101"))  # (x+1)^2
    assert is_irreducible(P("11111"))
    with pytest.raises(DegreeCapExceeded):
        is_irreducible(Poly2(1 << 30))


def test_primitive_examples():
    assert is_primitive(P("111"))
    assert not is_primitive(P("11111"))  # exponent 5 != 15
    assert is_primitive(P("1101"))
    # x is irreducible, but with constant term 0 it has no exponent
    assert is_primitive(P("01")) is False


def test_factor_12():
    fac = factor_xn_minus_1(12)
    got = {(f.poly.to_human(), f.multiplicity, f.gamma) for f in fac.factors}
    assert got == {("x+1", 4, 2), ("x^2+x+1", 4, 2)}


def test_factor_9():
    fac = factor_xn_minus_1(9)
    got = {(f.poly.to_human(), f.multiplicity) for f in fac.factors}
    assert got == {("x+1", 1), ("x^2+x+1", 1), ("x^6+x^3+1", 1)}
    # a prime level Phi_p is the all-ones polynomial, with no division
    assert _cyclotomic_factors(65371) == ((1 << 65371) - 1,)


def test_factor_8():
    fac = factor_xn_minus_1(8)
    assert [(f.poly.to_human(), f.multiplicity) for f in fac.factors] == [("x+1", 8)]


def test_factor_unsupported():
    with pytest.raises(UnsupportedPeriod):
        factor_xn_minus_1(7)  # 2 has order 3 mod 7
    with pytest.raises(UnsupportedPeriod):
        factor_xn_minus_1(21)


@functools.cache
def _level_shape(d):
    """(phi(d) / ord_d(2), ord_d(2)): count and degree of Phi_d's factors."""
    order = next(k for k in range(1, d + 1) if pow(2, k, d) == 1 % d)
    phi = sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)
    return phi // order, order


def test_factor_product_check_all_supported_lengths():
    # multiplying out reproduces x^N - 1 exactly for every supported N <= 4096
    supported = 0
    for n in range(1, 4097):
        try:
            fac = factor_xn_minus_1(n)
        except UnsupportedPeriod:
            continue
        supported += 1
        prod = Poly2(1)
        for f in fac.factors:
            prod = prod * (f.poly ** f.multiplicity)
            # the support gate promises irreducible levels without testing them
            assert f.poly.degree > DEGREE_CAP or is_irreducible(f.poly), (n, f.poly)
        assert prod == x_pow_n_minus_1(n), n
        # level by level in increasing d | odd part, ascending bits within a
        # level: the order of a report's deltas
        odd = n >> ((n & -n).bit_length() - 1)
        rest = [f.poly.bits for f in fac.factors]
        for d in [d for d in range(1, odd + 1) if odd % d == 0]:
            count, degree = _level_shape(d)
            level, rest = rest[:count], rest[count:]
            assert [q.bit_length() - 1 for q in level] == [degree] * count, (n, d)
            assert level == sorted(set(level)), (n, d)
        assert rest == [], n
    assert supported > 100  # the families are not trivially empty


@pytest.mark.parametrize("d", [771, 1057, 1285, 2047])
def test_cyclotomic_factors_beyond_the_dispatch_gate(d):
    # levels with several primes whose factor degree (16, 15, 16, 11) the
    # dispatch gate does not admit still split into their irreducibles
    count, degree = _level_shape(d)
    level = _cyclotomic_factors(d)
    assert [q.bit_length() - 1 for q in level] == [degree] * count
    assert list(level) == sorted(set(level))
    assert all(is_irreducible(Poly2(q)) for q in level)
    divisors = [e for e in range(1, d + 1) if d % e == 0]
    product = _product_of_powers((q, 1) for e in divisors for q in _cyclotomic_factors(e))
    assert product == x_pow_n_minus_1(d).bits


def test_equal_degree_split_refuses_a_wrong_degree():
    # an irreducible of degree 2k never splits into degree-k factors: the
    # draws run out and raise instead of looping
    for f, k in ((P("11001").bits, 2), (_cyclotomic_factors(1285)[0], 8)):
        assert is_irreducible(Poly2(f)) and f.bit_length() - 1 == 2 * k
        with pytest.raises(ValueError):
            _equal_degree_factors(f, k, 1)


@settings(max_examples=150)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150)
@given(polys, nonzero_polys)
def test_divrem_round_trip(a, b):
    q, r = divrem(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=100)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_divides_and_is_greatest(a, b, g):
    ag, bg = a * g, b * g
    h = gcd(ag, bg)
    assert (ag % h).is_zero()
    assert (bg % h).is_zero()
    # any common divisor (g among them) divides the gcd
    assert (h % g).is_zero()


@settings(max_examples=150)
@given(polys, st.integers(min_value=0, max_value=6))
def test_frobenius_squaring(f, k):
    sq = f * f
    manual = Poly2.from_exponents(2 * j for j in range(300) if (f.bits >> j) & 1)
    assert sq == manual
    # f^(2^k) = f(x^(2^k)): k squarings by multiplication, one substitution
    sq_k = functools.reduce(lambda a, _: a * a, range(k), f)
    assert Poly2(_compose(f.bits, 1 << k)) == sq_k == f ** (1 << k)
    assert f ** (3 << k) == sq_k * sq_k * sq_k


def test_product_of_powers():
    q1, q2, q3 = P("11"), P("111"), P("1101")
    pairs = [(q1, 2), (q3, 0), (q2, 3), (q3, 2), (P("11001"), 0), (q2, 1)]
    want = q1**2 * q2**3 * q3**2 * q2
    assert _product_of_powers((q.bits, e) for q, e in pairs) == want.bits
    assert _product_of_powers([]) == 1


def test_exponent_divides_group_order_all_small_irreducibles():
    for deg in range(1, 13):
        for low in range(1 << (deg - 1)) if deg > 1 else [0]:
            bits = (1 << deg) | (low << 1) | 1
            f = Poly2(bits)
            if not is_irreducible(f):
                continue
            assert ((1 << deg) - 1) % exponent(f) == 0, f
