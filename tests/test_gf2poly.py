import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from lcseq._rng import SplitMix64
from lcseq.gf2poly import (
    DEGREE_CAP,
    DegreeCapExceeded,
    FactorPower,
    Factorization,
    Poly2,
    UnsupportedPeriod,
    _ENUM_CAP,
    _compose,
    _cyclotomic_factors,
    _divisors,
    _equal_degree_factors,
    _euler_phi,
    _factorize,
    _mod_int,
    _mult_order,
    _product_of_powers,
    _split_period,
    _support_gap,
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


def _exponent_by_stepping(fbits: int) -> int:
    """Reference: step x, x^2, ... mod f until 1."""
    cur, e = _mod_int(2, fbits), 1
    while cur != 1:
        cur, e = _mod_int(cur << 1, fbits), e + 1
    return e


def _is_irreducible_by_trial_division(fbits: int) -> bool:
    """Reference: no polynomial of degree 1 .. deg/2 divides f."""
    deg = fbits.bit_length() - 1
    return all(
        _mod_int(fbits, div)
        for d in range(1, deg // 2 + 1)
        for div in range(1 << d, 1 << (d + 1))
    )


def test_exponent_examples():
    assert exponent(P("111")) == 3
    assert exponent(P("11111")) == 5
    assert _exponent_brute(P("11111"), 5) == 5
    assert exponent(P("11001")) == 15
    assert _exponent_brute(P("11001"), 15) == 15
    # reducible: the order of x divides 2^ceil(log2 k) * lcm(2^j - 1 : j <= k)
    assert exponent(P("101")) == 2  # x^2+1
    assert exponent(P("1001")) == 3  # x^3+1
    assert exponent(P("10101")) == 6  # x^4+x^2+1 = (x^2+x+1)^2
    assert exponent(P("111") ** 3) == 12
    # order 2047 * 8191 = 16,766,977, far past any stepping search
    f = Poly2.from_exponents([11, 2, 0]) * Poly2.from_exponents([13, 4, 3, 1, 0])
    assert exponent(f) == 16_766_977


def test_exponent_matches_stepping():
    for fbits in range(3, 1 << 11, 2):  # f(0) = 1, degree 1 .. 10
        assert exponent(Poly2(fbits)) == _exponent_by_stepping(fbits), fbits


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


def test_irreducible_matches_trial_division():
    for fbits in range(2, 1 << 15):  # every polynomial of degree 1 .. 14
        assert is_irreducible(Poly2(fbits)) == _is_irreducible_by_trial_division(fbits), fbits
    for deg in range(15, DEGREE_CAP + 1):
        rng = SplitMix64(deg)
        for _ in range(300):
            fbits = (1 << deg) | rng.getrandbits(deg)
            assert is_irreducible(Poly2(fbits)) == _is_irreducible_by_trial_division(fbits), fbits


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
    with pytest.raises(UnsupportedPeriod, match=r"2\^16"):
        factor_xn_minus_1(65537)  # prime above the cap


def _support_gap_per_divisor(n: int) -> str | None:
    """Reference: the support rule checked at every divisor d of the odd
    part, in increasing d (a prime-power d needs p < 2^16 and 2 primitive
    mod d, any other d needs ord_d(2) <= _ENUM_CAP)."""
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


def test_support_rule_matches_the_per_divisor_rule():
    # one check per prime power and one order for m give every verdict the
    # walk over all divisors gives
    for m in range(1, 1 << 16, 2):
        assert (_support_gap(m) is None) == (_support_gap_per_divisor(m) is None), m
    assert _support_gap(49) == "2 is not a primitive root mod 7^2"
    assert _support_gap(225) == "cross-cyclotomic degree 60 above enumeration cap"
    assert _support_gap(3 * 65537) == "prime 65537 above the 2^16 validation cap"


def test_factorization_validate_failures():
    fac = factor_xn_minus_1(6)  # (x+1)^2 (x^2+x+1)^2, gamma 1 each
    fac.validate()
    polys = [q for q, _, _ in fac.factors]
    for factors, message in (
        (fac.factors + fac.factors[:1], "repeated irreducible factor"),
        (tuple(FactorPower(q, 0, 0) for q in polys), "multiplicity must be >= 1"),
        (tuple(FactorPower(q, 2, 0) for q in polys), "gamma is not the ceiling exponent of alpha"),
        (tuple(FactorPower(q, 1, 0) for q in polys), "factor product does not reproduce x^N - 1"),
    ):
        with pytest.raises(ValueError) as exc:
            Factorization(6, factors).validate()
        assert str(exc.value) == message


@functools.cache
def _level_shape(d):
    """(phi(d) / ord_d(2), ord_d(2)): count and degree of Phi_d's factors."""
    order = next(k for k in range(1, d + 1) if pow(2, k, d) == 1 % d)
    phi = sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)
    return phi // order, order


def test_factor_product_check_all_supported_lengths():
    # multiplying out reproduces x^N - 1 exactly for every supported N <= 4096
    # and the fast-large lengths
    supported = 0
    for n in [*range(1, 4097), 1 << 16, 3 << 14, 5 << 12, 13 << 8, 29 << 8]:
        try:
            fac = factor_xn_minus_1(n)
        except UnsupportedPeriod:
            continue
        supported += 1
        fac.validate()
        for f in fac.factors:
            # the support gate promises irreducible levels without testing them
            assert f.poly.degree > DEGREE_CAP or is_irreducible(f.poly), (n, f.poly)
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
