"""lcseq's value types against their former definitions.

Poly2, CyclicSeq, OpMeter, Factorization, AlgorithmChoice and _Algorithm
were dataclasses and FactorPower a typing.NamedTuple; the library now writes
them by hand or as collections.namedtuple, so that importing it loads
neither dataclasses nor typing.  The old definitions are kept below as the
reference, and on seeded samples both must agree in ==, !=, hash, order,
repr, the errors of assignment, deletion and validation, and pickle and
copy round trips.  The validation checks raise rather than assert, so they
also hold under python -O.
"""

from __future__ import annotations

import copy
import itertools
import pickle
from dataclasses import dataclass
from typing import Callable, NamedTuple

import pytest

from lcseq import cyclicseq, gf2poly, lincomplex
from lcseq._rng import SplitMix64

# ---------------------------------------------------------------------------
# the reference: the former definitions, with the hand-written methods that
# the dataclass decorators kept


@dataclass(frozen=True, order=True)
class Poly2:
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("polynomial bits must be nonnegative")

    def __repr__(self) -> str:
        return f"Poly2({gf2poly.Poly2(self.bits).to_human()})"


@dataclass(frozen=True)
class CyclicSeq:
    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("cycle length must be >= 1")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bits out of range for the cycle length")

    def __repr__(self) -> str:
        return f"CyclicSeq({cyclicseq.CyclicSeq(self.bits, self.n).to_bits_str()})"


@dataclass(slots=True)
class OpMeter:
    xor_ops: int = 0
    cmp_ops: int = 0
    counter_ops: int = 0


class FactorPower(NamedTuple):
    poly: Poly2
    multiplicity: int
    gamma: int


@dataclass(frozen=True)
class Factorization:
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
            if gamma != (alpha - 1).bit_length():
                raise ValueError("gamma is not the ceiling exponent of alpha")
        pairs = ((q.bits, alpha) for q, alpha, _ in self.factors)
        if gf2poly._product_of_powers(pairs) != (1 << n) | 1:
            raise ValueError("factor product does not reproduce x^N - 1")


@dataclass(frozen=True)
class AlgorithmChoice:
    tag: str
    p: int | None = None
    n: int | None = None


@dataclass(frozen=True)
class _Algorithm:
    run: Callable
    bound: Callable | None = None
    fast: bool = True


# ---------------------------------------------------------------------------
# seeded samples, each as (new value, reference value)


def _polys(rng):
    bits = [0] + [rng.getrandbits(w) for w in [1, 2, 3, 4, 5, 8, 9, 64, 65, 200] * 4]
    return [(gf2poly.Poly2(b), Poly2(b)) for b in bits]


def _seqs(rng):
    pairs = []
    for n in [1, 1, 2, 2, 3, 3, 4, 5, 7, 8, 64, 65, 300] * 3:
        b = rng.getrandbits(n)
        pairs.append((cyclicseq.CyclicSeq(b, n), CyclicSeq(b, n)))
    return pairs


def _meters(rng):
    counts = [tuple(rng.getrandbits(2) for _ in range(3)) for _ in range(40)]
    return [(cyclicseq.OpMeter(*c), OpMeter(*c)) for c in counts + [()]]


def _reference_factorization(fac):
    factors = tuple(FactorPower(Poly2(q.bits), a, g) for q, a, g in fac.factors)
    return Factorization(fac.modulus_degree, factors)


def _factorizations():
    pairs = []
    for n in (1, 2, 3, 5, 6, 9, 15, 24, 45, 195):
        fac = gf2poly.factor_xn_minus_1(n)
        pairs.append((fac, _reference_factorization(fac)))
    return pairs


def _factor_powers():
    return [pair for fac, ref in _factorizations() for pair in zip(fac.factors, ref.factors)]


def _choices():
    pairs = []
    for n in range(1, 120):
        choice = lincomplex.choose_algorithm(n)
        pairs.append((choice, AlgorithmChoice(choice.tag, choice.p, choice.n)))
    return pairs + [(lincomplex.AlgorithmChoice("t"), AlgorithmChoice("t"))]


def _algorithms():
    rows = [(row, _Algorithm(*row)) for row in lincomplex._ALGORITHMS.values()]
    rows.append((lincomplex._Algorithm(len), _Algorithm(len)))
    return rows + [(lincomplex._Algorithm(len, max, False), _Algorithm(len, max, False))]


_STRANGERS = (None, 0, 1, "x", 2.5, (), (0,), frozenset())


def _assert_same_value_semantics(pairs, hashable=True):
    for (a, ra), (b, rb) in itertools.product(pairs, repeat=2):
        assert (a == b) == (ra == rb), (a, b)
        assert (a != b) == (ra != rb), (a, b)
    for a, ra in pairs:
        assert repr(a) == repr(ra)
        assert a != ra and not a == ra  # a value of the other implementation
        for x in _STRANGERS:
            assert (a == x) == (ra == x) and (a != x) == (ra != x), (a, x)
        if hashable:
            assert hash(a) == hash(ra), a
        else:
            with pytest.raises(TypeError):
                hash(a)
            with pytest.raises(TypeError):
                hash(ra)


def _assert_round_trips(pairs, pickled=True):
    for a, ra in pairs:
        copies = [copy.copy(a), copy.deepcopy(a)]
        ref_copies = [copy.copy(ra), copy.deepcopy(ra)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1) if pickled else ():
            try:
                ref_copies.append(pickle.loads(pickle.dumps(ra, protocol)))
            except TypeError:  # the slotted OpMeter needs protocol 2
                with pytest.raises(TypeError):
                    pickle.dumps(a, protocol)
                continue
            copies.append(pickle.loads(pickle.dumps(a, protocol)))
        for c, rc in zip(copies, ref_copies):
            assert type(c) is type(a) and c == a and repr(c) == repr(a), (a, c)
            assert type(rc) is type(ra) and rc == ra, ra


def _raises_alike(new, ref):
    """Run both; they must raise the same exception type with the same message."""
    with pytest.raises(Exception) as got:
        new()
    with pytest.raises(Exception) as want:
        ref()
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


# ---------------------------------------------------------------------------


def test_poly2_matches_the_dataclass():
    pairs = _polys(SplitMix64(101))
    _assert_same_value_semantics(pairs)
    for (a, ra), (b, rb) in itertools.product(pairs, repeat=2):
        assert (a < b, a <= b, a > b, a >= b) == (ra < rb, ra <= rb, ra > rb, ra >= rb), (a, b)
    # against another type each order method defers, so the operator raises
    a, ra = pairs[5]
    for x in (0, None, (a.bits,)):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(a, op)(x) is getattr(a, op)(ra) is NotImplemented
            assert getattr(ra, op)(x) is getattr(ra, op)(a) is NotImplemented
    with pytest.raises(TypeError):
        a < 0
    with pytest.raises(TypeError):
        ra >= None
    _assert_round_trips(pairs)


def test_cyclicseq_matches_the_dataclass():
    pairs = _seqs(SplitMix64(103))
    _assert_same_value_semantics(pairs)
    _assert_round_trips(pairs)


def test_opmeter_matches_the_dataclass():
    pairs = _meters(SplitMix64(107))
    _assert_same_value_semantics(pairs, hashable=False)
    _assert_round_trips(pairs)
    # defaults, keywords and mutation as before
    a, ra = cyclicseq.OpMeter(cmp_ops=3), OpMeter(cmp_ops=3)
    a.xor_ops += 5
    ra.xor_ops += 5
    assert repr(a) == repr(ra) == "OpMeter(xor_ops=5, cmp_ops=3, counter_ops=0)"
    assert a.as_dict() == {"xor": 5, "cmp": 3, "counter": 0, "total": 8}


def test_records_match_the_dataclasses():
    for pairs in (_factor_powers(), _factorizations(), _choices()):
        _assert_same_value_semantics(pairs)
        _assert_round_trips(pairs)
    # rows hold the dispatch lambdas, which pickle refuses in both versions
    _assert_same_value_semantics(_algorithms())
    _assert_round_trips(_algorithms(), pickled=False)
    # the one intended difference: a namedtuple record equals the plain tuple
    # of its fields, where a dataclass equals only its own class
    for a, ra in _factorizations() + _choices():
        assert a == tuple(a) and ra != tuple(a)


def test_assignment_and_deletion_raise_attribute_error():
    samples = [
        (_polys(SplitMix64(109))[7], "bits"),
        (_seqs(SplitMix64(113))[7], "n"),
        (_factor_powers()[1], "poly"),
        (_factorizations()[3], "factors"),
        (_choices()[9], "tag"),
        (_algorithms()[0], "fast"),
    ]
    for (a, ra), name in samples:
        for obj in (a, ra):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            with pytest.raises(AttributeError):
                obj.unknown = 1
    # the frozen classes keep the dataclass messages; FrozenInstanceError was
    # a subclass of AttributeError, which is now raised itself
    for (a, ra), name in samples[:2]:
        for action in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            with pytest.raises(AttributeError) as got:
                action(a)
            with pytest.raises(AttributeError) as want:
                action(ra)
            assert type(got.value) is AttributeError and str(got.value) == str(want.value)
    # the meter stays mutable, with a fixed set of fields
    a, ra = cyclicseq.OpMeter(1, 2, 3), OpMeter(1, 2, 3)
    for obj in (a, ra):
        obj.counter_ops = 9
        with pytest.raises(AttributeError):
            obj.unknown = 1
    assert a == cyclicseq.OpMeter(1, 2, 9) and ra == OpMeter(1, 2, 9)


def test_validation_matches_the_dataclasses():
    for bits in (-1, -(1 << 70)):
        _raises_alike(lambda: gf2poly.Poly2(bits), lambda: Poly2(bits))
    for bits, n in ((0, 0), (1, -3), (-1, 4), (16, 4), (1 << 70, 70), (1, None)):
        _raises_alike(lambda: cyclicseq.CyclicSeq(bits, n), lambda: CyclicSeq(bits, n))
    for new, ref in ((gf2poly.Poly2, Poly2), (cyclicseq.CyclicSeq, CyclicSeq),
                     (lincomplex.AlgorithmChoice, AlgorithmChoice)):
        with pytest.raises(TypeError):
            new()
        with pytest.raises(TypeError):
            ref()
    # Factorization.validate: one failing record per message
    fac = gf2poly.factor_xn_minus_1(15)
    q, alpha, gamma = fac.factors[1]
    bad = [
        fac.factors + (fac.factors[1],),
        (gf2poly.FactorPower(q, 0, gamma),) + fac.factors[2:],
        (gf2poly.FactorPower(q, 3, 1),) + fac.factors[2:],
        fac.factors[:-1],
    ]
    for factors in bad:
        new = gf2poly.Factorization(15, factors)
        ref = _reference_factorization(new)
        _raises_alike(new.validate, ref.validate)
    fac.validate()
    _reference_factorization(fac).validate()
