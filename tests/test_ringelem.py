"""The operators `core.RingElem` derives (binary -, the reflected forms and
**) and the ring-handle identity `core.RingHandle` gives, checked on every
element class and handle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from princlab.core import RingElem, RingHandle
from princlab.limitring import LimitElem, LimitRing
from princlab.monoidring import MonoidDesc, MonoidElem, MonoidRing
from princlab.poly import QQ_POLY, Poly, RatFunc, RationalPolyRing
from princlab.pullback import PullbackRing
from princlab.quadring import QuadElem, QuadOrder, ideal_from_pair
from princlab.rational import Fraction
from princlab.rings import QQ, ZZ, IntegerRing, RationalField
from princlab.sphere import B2, Poly2, SphereElem, SphereRing
from princlab.zloc import LocalizedIntegers

small = st.integers(-4, 4)
rats = st.builds(Fraction, small, st.integers(1, 3))
polys = st.lists(rats, max_size=3).map(Poly)
nonzero_polys = st.lists(rats, min_size=1, max_size=3).filter(any).map(Poly)
poly2s = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), rats, max_size=3).map(Poly2)

D = -5
MR = MonoidRing(QQ, MonoidDesc((2,)))
LR = LimitRing(QQ)
PB = PullbackRing(ZZ)

# (strategy for elements, the ring's one)
ELEMENTS = {
    "Poly": (polys, Poly((1,))),
    "RatFunc": (st.builds(RatFunc, polys, nonzero_polys), RatFunc(Poly((1,)))),
    "QuadElem": (st.builds(QuadElem, small, small, st.just(D)), QuadElem(1, 0, D)),
    # Q(sqrt(d)): QuadElem with Fraction coordinates
    "QuadRat": (st.builds(QuadElem, rats, rats, st.just(D)), QuadElem(Fraction(1), Fraction(0), D)),
    "MonoidElem": (
        st.lists(st.tuples(st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 4])), rats), max_size=3)
        .map(lambda terms: MonoidElem(terms, MR)),
        MR.one,
    ),
    "LimitElem": (st.builds(LimitElem, st.integers(1, 3), polys, st.just(LR)), LR.one),
    # value at 0 is the integer c; the rest vanishes at 0 and has no pole there
    "PullbackElem": (
        st.builds(lambda c, p, q: PB.coerce(c) + PB.coerce(RatFunc(Poly((0, *p.coeffs)), Poly((1, *q.coeffs)))),
                  small, polys, polys),
        PB.one,
    ),
    "Poly2": (poly2s, Poly2.const(1)),
    "SphereElem": (st.builds(SphereElem, poly2s, poly2s), B2.one),
}

# classes whose nonzero elements all have negative powers: the fields Q(X)
# and Q(sqrt(d)), and Z[sqrt(d)], whose inverses lie in Q(sqrt(d))
INVERTS_NONZERO = {"RatFunc", "QuadElem", "QuadRat"}

# classes over Q whose nonzero constants, and only those, have negative powers
IS_NONZERO_CONSTANT = {
    "MonoidElem": lambda a: len(a.terms) == 1 and a.terms[0][0] == 0,
    "LimitElem": lambda a: a.poly.degree == 0,
    "SphereElem": B2.is_unit,
}


@pytest.mark.parametrize("kind", ELEMENTS)
def test_derived_operators(kind):
    elems, one = ELEMENTS[kind]

    @settings(max_examples=25, deadline=None)
    @given(elems, elems, small)
    def check(a, b, n):
        assert isinstance(a, RingElem)
        assert a - b == a + (-b)
        assert n - a == -(a - n)
        assert n + a == a + n
        assert n * a == a * n
        assert a ** 3 == a * a * a
        assert a ** 0 == one
        if kind in INVERTS_NONZERO:
            if a:
                assert a ** -2 * a * a == one
            else:
                with pytest.raises(ZeroDivisionError):
                    a ** -1
        elif kind in IS_NONZERO_CONSTANT and IS_NONZERO_CONSTANT[kind](a):
            assert a ** -2 * a * a == one
        else:
            with pytest.raises(ValueError):
                a ** -1

    check()


def _subclasses(cls):
    return {c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))}


def test_repr_of_every_element_class():
    ideal = ideal_from_pair(QuadElem(2, 0, D), QuadElem(1, 1, D))
    values = [one for _, one in ELEMENTS.values()] + [ideal]
    assert {type(v) for v in values} >= _subclasses(RingElem)
    for v in values:
        assert repr(v).startswith(type(v).__name__ + "(")
    assert repr(QuadElem(Fraction(1, 2), Fraction(0), D)) == 'QuadElem({"type": "quadrat", "x": "1/2", "y": "0", "d": "-5"})'


@pytest.mark.parametrize("one", [MR.one, LR.one, LimitRing(QQ).coerce(1) + LR.one - LR.one, B2.one])
def test_negative_power_of_a_nonzero_constant_inverts_it(one):
    half = one * Fraction(1, 2)
    assert half ** -2 == one * 4
    assert (-half) ** -3 == one * -8
    with pytest.raises(ValueError):
        (one - one) ** -1


def test_negative_power_stays_in_the_base():
    zr, zl = MonoidRing(ZZ, MonoidDesc((2,))), LimitRing(ZZ)
    for r in (zr, zl):
        assert (-r.one) ** -3 == -r.one
        with pytest.raises(ValueError, match="outside Z"):
            (r.one * 2) ** -1
    # the level is kept
    c = LimitElem(3, Poly((Fraction(-1),)), LR)
    assert (c ** -1).level == 3


def test_power_forms_only_the_products_it_needs(monkeypatch):
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    x = Poly((0, 1))
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
        calls.clear()
        assert x**n == Poly((0,) * n + (1,))
        assert len(calls) == products, n


HANDLES = [
    ZZ, IntegerRing(), QQ, RationalField(), QQ_POLY, RationalPolyRing(),
    LocalizedIntegers([2]), LocalizedIntegers([3]), LocalizedIntegers([2, 3]),
    QuadOrder(-1), QuadOrder(-5), MR, MonoidRing(QQ, MonoidDesc((3,))), MonoidRing(ZZ, MonoidDesc((2,))),
    LR, LimitRing(ZZ), PB, PullbackRing(QuadOrder(-5)),
    B2, SphereRing(),
]


def test_same_ring_iff_same_description():
    for r in HANDLES:
        assert isinstance(r, RingHandle)
        for s in HANDLES:
            same = r.to_json() == s.to_json()
            assert (r == s) is same and (r != s) is not same, (r, s)
            if same:
                assert hash(r) == hash(s)
        # a description is not a ring
        assert r != r.to_json()
