"""The operators `core.RingElem` derives (binary -, the reflected forms and
nonnegative **) and the ring-handle identity `core.RingHandle` gives, checked
on every element class and handle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from princlab.core import Poly, RatFunc, RingElem, RingHandle
from princlab.limitring import LimitElem, LimitRing
from princlab.monoidring import MonoidDesc, MonoidElem, MonoidRing
from princlab.polyext import PolyExtRing, SubringDesc
from princlab.pullback import PullbackRing
from princlab.quadring import QuadElem, QuadOrder, QuadRat
from princlab.rings import QQ, QQ_POLY, ZZ, IntegerRing, LocalizedIntegers, RationalField, RationalPolyRing
from princlab.sphere import B2, Poly2, SphereElem, SphereRing

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
    "RatFunc": (st.builds(RatFunc, polys, nonzero_polys), RatFunc.const(1)),
    "QuadElem": (st.builds(QuadElem, small, small, st.just(D)), QuadElem(1, 0, D)),
    "QuadRat": (st.builds(QuadRat, rats, rats, st.just(D)), QuadRat(1, 0, D)),
    "MonoidElem": (
        st.lists(st.tuples(st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 4])), rats), max_size=3)
        .map(lambda terms: MonoidElem(terms, MR)),
        MR.one,
    ),
    "LimitElem": (st.builds(LimitElem, st.integers(1, 3), polys, st.just(LR)), LR.one),
    # value at 0 is the integer c; the rest vanishes at 0 and has no pole there
    "PullbackElem": (
        st.builds(lambda c, p, q: PB.coerce(c) + PB.coerce(RatFunc(p.shift(1), Poly((1,)) + q.shift(1))),
                  small, polys, polys),
        PB.one,
    ),
    "Poly2": (poly2s, Poly2.const(1)),
    "SphereElem": (st.builds(SphereElem, poly2s, poly2s), B2.one),
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
        if kind == "RatFunc":
            if a:
                assert a ** -2 * a * a == one
        else:
            with pytest.raises(ValueError):
                a ** -1

    check()


HANDLES = [
    ZZ, IntegerRing(), QQ, RationalField(), QQ_POLY, RationalPolyRing(),
    LocalizedIntegers([2]), LocalizedIntegers([3]), LocalizedIntegers([2, 3]),
    QuadOrder(-1), QuadOrder(-5), MR, MonoidRing(QQ, MonoidDesc((3,))), MonoidRing(ZZ, MonoidDesc((2,))),
    LR, LimitRing(ZZ), PB, PullbackRing(QuadOrder(-5)), PolyExtRing(SubringDesc({1})), PolyExtRing(SubringDesc({1, 2, 3})),
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
