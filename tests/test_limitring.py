import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_ref import fraction_add, fraction_lift, fraction_mul, std, strip
from princlab import cli, limitring
from princlab.poly import Poly
from princlab.limitring import LimitElem, LimitError, LimitRing, lr_chain, lr_lift
from princlab.rational import Fraction
from princlab.rings import QQ, ZZ
from rechecked import recheck

F = Fraction
RQ = LimitRing(QQ)
RZ = LimitRing(ZZ)


def test_lift_spec_cases():
    x1 = RQ.gen(1)
    lifted = lr_lift(x1, 2)
    assert lifted.poly == Poly((F(0), F(1), F(1)))  # x + x^2

    five = RQ.coerce(5)
    assert lr_lift(five, 4).poly == Poly((F(5),))

    l3 = lr_lift(x1, 3)
    assert l3.poly == Poly((F(0), F(1), F(2), F(2), F(1)))

    with pytest.raises(LimitError):
        lr_lift(RQ.gen(3), 2)


def test_a_constant_lifts_to_any_level_without_an_iterate(capsys):
    # phi^k has degree 2^k, so an iterate built for a constant would not end
    built = len(limitring._ITERATES)
    assert lr_lift(RQ.coerce(5), 60) == LimitElem(60, Poly((5,)), RQ)
    assert lr_lift(RZ.zero, 60).poly.is_zero()
    assert (RQ.gen(60) + 1).level == 60 and (RQ.gen(60) + 1).poly == Poly((1, 1))
    assert (2 * RQ.gen(30)).poly == Poly((0, 2))
    assert (RQ.gen(3) ** 0).poly == Poly((1,))
    assert cli.main(["--recheck", "limitring", "eval", "1", "--level", "60"]) == 0
    element = json.loads(capsys.readouterr().out)["result"]["element"]
    assert element["level"] == 60 and element["coeffs"] == [{"type": "rat", "value": "1"}]
    assert len(limitring._ITERATES) == built


def test_lift_coherence_random():
    rng = random.Random(3)
    for _ in range(60):
        lvl = rng.randrange(1, 4)
        e = LimitElem(lvl, Poly([F(rng.randrange(-4, 5)) for _ in range(4)]), RQ)
        m = lvl + rng.randrange(0, 3)
        k = m + rng.randrange(0, 3)
        assert lr_lift(lr_lift(e, m), k).poly == lr_lift(e, k).poly


def test_arith_spec_cases():
    x1, x2 = RQ.gen(1), RQ.gen(2)
    one = RQ.one
    assert x1 - x2 * (one + x2) == RQ.zero
    assert x1 * one == x1
    assert (one + x2) * (one - x2) == one - x2 * x2


def test_equality_lifts_to_common_level():
    x1, x3 = RQ.gen(1), RQ.gen(3)
    assert x1 == lr_lift(x1, 5)
    assert x1 != x3


def test_chain_m2():
    ch = lr_chain(2, RQ)
    x2, one = RQ.gen(2), RQ.one
    assert ch.factors == [x2, one + x2]
    assert len(ch.pairwise) == 1
    i, j, lam, mu = ch.pairwise[0]
    assert lam == -one and mu == one
    assert recheck("limitring chain", RQ, ch) == []


def test_chain_m3():
    ch = lr_chain(3, RQ)
    prod = RQ.one
    for f in ch.factors:
        prod = prod * f
    assert prod == lr_lift(RQ.gen(1), 3)
    assert recheck("limitring chain", RQ, ch) == []


def test_chain_all_sizes_both_bases():
    for ring in (RQ, RZ):
        for m in range(2, 9):
            ch = lr_chain(m, ring)
            assert len(ch.factors) == m
            assert len(ch.pairwise) == m * (m - 1) // 2
            assert recheck("limitring chain", ring, ch) == []
    with pytest.raises(LimitError):
        lr_chain(1, RQ)


def test_integer_base_rejects_fractions():
    with pytest.raises(LimitError):
        LimitElem(1, Poly((F(1, 2),)), RZ)
    # and the same polynomial is fine over Q
    LimitElem(1, Poly((F(1, 2),)), RQ)


def test_divides():
    x1, x2 = RQ.gen(1), RQ.gen(2)
    one = RQ.one
    q = RQ.divides(x2, x1)
    assert q == one + x2
    assert RQ.divides(x1, x2) is None
    # over Z the quotient coefficients must be integers
    assert RZ.divides(RZ.coerce(2), RZ.gen(1)) is None
    assert RZ.divides(RZ.coerce(2), RZ.coerce(6)) == RZ.coerce(3)


ints_or_fractions = st.one_of(
    st.lists(st.integers(-9, 9), max_size=5),
    st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 6)), max_size=5),
)


@settings(max_examples=150, deadline=None)
@given(cs=ints_or_fractions, level=st.integers(1, 3), k=st.integers(0, 6), base=st.sampled_from([RQ, RZ]))
def test_the_iterate_lift_is_the_level_by_level_lift(cs, level, k, base):
    if base is RZ and any(F(c).denominator != 1 for c in cs):
        return
    e = LimitElem(level, Poly(cs), base)
    p = Poly([F(c) for c in cs])
    for _ in range(k):
        p = p.compose(Poly((F(0), F(1), F(1))))
    lifted = lr_lift(e, level + k)
    assert lifted.level == level + k and lifted.poly == p
    # ints exactly when every coefficient is an integer, the same at every level
    integral = all(F(c).denominator == 1 for c in cs)
    assert all(type(c) is (int if integral else F) for c in lifted.poly.coeffs)


@settings(max_examples=200, deadline=None)
@given(a=ints_or_fractions, b=ints_or_fractions, la=st.integers(1, 3), lb=st.integers(1, 3), n=st.integers(0, 4),
       base=st.sampled_from([RQ, RZ]))
def test_sums_products_and_powers_match_a_fraction_reference(a, b, la, lb, n, base):
    if base is RZ and any(F(c).denominator != 1 for c in a + b):
        return
    x, y = LimitElem(la, Poly(a), base), LimitElem(lb, Poly(b), base)
    # the reference runs on the stdlib's Fractions
    ca, cb = strip(std(map(F, a))), strip(std(map(F, b)))
    top = max(la, lb)
    fa, fb = fraction_lift(ca, top - la), fraction_lift(cb, top - lb)

    def power(cs, k):
        out = (1,)
        for _ in range(k):
            out = fraction_mul(out, cs)
        return out

    # (result, the level it must sit at, its value by Fraction loops)
    cases = [(x + y, top, fraction_add(fa, fb)), (x * y, top, fraction_mul(fa, fb)), (x**n, la, power(ca, n))]
    if len(ca) == 1 and (base is RQ or abs(ca[0]) == 1):
        # a nonzero constant whose inverse lies in the base
        cases.append((x**-n, la, power((1 / ca[0],), n)))
    for got, level, want in cases:
        assert got.level == level and std(got.poly.coeffs) == want
        # ints exactly when every coefficient is an integer
        integral = all(w.denominator == 1 for w in want)
        assert all(type(v) is (int if integral else F) for v in got.poly.coeffs)


def test_chain_elements_are_integer_vectors():
    for ring in (RQ, RZ):
        ch = lr_chain(6, ring)
        elems = ch.factors + [v for _, _, lam, mu in ch.pairwise for v in (lam, mu)]
        assert all(type(c) is int for e in elems for c in e.poly.coeffs)


def test_a_chain_and_its_recheck_keep_no_iterates():
    # the iterates of x + x^2 an m 10 chain needs are about 60 kB in each of
    # limitring and recheck; a call that kept them would leave them traced.
    # A full collection first empties the interpreter's free lists.
    import gc
    import tracemalloc

    from princlab.recheck import verify_report
    from princlab.report import enc, make_report

    def traced():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    def report(m):
        return make_report("limitring chain", RQ, "chain", enc(lr_chain(m, RQ)))

    assert verify_report(report(3)) == []  # first calls fill lasting caches
    tracemalloc.start()
    try:
        before = traced()
        lr_chain(10, RQ)
        assert traced() - before < 4096
        ten = report(10)
        before = traced()
        assert verify_report(ten) == []
        assert traced() - before < 4096
    finally:
        tracemalloc.stop()
