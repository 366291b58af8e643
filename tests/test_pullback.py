import random
from fractions import Fraction

import pytest

from princlab.core import Poly, RatFunc
from princlab.idem import bezout_in_inverse, is_idempotent_pair, pair_from_invertible
from princlab.pullback import (
    PullbackElem,
    PullbackError,
    PullbackRing,
    pb_inverse,
    pb_is_unit,
    pb_member,
    pb_nonufd_chain,
    pb_reduce_idem_pair,
)
from princlab.quadring import QuadElem, QuadOrder
from princlab.rings import ZZ

RZ = PullbackRing(ZZ)
Y = RZ.y()
ONE = RZ.one


def rf(num, den=(1,)):
    return RatFunc(Poly([Fraction(c) for c in num]), Poly([Fraction(c) for c in den]))


def rand_elem(rng, max_deg=3):
    # c + (Y*g)/h with h(0) != 0 always lies in R
    c = rng.randrange(-5, 6)
    g = Poly([Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(0, max_deg + 1))])
    h = Poly(
        [Fraction(rng.choice([1, 2, 3, -1]))]
        + [Fraction(rng.randrange(-3, 4)) for _ in range(rng.randrange(0, max_deg))]
    )
    return RZ.coerce(c) + PullbackElem(RatFunc(g.shift(1), h), RZ)


def test_membership_spec_cases():
    assert pb_member(rf((0, 1), (3, 1)), RZ) is not None  # Y/(3+Y)
    assert pb_member(rf((5, 0, 1)), RZ) is not None  # 5 + Y^2
    assert pb_member(rf((Fraction(1, 2), 1)), RZ) is None  # 1/2 + Y
    with pytest.raises(PullbackError):
        pb_member(rf((1,), (0, 1)), RZ)  # 1/Y has a pole


def test_units_spec_cases():
    assert pb_is_unit(ONE - Y)
    assert not pb_is_unit(RZ.coerce(3) + Y)
    # -1 + Y/(1+Y) has value -1
    e = RZ.coerce(-1) + PullbackElem(rf((0, 1), (1, 1)), RZ)
    assert pb_is_unit(e)
    assert not pb_is_unit(RZ.zero)


def test_unit_inverse_cross_check():
    rng = random.Random(3)
    for _ in range(100):
        z = rand_elem(rng)
        z = z - RZ.coerce(z.value0)  # force into M
        c = rng.choice([1, -1, 2, 3, 0, -4])
        x = RZ.coerce(c) + z
        if not x:
            continue
        assert pb_is_unit(x) == (c in (1, -1))
        if pb_is_unit(x):
            inv = pb_inverse(x)
            assert x * inv == ONE
            # inverse is itself a member: reconstruct through pb_member
            assert pb_member(inv.rf, RZ) is not None


def test_maximal_ideal_is_Q_stable():
    rng = random.Random(5)
    for _ in range(100):
        z = rand_elem(rng)
        z = z - RZ.coerce(z.value0)
        q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        scaled = z.rf * RatFunc(Poly((q,)))
        assert pb_member(scaled, RZ) is not None


def test_reduce_case_first_in_maximal_ideal():
    a = Y
    b = Y - Y * Y
    red = pb_reduce_idem_pair(a, b, ONE)
    assert red.status == "principal" and red.case == "first_in_maximal_ideal"
    assert red.generator == b
    assert red.verify()
    # two-way membership explicitly
    assert red.generator * red.qa == a and red.generator * red.qb == b


def test_reduce_case_second_in_maximal_ideal():
    # symmetric orientation: b(1-b) in aR with b in M
    a = RZ.coerce(3) + Y
    b = Y * Y
    r = RZ.divides(a, b * (ONE - b))
    assert r is not None
    red = pb_reduce_idem_pair(a, b, r, orientation="ba")
    assert red.status == "principal" and red.case == "first_in_maximal_ideal"
    assert red.generator == a
    assert red.verify()


def test_reduce_case_base_reduction():
    a = RZ.coerce(3) + Y
    b = RZ.coerce(2)
    r = pb_member((a * (ONE - a)).rf / b.rf, RZ)
    assert r is not None
    red = pb_reduce_idem_pair(a, b, r)
    assert red.status == "principal" and red.case == "base_reduction"
    assert red.base_pair == (3, 2)
    assert red.generator == ONE
    assert red.verify()


def test_reduce_case_genuine_case1_orientation_ab():
    a = ONE + Y
    b = Y
    r = RZ.divides(b, a * (ONE - a))
    assert r is not None
    red = pb_reduce_idem_pair(a, b, r)
    assert red.case == "second_in_maximal_ideal"
    assert red.generator == a
    assert red.verify()


def test_reduce_rejects_bad_witness():
    with pytest.raises(PullbackError):
        pb_reduce_idem_pair(Y, Y - Y * Y, RZ.coerce(5))


def test_reduce_base_non_principal_over_quad_base():
    order = QuadOrder(-5)
    R = PullbackRing(order)
    aq, bq = QuadElem(2, 0, -5), QuadElem(1, 1, -5)
    pair = pair_from_invertible(aq, bq, bezout_in_inverse(aq, bq, order), order)
    a, b, r = R.coerce(pair.a), R.coerce(pair.b), R.coerce(pair.witness)
    red = pb_reduce_idem_pair(a, b, r)
    assert red.status == "base_non_principal"
    assert red.generator is None
    assert red.base_verdict.status == "non_principal"


def test_nonufd_chain_spec_cases():
    chain = pb_nonufd_chain(Y, 2, 5)
    assert len(chain) == 5
    assert chain[0] == PullbackElem(rf((0, Fraction(1, 2))), RZ)
    for k, e in enumerate(chain, start=1):
        assert e * RZ.coerce(2**k) == Y

    chain = pb_nonufd_chain(Y * Y, 3, 3)
    assert all(e.in_maximal_ideal() for e in chain)
    assert chain[-1] * RZ.coerce(27) == Y * Y

    with pytest.raises(PullbackError):
        pb_nonufd_chain(ONE + Y, 2, 3)
    with pytest.raises(PullbackError):
        pb_nonufd_chain(Y, 1, 3)  # unit of D
    with pytest.raises(PullbackError):
        pb_nonufd_chain(Y, 0, 3)


def test_divides_and_idem_detection_in_pullback():
    rng = random.Random(11)
    for _ in range(60):
        x = rand_elem(rng)
        # (x, 1-x) is always an idempotent pair
        p = is_idempotent_pair(x, ONE - x, RZ)
        assert p is not None
        assert p.verify()


def test_divides_is_none_when_the_quotient_has_a_pole():
    # 9/Y has a pole at Y=0, so Y does not divide 9 in R; the other way it does
    assert RZ.divides(Y, RZ.coerce(9)) is None
    assert RZ.divides(RZ.coerce(9), Y) == PullbackElem(rf((0, Fraction(1, 9))), RZ)
    p = is_idempotent_pair(RZ.coerce(9), Y, RZ)
    assert p is not None and p.orientation == "ba" and p.verify()
    # user input with a pole is still rejected when it is parsed
    with pytest.raises(PullbackError, match="pole at Y=0"):
        pb_member(rf((1,), (0, 1)), RZ)
