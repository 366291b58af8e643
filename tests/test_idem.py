import random
from fractions import Fraction

import pytest

from princlab.core import Poly
from princlab.idem import (
    CertificateError,
    IdemPair,
    InvalidWitnessError,
    bezout_in_inverse,
    complement_identity,
    idem_matrix,
    is_idempotent_pair,
    pair_from_invertible,
)
from princlab.quadring import QuadElem, QuadOrder, ideal_from_pair, ideal_is_principal
from princlab.rings import QQ_POLY, ZZ


def test_integer_pair_detection():
    p = is_idempotent_pair(-2, -3, ZZ)
    assert p is not None and p.orientation == "ab" and p.witness == 2
    assert p.verify()

    p = is_idempotent_pair(0, 17, ZZ)
    assert p is not None and p.witness == 0

    # (2, 5) still qualifies through the second orientation
    p = is_idempotent_pair(2, 5, ZZ)
    assert p is not None and p.orientation == "ba" and p.witness == -10

    assert is_idempotent_pair(4, 7, ZZ) is None
    # both orientations hold -> the first is stored
    p = is_idempotent_pair(0, 0, ZZ)
    assert p.orientation == "ab"


def test_quad_pair_detection():
    order = QuadOrder(-5)
    a, b = QuadElem(2, 0, -5), QuadElem(1, 1, -5)
    assert is_idempotent_pair(a, b, order) is None


def test_idem_matrix():
    p = is_idempotent_pair(-2, -3, ZZ)
    m = idem_matrix(p)
    assert m == [[-2, -3], [2, 3]]

    z = is_idempotent_pair(0, 0, ZZ)
    assert idem_matrix(z) == [[0, 0], [0, 1]]

    u = is_idempotent_pair(1, 0, ZZ)
    assert idem_matrix(u) == [[1, 0], [0, 0]]

    bad = IdemPair(ZZ, -2, -3, "ab", 5)
    with pytest.raises(InvalidWitnessError):
        idem_matrix(bad)


def test_matrix_idempotent_for_random_pairs():
    rng = random.Random(5)
    for _ in range(100):
        a = rng.randrange(-20, 21)
        s = a * (1 - a)
        divisors = [d for d in range(1, abs(s) + 1) if s % d == 0] or [1]
        b = rng.choice(divisors) * rng.choice((1, -1))
        p = is_idempotent_pair(a, b, ZZ)
        assert p is not None
        m = idem_matrix(p)
        f, snd, r = p.normalized()
        assert m[0] == [f, snd]


def test_pair_from_invertible_integers():
    cert = bezout_in_inverse(4, 6, ZZ)
    assert cert.lam == Fraction(-1, 2) and cert.mu == Fraction(1, 2)
    pair = pair_from_invertible(4, 6, cert, ZZ)
    assert (pair.a, pair.b, pair.witness) == (-2, -3, 2)
    assert pair.verify()

    cert = bezout_in_inverse(1, 11, ZZ)
    pair = pair_from_invertible(1, 11, cert, ZZ)
    assert (pair.a, pair.b, pair.witness) == (1, 11, 0)


def test_pair_from_invertible_quad_nonprincipal():
    order = QuadOrder(-5)
    a, b = QuadElem(2, 0, -5), QuadElem(1, 1, -5)
    cert = bezout_in_inverse(a, b, order)
    assert cert is not None
    pair = pair_from_invertible(a, b, cert, order)
    assert pair.verify()
    verdict = ideal_is_principal(ideal_from_pair(pair.a, pair.b))
    assert verdict.status == "non_principal"


def test_pair_from_invertible_rejects_bad_cert():
    from princlab.idem import BezoutCert

    with pytest.raises(CertificateError):
        pair_from_invertible(4, 6, BezoutCert(Fraction(1), Fraction(1)), ZZ)
    # lam, mu not in the inverse ideal: identity holds but products leave Z
    with pytest.raises(CertificateError):
        pair_from_invertible(4, 6, BezoutCert(Fraction(1, 4), Fraction(-1, 12)), ZZ)


def test_complement_identity_int():
    p = is_idempotent_pair(-2, -3, ZZ)
    cert = complement_identity(p)
    assert cert.generator == -3
    assert cert.ideal_check is True
    assert cert.verify()

    p = is_idempotent_pair(0, 9, ZZ)
    cert = complement_identity(p)
    assert cert.generator == 9 and cert.verify()


def test_complement_identity_quad():
    order = QuadOrder(-5)
    a, b = QuadElem(2, 0, -5), QuadElem(1, 1, -5)
    cert_bz = bezout_in_inverse(a, b, order)
    pair = pair_from_invertible(a, b, cert_bz, order)
    cert = complement_identity(pair)
    assert cert.ideal_check is True
    assert cert.verify()


def _random_quad_ideal(rng, order):
    # products of split/ramified primes above 2, 3, 7
    primes = [
        QuadElem(2, 0, -5),
        QuadElem(1, 1, -5),
        QuadElem(3, 0, -5),
        QuadElem(1, -1, -5),
        QuadElem(7, 0, -5),
        QuadElem(3, 1, -5),
        QuadElem(3, -1, -5),
    ]
    i = ideal_from_pair(QuadElem(1, 0, -5), QuadElem(0, 0, -5))
    for _ in range(rng.randrange(1, 4)):
        g = rng.choice(primes)
        i = i.mul(ideal_from_pair(g, QuadElem(0, 0, -5)))
    # two-generated form straight from the lattice basis
    return i.basis


def test_round_trip_invariant():
    rng = random.Random(101)
    for _ in range(100):
        a = rng.randrange(-50, 51)
        b = rng.randrange(-50, 51)
        if a == 0 and b == 0:
            continue
        cert = bezout_in_inverse(a, b, ZZ)
        pair = pair_from_invertible(a, b, cert, ZZ)
        redetect = is_idempotent_pair(pair.a, pair.b, ZZ)
        assert redetect is not None
        assert complement_identity(pair).verify()

    order = QuadOrder(-5)
    for _ in range(100):
        a, b = _random_quad_ideal(rng, order)
        cert = bezout_in_inverse(a, b, order)
        assert cert is not None
        pair = pair_from_invertible(a, b, cert, order)
        redetect = is_idempotent_pair(pair.a, pair.b, order)
        assert redetect is not None
        assert complement_identity(pair).verify()


def test_poly_ring_pairs():
    rng = random.Random(7)
    for _ in range(50):
        f = Poly([Fraction(rng.randrange(-4, 5)) for _ in range(rng.randrange(1, 4))])
        g = Poly([Fraction(rng.randrange(-4, 5)) for _ in range(rng.randrange(1, 4))])
        if f.is_zero() and g.is_zero():
            continue
        cert = bezout_in_inverse(f, g, QQ_POLY)
        pair = pair_from_invertible(f, g, cert, QQ_POLY)
        assert pair.verify()
        assert is_idempotent_pair(pair.a, pair.b, QQ_POLY) is not None
        assert complement_identity(pair).verify()
