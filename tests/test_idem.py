import random
from math import gcd

import pytest

from princlab.idem import (
    CertificateError,
    bezout_in_inverse,
    complement_identity,
    idem_matrix,
    is_idempotent_pair,
    pair_from_invertible,
)
from princlab.poly import QQ_POLY, Poly
from princlab.quadring import QuadElem, QuadOrder, ideal_from_pair, ideal_is_principal, principal_ideal
from princlab.rational import Fraction
from princlab.report import enc
from princlab.rings import ZZ
from princlab.sphere import mat_mul
from rechecked import pair_rechecks, recheck


def derived_rechecks(a, b, cert, pair, ring, complement=None):
    """The pair derived from (a, b) and its Bezout certificate, and its
    complement certificate when given, pass recheck as an `idem from-ideal`
    report."""
    result = {"a": enc(a), "b": enc(b), "bezout": enc(cert), "pair": enc(pair), "complement": enc(complement)}
    return recheck("idem from-ideal", ring, result, "pair_derived") == []


def test_integer_pair_detection():
    p = is_idempotent_pair(-2, -3, ZZ)
    assert p is not None and p.orientation == "ab" and p.witness == 2
    assert pair_rechecks(p, ZZ)

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
        assert mat_mul(m, m) == m


def test_pair_from_invertible_integers():
    cert = bezout_in_inverse(4, 6, ZZ)
    assert cert.lam == Fraction(-1, 2) and cert.mu == Fraction(1, 2)
    pair = pair_from_invertible(4, 6, cert, ZZ)
    assert (pair.a, pair.b, pair.witness) == (-2, -3, 2)
    assert derived_rechecks(4, 6, cert, pair, ZZ)

    cert = bezout_in_inverse(1, 11, ZZ)
    pair = pair_from_invertible(1, 11, cert, ZZ)
    assert (pair.a, pair.b, pair.witness) == (1, 11, 0)


def test_pair_from_invertible_quad_nonprincipal():
    order = QuadOrder(-5)
    a, b = QuadElem(2, 0, -5), QuadElem(1, 1, -5)
    cert = bezout_in_inverse(a, b, order)
    assert cert is not None
    pair = pair_from_invertible(a, b, cert, order)
    assert derived_rechecks(a, b, cert, pair, order)
    verdict = ideal_is_principal(ideal_from_pair(pair.a, pair.b))
    assert verdict.status == "non_principal"


def test_pair_from_invertible_rejects_bad_cert():
    from princlab.idem import BezoutCert

    # lam, mu not in the inverse ideal: identity holds but products leave Z
    with pytest.raises(CertificateError):
        pair_from_invertible(4, 6, BezoutCert(Fraction(1, 4), Fraction(-1, 12)), ZZ)


def complement_ideals_agree(pair):
    """(f, s)(1-f, s) == (s) on ideals, decided apart from the element
    certificate: by gcds over Z, by HNF lattices over Z[sqrt(d)]."""
    f, s, _ = pair.normalized()
    if pair.ring is ZZ:
        return gcd(f, s) * gcd(1 - f, s) == abs(s)
    return ideal_from_pair(f, s).mul(ideal_from_pair(pair.ring.one - f, s)) == principal_ideal(s)


def test_complement_identity_int():
    p = is_idempotent_pair(-2, -3, ZZ)
    cert = complement_identity(p)
    assert cert.generator == -3
    assert complement_ideals_agree(p)
    assert pair_rechecks(p, ZZ, cert)

    p = is_idempotent_pair(0, 9, ZZ)
    cert = complement_identity(p)
    assert cert.generator == 9 and pair_rechecks(p, ZZ, cert)
    assert complement_ideals_agree(p)


def test_complement_identity_quad():
    order = QuadOrder(-5)
    a, b = QuadElem(2, 0, -5), QuadElem(1, 1, -5)
    cert_bz = bezout_in_inverse(a, b, order)
    pair = pair_from_invertible(a, b, cert_bz, order)
    cert = complement_identity(pair)
    assert complement_ideals_agree(pair)
    assert derived_rechecks(a, b, cert_bz, pair, order, cert)


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
        assert derived_rechecks(a, b, cert, pair, ZZ, complement_identity(pair))

    order = QuadOrder(-5)
    for _ in range(100):
        a, b = _random_quad_ideal(rng, order)
        cert = bezout_in_inverse(a, b, order)
        assert cert is not None
        pair = pair_from_invertible(a, b, cert, order)
        redetect = is_idempotent_pair(pair.a, pair.b, order)
        assert redetect is not None
        assert derived_rechecks(a, b, cert, pair, order, complement_identity(pair))


def test_poly_ring_pairs():
    rng = random.Random(7)
    for _ in range(50):
        f = Poly([Fraction(rng.randrange(-4, 5)) for _ in range(rng.randrange(1, 4))])
        g = Poly([Fraction(rng.randrange(-4, 5)) for _ in range(rng.randrange(1, 4))])
        if f.is_zero() and g.is_zero():
            continue
        cert = bezout_in_inverse(f, g, QQ_POLY)
        pair = pair_from_invertible(f, g, cert, QQ_POLY)
        assert is_idempotent_pair(pair.a, pair.b, QQ_POLY) is not None
        assert derived_rechecks(f, g, cert, pair, QQ_POLY, complement_identity(pair))
