import random

from princlab.rational import Fraction
from princlab.sphere import (
    B2,
    Poly2,
    SphereElem,
    X0_SQUARED,
    tangent_projector,
)

F = Fraction


def from_trivariate(terms) -> SphereElem:
    """Reduce a polynomial in X0, X1, X2 (terms {(e0,e1,e2): c}) modulo
    X0^2 -> 1 - X1^2 - X2^2 with Poly2 arithmetic alone, so the tests
    below check SphereElem's product against a second reduction."""
    f, g = Poly2(), Poly2()
    for (e0, e1, e2), c in terms.items():
        part = Poly2({(e1, e2): c}) * X0_SQUARED ** (e0 // 2)
        if e0 % 2:
            g = g + part
        else:
            f = f + part
    return SphereElem(f, g)


def test_defining_relation():
    x0 = B2.x(0)
    assert x0 * x0 == SphereElem(X0_SQUARED)

    x1, x2 = B2.x(1), B2.x(2)
    assert x0 * x0 + x1 * x1 + x2 * x2 == B2.one

    assert (B2.one + x0) * (B2.one - x0) == x1 * x1 + x2 * x2


def test_from_trivariate_reduction():
    # X0^3 reduces to X0*(1 - X1^2 - X2^2)
    e = from_trivariate({(3, 0, 0): F(1)})
    assert e == B2.x(0) * SphereElem(X0_SQUARED)


def rand_trivariate(rng, nterms=4, maxdeg=2):
    return {
        (rng.randrange(0, maxdeg + 1), rng.randrange(0, maxdeg + 1), rng.randrange(0, maxdeg + 1)): F(
            rng.randrange(-4, 5)
        )
        for _ in range(rng.randrange(1, nterms + 1))
    }


def test_canonical_form_uniqueness():
    # u and u + relation*w reduce to the same representative
    rng = random.Random(13)
    relation = {(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1), (0, 0, 0): F(-1)}
    for _ in range(100):
        u = rand_trivariate(rng)
        w = rand_trivariate(rng)
        prod = {}
        for (a0, a1, a2), c in relation.items():
            for (b0, b1, b2), d in w.items():
                k = (a0 + b0, a1 + b1, a2 + b2)
                prod[k] = prod.get(k, F(0)) + c * d
        shifted = dict(u)
        for k, c in prod.items():
            shifted[k] = shifted.get(k, F(0)) + c
        assert from_trivariate(u) == from_trivariate(shifted)


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(50):
        a = from_trivariate(rand_trivariate(rng))
        b = from_trivariate(rand_trivariate(rng))
        c = from_trivariate(rand_trivariate(rng))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_norm_multiplicative():
    rng = random.Random(19)
    for _ in range(40):
        a = from_trivariate(rand_trivariate(rng))
        b = from_trivariate(rand_trivariate(rng))
        assert (a * b).norm() == a.norm() * b.norm()


def test_divides():
    x0, x1 = B2.x(0), B2.x(1)
    a = (B2.one + x0) * (x1 + x0)
    q = B2.divides(B2.one + x0, a)
    assert q == x1 + x0
    # 1 + x0 does not divide x1: the quotient would need denominators
    assert B2.divides(B2.one + x0, x1) is None

    rng = random.Random(23)
    for _ in range(30):
        b = from_trivariate(rand_trivariate(rng))
        w = from_trivariate(rand_trivariate(rng))
        if not b:
            continue
        assert B2.divides(b, b * w) == w


def test_units():
    assert B2.is_unit(SphereElem.const(F(3, 7)))
    assert not B2.is_unit(B2.zero)
    assert not B2.is_unit(B2.x(0))
    assert not B2.is_unit(B2.one + B2.x(1))


def test_tangent_projector():
    rep = tangent_projector()
    assert all(ok for _, ok in rep.checks)
    labels = [name for name, _ in rep.checks]
    assert labels == ["E*E == E", "E*x^T == 0", "x*E == 0", "trace(E) == 2", "x*x^T == 1"]
    e = rep.matrix
    # spot-check an entry: E[0][0] = 1 - x0^2 = X1^2 + X2^2
    x1, x2 = B2.x(1), B2.x(2)
    assert e[0][0] == x1 * x1 + x2 * x2
