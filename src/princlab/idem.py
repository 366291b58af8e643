"""The idempotent-pair engine.

A pair (a, b) is idempotent when a(1-a) is a multiple of b or b(1-b) is a
multiple of a; the quotient is kept as a witness so every acceptance is a
re-checkable identity.  From a pair one gets a 2x2 idempotent matrix, the
complement identity (a, b)(1-a, b) = bR, and, going the other way, any
two-generated invertible ideal yields a pair through its Bezout data.

The inverse-ideal Bezout solver is the ring handle's hook
(`inverse_bezout`); rings without it get no Bezout data.  `idem_matrix`
and `complement_identity` trust the witness of a pair this module built,
and `recheck` alone checks every identity.

`IdemPair`, `BezoutCert` and `ComplementCert` are plain classes with an
explicit `__init__`; see `core` for why not dataclasses.
"""

from __future__ import annotations

from .core import CertificateError


class IdemPair:
    def __init__(self, ring, a, b, orientation: str, witness):
        self.ring = ring
        self.a = a
        self.b = b
        self.orientation = orientation  # "ab": a(1-a) in bR, witness r = a(1-a)/b; "ba" symmetric
        self.witness = witness

    def normalized(self):
        """(f, s, r) with f(1-f) == s*r."""
        if self.orientation == "ab":
            return self.a, self.b, self.witness
        return self.b, self.a, self.witness

    def to_json(self, enc):
        return {
            "a": enc(self.a),
            "b": enc(self.b),
            "orientation": self.orientation,
            "witness": enc(self.witness),
        }


def is_idempotent_pair(a, b, ring) -> IdemPair | None:
    """Try both orientations; on success the stored one is the first that holds."""
    one = ring.one
    q = ring.divides(b, a * (one - a))
    if q is not None:
        return IdemPair(ring, a, b, "ab", q)
    q = ring.divides(a, b * (one - b))
    if q is not None:
        return IdemPair(ring, a, b, "ba", q)
    return None


def idem_matrix(pair: IdemPair):
    """2x2 idempotent matrix with the pair as first row."""
    f, s, r = pair.normalized()
    return [[f, s], [r, pair.ring.one - f]]


class BezoutCert:
    """lam*a + mu*b == 1 with lam, mu in the inverse ideal (a, b)^-1."""

    def __init__(self, lam, mu):
        self.lam = lam
        self.mu = mu

    def to_json(self, enc):
        return {"lam": enc(self.lam), "mu": enc(self.mu)}


def bezout_in_inverse(a, b, ring) -> BezoutCert | None:
    """lam, mu in I^{-1} (I = (a, b)) with lam*a + mu*b == 1, when I is invertible."""
    if not hasattr(ring, "inverse_bezout"):
        raise ValueError(f"no inverse-ideal Bezout solver for {ring}")
    cert = ring.inverse_bezout(a, b)
    return None if cert is None else BezoutCert(*cert)


def pair_from_invertible(a, b, cert: BezoutCert, ring) -> IdemPair:
    """Lemma-style transform: (a, b) invertible with lam*a + mu*b == 1 gives
    the idempotent pair (lam*a, lam*b) with witness mu*a.

    All four products lam*a, lam*b, mu*a, mu*b must land in the ring (that is
    the content of lam, mu lying in the inverse ideal).  The pair's relation
    then holds: lam*a*(1 - lam*a) == lam*a*mu*b == (lam*b)*(mu*a).
    """
    fa = ring.field_coerce(a)
    fb = ring.field_coerce(b)
    lam, mu = cert.lam, cert.mu
    try:
        pa, pb, wit, _ = [ring.from_field(p) for p in (lam * fa, lam * fb, mu * fa, mu * fb)]
    except ValueError:
        raise CertificateError("lam, mu do not lie in the inverse ideal") from None
    return IdemPair(ring, pa, pb, "ab", wit)


class ComplementCert:
    """The certificate of (f, s)(1-f, s) == (s) for a normalized pair.

    products are the four generators of the left-hand side and quotients
    divide each by s, so the product ideal lies in (s); s itself is
    products[1] + products[2], so (s) lies in the product ideal.
    """

    def __init__(self, generator, products: list, quotients: list):
        self.generator = generator
        self.products = products
        self.quotients = quotients

    def to_json(self, enc):
        return {
            "generator": enc(self.generator),
            "products": enc(self.products),
            "quotients": enc(self.quotients),
        }


def complement_identity(pair: IdemPair) -> ComplementCert:
    """Certify the product-ideal identity for a pair."""
    f, s, r = pair.normalized()
    one = pair.ring.one
    products = [f * (one - f), f * s, s * (one - f), s * s]
    quotients = [r, f, one - f, s]
    return ComplementCert(s, products, quotients)
