"""The idempotent-pair engine.

A pair (a, b) is idempotent when a(1-a) is a multiple of b or b(1-b) is a
multiple of a; the quotient is kept as a witness so every acceptance is a
re-checkable identity.  From a pair one gets a 2x2 idempotent matrix, the
complement identity (a, b)(1-a, b) = bR, and, going the other way, any
two-generated invertible ideal yields a pair through its Bezout data.

The inverse-ideal Bezout solver and the ideal-level complement check are
the ring handle's hooks (`inverse_bezout`, `complement_check`); rings
without them get no Bezout data and no ideal-level check.

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

    def verify(self) -> bool:
        f, s, r = self.normalized()
        one = self.ring.one
        return f * (one - f) == s * r

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


class InvalidWitnessError(ValueError):
    pass


def idem_matrix(pair: IdemPair):
    """2x2 idempotent matrix with the pair as first row; M*M == M is checked."""
    if not pair.verify():
        raise InvalidWitnessError("witness does not satisfy the defining relation")
    f, s, r = pair.normalized()
    one = pair.ring.one
    m = [[f, s], [r, one - f]]
    sq = _mat_mul(m, m)
    if sq != m:
        raise CertificateError("matrix square differs from the matrix")
    return m


def _mat_mul(p, q):
    n = len(p)
    return [
        [sum((p[i][k] * q[k][j] for k in range(1, n)), p[i][0] * q[0][j]) for j in range(n)]
        for i in range(n)
    ]


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
    the content of lam, mu lying in the inverse ideal); the defining relation
    is re-checked exactly.
    """
    fa = ring.field_coerce(a)
    fb = ring.field_coerce(b)
    lam, mu = cert.lam, cert.mu
    if lam * fa + mu * fb != ring.field_coerce(ring.one):
        raise CertificateError("Bezout certificate does not evaluate to 1")
    try:
        pa, pb, wit, _ = [ring.from_field(p) for p in (lam * fa, lam * fb, mu * fa, mu * fb)]
    except ValueError:
        raise CertificateError("lam, mu do not lie in the inverse ideal") from None
    pair = IdemPair(ring, pa, pb, "ab", wit)
    if not pair.verify():
        raise CertificateError("derived pair fails the defining relation")
    return pair


class ComplementCert:
    """Exact verification of (f, s)(1-f, s) == (s) for a normalized pair.

    products are the four generators of the left-hand side, quotients divide
    each by s, and s itself is recovered as products[1] + products[2]; for
    rings with ideal arithmetic an independent lattice-level check is run.
    """

    def __init__(self, pair: IdemPair, generator, products: list, quotients: list, ideal_check: bool | None):
        self.pair = pair
        self.generator = generator
        self.products = products
        self.quotients = quotients
        self.ideal_check = ideal_check

    def to_json(self, enc):
        return {
            "generator": enc(self.generator),
            "products": enc(self.products),
            "quotients": enc(self.quotients),
            "ideal_check": self.ideal_check,
        }

    def verify(self) -> bool:
        f, s, r = self.pair.normalized()
        one = self.pair.ring.one
        want = [f * (one - f), f * s, s * (one - f), s * s]
        if [p for p in self.products] != want:
            return False
        if any(s * q != p for p, q in zip(self.products, self.quotients)):
            return False
        return self.products[1] + self.products[2] == s


def complement_identity(pair: IdemPair) -> ComplementCert:
    """Certify the product-ideal identity for a verified pair."""
    if not pair.verify():
        raise InvalidWitnessError("witness does not satisfy the defining relation")
    ring = pair.ring
    f, s, r = pair.normalized()
    one = ring.one
    products = [f * (one - f), f * s, s * (one - f), s * s]
    quotients = [r, f, one - f, s]
    for p, q in zip(products, quotients):
        if s * q != p:
            raise CertificateError("complement identity quotient failed")
    if products[1] + products[2] != s:
        raise CertificateError("combination for the generator failed")

    ideal_check = ring.complement_check(f, s) if hasattr(ring, "complement_check") else None
    if ideal_check is False:
        raise CertificateError("ideal-level complement identity failed")
    return ComplementCert(pair, s, products, quotients, ideal_check)
