"""Ring handles: small descriptor objects giving each supported ring family
a uniform surface (coerce / divides / is_unit, and fraction-field hooks where
ideal certificates need them).

Every handle derives from `core.RingHandle`, so two handles are the same
ring exactly when their `to_json()` descriptions are equal (the description
reports carry and `recheck` reads).  Every element class derives from
`core.RingElem`, which supplies binary ``-``, the reflected operators and
``**`` from the class's own ``+``, unary ``-``, ``*`` and `_one()`.

A handle is also the one place where its family's ideal theory lives.  The
engines (`idem`, `comax`, `pullback`) never switch on the ring's type; they
call these hooks, which the Dedekind bases Z and Z[sqrt(d)] implement:

- `inverse_bezout(a, b)`: lam, mu in (a, b)^-1 with lam*a + mu*b == 1
  (Q[X] has this one too);
- `complement_check(f, s)`: decide (f, s)(1-f, s) == (s) on ideals;
- `prime_support(b)`, `principal_generator(I)`: the prime-power support of
  (b) and the generator of an ideal built from it (an ideal of Z is its
  nonnegative generator, so `**` and `*` are the ideal operations);
- `principal_bezout(a, b)`, `unit_bezout(a, b)`: a generator of (a, b) with
  its Bezout combination, and the combination giving 1;
- `sort_key(x)`, `associates_of_norm(n)`: factor order and the witness
  hunt's scan.

Handles for the structured families live next to their machinery
(`quadring.QuadOrder`, `pullback.PullbackRing`, ...); this module holds the
four plain ones: Z, Q[X], Q and Z[1/p, ...].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .core import Poly, RatFunc, RingHandle, factorint, poly_divrem, poly_extended_gcd, xgcd


class IntegerRing(RingHandle):
    family = "int"
    zero = 0
    one = 1

    def contains_rat(self, q) -> bool:
        return Fraction(q).denominator == 1

    def coerce(self, v):
        if isinstance(v, int):
            return v
        if isinstance(v, Fraction) and v.denominator == 1:
            return int(v)
        raise ValueError(f"cannot coerce {v!r} into Z")

    def divides(self, b, a):
        if b == 0:
            return 0 if a == 0 else None
        q, r = divmod(a, b)
        return q if r == 0 else None

    def is_unit(self, x) -> bool:
        return x in (1, -1)

    def field_coerce(self, v):
        return Fraction(v)

    def from_field(self, q):
        if isinstance(q, Fraction) and q.denominator == 1:
            return int(q)
        if isinstance(q, int):
            return q
        return None

    def inverse_bezout(self, a, b):
        if a == 0 and b == 0:
            return None
        g, s, t = xgcd(a, b)
        return Fraction(s, g), Fraction(t, g)

    def complement_check(self, f, s):
        if s == 0:
            return f * (1 - f) == 0
        return gcd(f, s) * gcd(1 - f, s) == abs(s)

    def prime_support(self, b):
        return list(factorint(abs(b)).items())

    def principal_generator(self, ideal):
        return ideal

    def principal_bezout(self, a, b):
        return (*xgcd(a, b), None)

    def unit_bezout(self, a, b):
        g, s, t = xgcd(a, b)
        return (s, t) if g == 1 else None

    def sort_key(self, x):
        return (abs(x), -x)

    def associates_of_norm(self, n):
        return [n]

    def to_json(self):
        return {"family": "int"}

    def __str__(self):
        return "Z"


class RationalPolyRing(RingHandle):
    """Q[X]: dense polynomials with Fraction coefficients."""

    family = "qpoly"

    @property
    def zero(self):
        return Poly()

    @property
    def one(self):
        return Poly((Fraction(1),))

    def coerce(self, v):
        if isinstance(v, Poly):
            return v.map_coeffs(Fraction)
        if isinstance(v, (int, Fraction)):
            return Poly((Fraction(v),))
        raise ValueError(f"cannot coerce {v!r} into Q[X]")

    def divides(self, b, a):
        if b.is_zero():
            return Poly() if a.is_zero() else None
        q, r = poly_divrem(a, b)
        return q if r.is_zero() else None

    def is_unit(self, x) -> bool:
        return isinstance(x, Poly) and x.degree == 0

    def field_coerce(self, v):
        if isinstance(v, RatFunc):
            return v
        return RatFunc(self.coerce(v))

    def from_field(self, q):
        if isinstance(q, RatFunc):
            return q.num if q.is_poly() else None
        return None

    def inverse_bezout(self, a, b):
        d, s, t = poly_extended_gcd(a, b)
        if d.is_zero():
            return None
        return RatFunc(s, d), RatFunc(t, d)

    def to_json(self):
        return {"family": "qpoly"}

    def __str__(self):
        return "Q[X]"


class RationalField(RingHandle):
    """Q as a coefficient domain."""

    family = "rat"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        return Fraction(v)

    def contains_rat(self, q: Fraction) -> bool:
        return True

    def divides(self, b, a):
        if b == 0:
            return Fraction(0) if a == 0 else None
        return Fraction(a) / Fraction(b)

    def is_unit(self, x) -> bool:
        return x != 0

    def to_json(self):
        return {"family": "rat"}

    def __str__(self):
        return "Q"


def _strip_primes(n: int, primes) -> int:
    n = abs(n)
    for p in primes:
        while n % p == 0:
            n //= p
    return n


class LocalizedIntegers(RingHandle):
    """Z[1/p : p in primes] as a coefficient domain."""

    family = "zloc"

    def __init__(self, primes):
        ps = sorted(set(int(p) for p in primes))
        if not ps or any(p < 2 for p in ps):
            raise ValueError("need at least one prime >= 2")
        self.primes = tuple(ps)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, v):
        q = Fraction(v)
        if not self.contains_rat(q):
            raise ValueError(f"{q} lies outside {self}")
        return q

    def contains_rat(self, q: Fraction) -> bool:
        return _strip_primes(q.denominator, self.primes) == 1

    def divides(self, b, a):
        if b == 0:
            return Fraction(0) if a == 0 else None
        q = Fraction(a) / Fraction(b)
        return q if self.contains_rat(q) else None

    def is_unit(self, x) -> bool:
        if x == 0:
            return False
        x = Fraction(x)
        return (
            _strip_primes(x.numerator, self.primes) == 1
            and _strip_primes(x.denominator, self.primes) == 1
        )

    def to_json(self):
        return {"family": "zloc", "primes": [str(p) for p in self.primes]}

    def __str__(self):
        return "Z[" + ",".join(f"1/{p}" for p in self.primes) + "]"


ZZ = IntegerRing()
QQ = RationalField()
QQ_POLY = RationalPolyRing()
