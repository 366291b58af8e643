"""Ring handles: small descriptor objects giving each supported ring family
a uniform surface (coerce / divides / is_unit, and working-domain hooks for
ideal certificates and the expression grammar).

Every handle derives from `core.RingHandle`, so two handles are the same
ring exactly when their `to_json()` descriptions are equal (the description
reports carry and `recheck` reads).  Every element class derives from
`core.RingElem`, which supplies binary ``-``, the reflected operators and
``**`` from the class's own ``+``, unary ``-``, ``*`` and `_one()`, and
serializes itself through `json()`.

A handle is also the one place where its family's ideal theory lives.  The
engines (`idem`, `comax`, `pullback`) never switch on the ring's type; they
call these hooks, which the Dedekind bases Z and Z[sqrt(d)] implement:

- `inverse_bezout(a, b)`: lam, mu in (a, b)^-1 with lam*a + mu*b == 1
  (Q[X] has this one too);
- `prime_support(b)`, `principal_generator(I)`: the prime-power support of
  (b) and the generator of an ideal built from it (an ideal of Z is its
  nonnegative generator, so `**` and `*` are the ideal operations);
- `ideal_class(I)`, `class_compose(x, y)`, `class_identity`: the class of
  an ideal in the class group, the group law on classes and the class of
  the principal ideals.  `comax` labels each prime power of a support by its
  class, so a block whose classes do not compose to the identity is known
  to be non-principal with no ideal product.  Z[sqrt(d)] labels a class by
  its reduced binary quadratic form and composes forms; Z has the trivial
  group {0};
- `principal_bezout(a, b)`: (g, lam, mu) with lam*a + mu*b == g and
  (g) == (a, b), or None when (a, b) is not principal;
- `unit_bezout(a, b)`: (lam, mu) with lam*a + mu*b == 1, or None;
- `sort_key(x)`, `associates_of_norm(n)`: factor order and the witness
  hunt's scan.

Every handle but Z[1/p, ...] also has a working domain: Q for Z and Q,
Q(sqrt(d)) for Z[sqrt(d)] (the same `QuadElem` class, with Fraction
coordinates), Q(X) for Q[X], Q(Y) for the pullback, the same
family over Q for D[X;S] and the limit ring, and B2 itself.  `exprparse`
evaluates there and reaches the family only through these hooks:

- `field_coerce(v)`: an integer (or, for Z, Z[sqrt(d)] and Q[X], a ring
  element) as a working-domain value;
- `from_field(q)`: the ring element equal to q, or a ValueError saying why
  q lies outside the ring;
- `symbol(name)`: the value of a named generator, None for any other name;
  for X in D[X;S] it is the function from a rational exponent e to X^e;
- `field_sqrt(d)`: sqrt(d), on Z[sqrt(d)] and the pullback only.

Handles for the structured families live next to their machinery
(`quadring.QuadOrder`, `pullback.PullbackRing`, ...), Q[X] in `poly` and
Z[1/p, ...] in `zloc`, so a call over Z or Z[sqrt(d)] loads neither; this
module holds Z and Q.
"""

from __future__ import annotations

from .core import RingHandle, factorint, xgcd
from .rational import Fraction


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
        if Fraction(q).denominator != 1:
            raise ValueError(f"{q} lies outside Z")
        return int(q)

    def inverse_bezout(self, a, b):
        if a == 0 and b == 0:
            return None
        g, s, t = xgcd(a, b)
        return Fraction(s, g), Fraction(t, g)

    def prime_support(self, b):
        return list(factorint(abs(b)).items())

    def principal_generator(self, ideal):
        return ideal

    # Z is a principal ideal domain: its class group is trivial
    class_identity = 0

    def ideal_class(self, ideal):
        return 0

    def class_compose(self, x, y):
        return 0

    def principal_bezout(self, a, b):
        return xgcd(a, b)

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


class RationalField(RingHandle):
    """Q as a coefficient domain."""

    family = "rat"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        return Fraction(v)

    field_coerce = from_field = coerce

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


ZZ = IntegerRing()
QQ = RationalField()
