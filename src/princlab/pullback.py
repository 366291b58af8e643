"""The pullback ring R = D + M inside V = Q[Y] localized at (Y), where
Q = Frac(D) and M is the maximal ideal of V (rational functions vanishing
at Y = 0).

Elements are exact rational functions in Y with no pole at 0 whose value at
0 lies in D; the idempotent-pair reduction follows the three-way case split
on whether a and b vanish at 0, producing a principal generator with
two-way membership certificates, or a D-level residual when the base ideal
is not principal.  The D-level generator and its Bezout combination come
from the base handle's `principal_bezout` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import CertificateError, Poly, RatFunc, RingElem, RingHandle
from .quadring import QuadOrder
from .rings import IntegerRing, ZZ


class PullbackError(ValueError):
    pass


class PullbackElem(RingElem):
    """Rational function in Y, no pole at 0, value at 0 in D."""

    __slots__ = ("rf", "ring", "value0")

    def __init__(self, rf: RatFunc, ring: "PullbackRing"):
        den0 = rf.den.constant_term()
        if den0 == 0:
            raise PullbackError("pole at Y=0: not in the valuation ring")
        v0 = rf.eval(0)
        inside = ring.base.from_field(v0)
        if inside is None:
            raise PullbackError(f"value at 0 ({v0}) lies outside the base ring")
        self.rf = rf
        self.ring = ring
        self.value0 = inside

    def in_maximal_ideal(self) -> bool:
        return self.value0 == self.ring.base.zero

    def _lift(self, other):
        if isinstance(other, PullbackElem):
            if other.ring != self.ring:
                raise PullbackError("mixed pullback rings")
            return other
        return self.ring.coerce(other)

    def __add__(self, other):
        return PullbackElem(self.rf + self._lift(other).rf, self.ring)

    def __neg__(self):
        return PullbackElem(-self.rf, self.ring)

    def __mul__(self, other):
        return PullbackElem(self.rf * self._lift(other).rf, self.ring)

    def __pow__(self, n: int):
        # RatFunc would invert a negative power, which leaves R unless a is a unit
        if n < 0:
            raise PullbackError("negative power; use pb_inverse() on a unit")
        return PullbackElem(self.rf**n, self.ring)

    def __eq__(self, other):
        if isinstance(other, PullbackElem):
            return self.ring == other.ring and self.rf == other.rf
        try:
            return self.rf == self._lift(other).rf
        except (PullbackError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.rf))

    def __bool__(self):
        return not self.rf.is_zero()

    def to_str(self) -> str:
        num, den = self.display_num_den()
        if den == Poly((1,)):
            return num.to_str("Y")
        return f"({num.to_str('Y')})/({den.to_str('Y')})"

    def display_num_den(self):
        # normalization convention: denominator with constant term 1
        den0 = self.rf.den.constant_term()
        return self.rf.num / den0, self.rf.den / den0

    def __repr__(self):
        return f"PullbackElem({self.to_str()})"


class PullbackRing(RingHandle):
    """Ring handle for D + M; base D is Z or an imaginary quadratic order."""

    family = "pullback"

    def __init__(self, base=ZZ):
        if not isinstance(base, (IntegerRing, QuadOrder)):
            raise PullbackError(
                "pullback bases need an implemented fraction field (Z or Z[sqrt(d)])"
            )
        self.base = base

    def _const_field(self, v):
        return self.base.field_coerce(v)

    @property
    def zero(self):
        return PullbackElem(RatFunc(Poly()), self)

    @property
    def one(self):
        return PullbackElem(RatFunc(Poly((self._const_field(1),))), self)

    def y(self) -> PullbackElem:
        return PullbackElem(RatFunc(Poly((self._const_field(0), self._const_field(1)))), self)

    def coerce(self, v):
        if isinstance(v, PullbackElem):
            if v.ring != self:
                raise PullbackError("mixed pullback rings")
            return v
        if isinstance(v, RatFunc):
            return PullbackElem(v, self)
        if isinstance(v, Poly):
            return PullbackElem(RatFunc(v), self)
        # base-ring and integer constants
        return PullbackElem(RatFunc(Poly((self._const_field(v),))), self)

    def divides(self, b: PullbackElem, a: PullbackElem):
        if not b:
            return self.zero if not a else None
        q = a.rf / b.rf
        # a pole at Y=0 puts a/b outside V, so b does not divide a in R
        return None if q.den.constant_term() == 0 else pb_member(q, self)

    def is_unit(self, x) -> bool:
        return isinstance(x, PullbackElem) and pb_is_unit(x)

    def to_json(self):
        return {"family": "pullback", "base": self.base.to_json()}

    def __str__(self):
        return f"{self.base}+M"


def pb_member(rf: RatFunc, ring: PullbackRing) -> PullbackElem | None:
    """Accept a rational function into R when its value at 0 lies in D.

    A pole at Y = 0 is an error (outside the valuation ring); a value
    outside D is an ordinary rejection (None).
    """
    if rf.den.constant_term() == 0:
        raise PullbackError("pole at Y=0: not in the valuation ring")
    try:
        return PullbackElem(rf, ring)
    except PullbackError:
        return None


def pb_is_unit(x: PullbackElem) -> bool:
    """Units of D + M are exactly the elements whose value at 0 is a D-unit."""
    if not x:
        return False
    return x.ring.base.is_unit(x.value0)


def pb_inverse(x: PullbackElem) -> PullbackElem:
    if not pb_is_unit(x):
        raise PullbackError("not a unit of the pullback")
    return PullbackElem(RatFunc(x.rf.den, x.rf.num), x.ring)


@dataclass
class PullbackReduction:
    """Outcome of reducing an idempotent pair (a, b) to a principal generator.

    When status == "principal": generator g with a == g*qa, b == g*qb and
    g == ca*a + cb*b, all in R.  When status == "base_non_principal" the
    base pair (a', b') of values is returned with its quadring verdict, and
    there is no generator (this exercises the PRINC hypothesis on D).
    """

    status: str
    case: str
    orientation: str
    a: PullbackElem
    b: PullbackElem
    witness: PullbackElem
    generator: PullbackElem | None = None
    qa: PullbackElem | None = None
    qb: PullbackElem | None = None
    ca: PullbackElem | None = None
    cb: PullbackElem | None = None
    base_pair: tuple | None = None
    base_verdict: Any = None

    def verify(self) -> bool:
        if self.status != "principal":
            return self.generator is None
        g = self.generator
        return (
            g * self.qa == self.a
            and g * self.qb == self.b
            and self.ca * self.a + self.cb * self.b == g
        )

    def to_json(self, enc):
        return {
            "a": enc(self.a),
            "b": enc(self.b),
            "witness": enc(self.witness),
            "orientation": self.orientation,
            "status": self.status,
            "case": self.case,
            "generator": enc(self.generator),
            "qa": enc(self.qa),
            "qb": enc(self.qb),
            "ca": enc(self.ca),
            "cb": enc(self.cb),
            "base_pair": enc(self.base_pair),
        }


def pb_reduce_idem_pair(a: PullbackElem, b: PullbackElem, r: PullbackElem,
                        orientation: str = "ab") -> PullbackReduction:
    """Principal generator of the ideal (a, b) for an idempotent pair.

    Follows the proof's case split on the normalized pair (f, s) with
    f(1-f) == s*r: f in M gives generator s; f outside M with s in M gives
    generator f; both outside M reduce to the pair of values in D.
    """
    ring = a.ring
    f, s = (a, b) if orientation == "ab" else (b, a)
    one = ring.one
    if f * (one - f) != s * r:
        raise PullbackError("witness does not satisfy the defining relation")

    def result(case, g, qf, qs, cf, cs):
        # arguments are relative to (f, s); swap back for (a, b)
        if orientation == "ab":
            qa, qb, ca, cb = qf, qs, cf, cs
        else:
            qa, qb, ca, cb = qs, qf, cs, cf
        red = PullbackReduction(
            "principal", case, orientation, a, b, r,
            generator=g, qa=qa, qb=qb, ca=ca, cb=cb,
        )
        if not red.verify():
            raise CertificateError("reduction certificate failed to verify")
        return red

    zero = ring.zero
    if f.in_maximal_ideal():
        # 1 - f is a unit, so f = s * r * (1-f)^{-1} and (f, s) = (s)
        inv = pb_inverse(one - f)
        return result("first_in_maximal_ideal", s, r * inv, one, zero, one)
    if s.in_maximal_ideal():
        if not s:
            # s == 0 forces f(1-f) == 0, so f is 0 or 1; f generates
            return result("second_zero", f, one, zero, one, zero)
        q = ring.divides(f, s)
        if q is None or not q.in_maximal_ideal():
            raise CertificateError("s/f should lie in M (bug)")
        return result("second_in_maximal_ideal", f, one, q, one, zero)

    # both values nonzero: reduce to D
    av, bv = f.value0, s.value0
    g0, lam, mu, base_verdict = ring.base.principal_bezout(av, bv)
    if g0 is None:
        return PullbackReduction(
            "base_non_principal", "base_reduction", orientation, a, b, r,
            base_pair=(av, bv), base_verdict=base_verdict,
        )
    gen = ring.coerce(g0)
    # f = (f/f') * f' with f/f' a unit; assemble everything through R division
    qf = ring.divides(gen, f)
    qs = ring.divides(gen, s)
    if qf is None or qs is None:
        raise CertificateError("base generator fails to divide in R (bug)")
    cf = ring.coerce(lam) * _unit_quotient(ring, av, f)
    cs = ring.coerce(mu) * _unit_quotient(ring, bv, s)
    red = PullbackReduction(
        "principal", "base_reduction", orientation, a, b, r,
        generator=gen, base_pair=(av, bv), base_verdict=base_verdict,
    )
    if orientation == "ab":
        red.qa, red.qb, red.ca, red.cb = qf, qs, cf, cs
    else:
        red.qa, red.qb, red.ca, red.cb = qs, qf, cs, cf
    if not red.verify():
        raise CertificateError("reduction certificate failed to verify")
    return red


def _unit_quotient(ring: PullbackRing, value, elem: PullbackElem) -> PullbackElem:
    """value/elem for elem with value0 == value != 0: a unit of R."""
    q = ring.divides(elem, ring.coerce(value))
    if q is None or not pb_is_unit(q):
        raise CertificateError("value/element is not a unit (bug)")
    return q


def pb_nonufd_chain(z: PullbackElem, d, n: int) -> list[PullbackElem]:
    """The witnesses z/d^k (k = 1..n) that R is not a UFD: z in M stays in R
    under division by any power of a nonzero nonunit d of D."""
    ring = z.ring
    if not z.in_maximal_ideal() or not z:
        raise PullbackError("need a nonzero element of the maximal ideal M")
    dv = ring.coerce(d)
    if not dv or pb_is_unit(dv) or not dv.rf.is_poly() or dv.rf.num.degree != 0:
        raise PullbackError("need a nonzero nonunit constant from D")
    out = []
    cur = z
    for _ in range(n):
        q = ring.divides(dv, cur)
        if q is None:
            raise CertificateError("division by d left R (bug)")
        out.append(q)
        cur = q
    return out
