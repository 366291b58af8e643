"""The direct-limit ring R = union of D[x_n] where each generator satisfies
x_i = x_{i+1}(1 + x_{i+1}).

An element is a polynomial at some level n; lifting substitutes
x -> x + x^2 once per level.  Each level is a genuine polynomial ring and
lifting is injective, so equality and divisibility are decided by moving
both operands to a common level.  The comaximal chain of x_1 into m factors
comes with explicit Bezout certificates that re-evaluate to 1 exactly; its
certificate `LimitChain` is a plain class (see `core` for why not a
dataclass).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import CertificateError, Poly, RingElem, RingHandle, pairwise_json, poly_divrem
from .rings import QQ, IntegerRing, RationalField


class LimitError(ValueError):
    pass


_PHI = Poly((Fraction(0), Fraction(1), Fraction(1)))  # x + x^2


class LimitElem(RingElem):
    """Polynomial over D in the level-n generator x_n."""

    __slots__ = ("level", "poly", "ring")

    def __init__(self, level: int, poly: Poly, ring: "LimitRing", _checked=False):
        # _checked: poly already has Fraction coefficients in D, as the sum,
        # product or lift of elements does
        if level < 1:
            raise LimitError("levels start at 1")
        if not _checked:
            poly = poly.map_coeffs(Fraction)
            for c in poly.coeffs:
                if not ring.base.contains_rat(c):
                    raise LimitError(f"coefficient {c} outside {ring.base}")
        self.level = level
        self.poly = poly
        self.ring = ring

    def _lift_pair(self, other):
        o = other if isinstance(other, LimitElem) else self.ring.coerce(other)
        if o.ring != self.ring:
            raise LimitError("mixed limit rings")
        m = max(self.level, o.level)
        return lr_lift(self, m), lr_lift(o, m)

    def __add__(self, other):
        a, b = self._lift_pair(other)
        return LimitElem(a.level, a.poly + b.poly, self.ring, _checked=True)

    def __neg__(self):
        return LimitElem(self.level, -self.poly, self.ring, _checked=True)

    def __mul__(self, other):
        a, b = self._lift_pair(other)
        return LimitElem(a.level, a.poly * b.poly, self.ring, _checked=True)

    def __pow__(self, n: int):
        if n < 0:
            return self._invert() ** -n
        # one level throughout, so the inner polynomial's power is the power
        return LimitElem(self.level, self.poly**n, self.ring)

    def _invert(self):
        # `/` divides by nonzero constants only, so exactly those invert,
        # and 1/c must lie in the base
        return LimitElem(self.level, Poly((Fraction(1),)), self.ring) / self

    def __truediv__(self, other):
        o = self.ring.coerce(other)
        if o.poly.degree != 0:
            raise LimitError("division is only available by nonzero constants")
        return LimitElem(self.level, self.poly / o.poly.coeffs[0], self.ring)

    def __eq__(self, other):
        try:
            a, b = self._lift_pair(other)
        except (LimitError, ValueError, TypeError):
            return NotImplemented
        return a.poly == b.poly

    def __hash__(self):
        # not canonical per level, so hash only what is level-independent
        return hash(self.poly.eval(Fraction(0)))

    def __bool__(self):
        return not self.poly.is_zero()

    def to_str(self) -> str:
        return self.poly.to_str(f"x_{self.level}")

    def __repr__(self):
        return f"LimitElem(level={self.level}, {self.to_str()})"


def lr_lift(e: LimitElem, m: int) -> LimitElem:
    """Rewrite e at level m >= level(e); the value in R is unchanged."""
    if m < e.level:
        raise LimitError(f"cannot lower level {e.level} to {m}")
    p = e.poly
    for _ in range(m - e.level):
        p = p.compose(_PHI)
    return LimitElem(m, p, e.ring, _checked=True)


class LimitRing(RingHandle):
    """Ring handle for union_n D[x_n]."""

    family = "limit"

    def __init__(self, base):
        if not isinstance(base, (RationalField, IntegerRing)):
            raise LimitError(f"unsupported base {base!r}")
        self.base = base
        # the expression grammar's working domain: the same ring over Q
        self._over_q = self if isinstance(base, RationalField) else LimitRing(QQ)

    @property
    def zero(self):
        return LimitElem(1, Poly(), self)

    @property
    def one(self):
        return LimitElem(1, Poly((Fraction(1),)), self)

    def gen(self, n: int) -> LimitElem:
        """x_n as a level-n element."""
        return LimitElem(n, Poly((Fraction(0), Fraction(1))), self)

    def coerce(self, v):
        if isinstance(v, LimitElem):
            if v.ring != self:
                raise LimitError("mixed limit rings")
            return v
        return LimitElem(1, Poly((Fraction(v),)), self)

    def divides(self, b: LimitElem, a: LimitElem):
        if not b:
            return self.zero if not a else None
        m = max(a.level, b.level)
        pa, pb = lr_lift(a, m).poly, lr_lift(b, m).poly
        q, r = poly_divrem(pa, pb)
        if not r.is_zero():
            return None
        try:
            return LimitElem(m, q, self)
        except LimitError:
            # exact over Frac(D) but coefficients leave D; lifting cannot fix
            # that (top-down induction on the even-degree coefficients)
            return None

    def field_coerce(self, v):
        return self._over_q.coerce(v)

    def symbol(self, name):
        m = re.fullmatch(r"x_(\d+)", name)
        return self._over_q.gen(int(m.group(1))) if m else None

    def from_field(self, v):
        return LimitElem(v.level, v.poly, self)

    def is_unit(self, x) -> bool:
        return (
            isinstance(x, LimitElem)
            and x.poly.degree == 0
            and self.base.is_unit(x.poly.coeffs[0])
        )

    def to_json(self):
        return {"family": "limit", "base": self.base.to_json()}

    def __str__(self):
        return f"limit({self.base}[x_n])"


class LimitChain:
    """x_1 == x_m * prod_{i=2..m} (1 + x_i) with pairwise Bezout certificates."""

    def __init__(self, m: int, factors: list, pairwise: list):
        self.m = m
        self.factors = factors  # [x_m, 1+x_2, ..., 1+x_m]
        self.pairwise = pairwise  # (i, j, lam, mu) with lam*f_i + mu*f_j == 1

    def verify(self) -> bool:
        ring = self.factors[0].ring
        prod = ring.one
        for f in self.factors:
            prod = prod * f
        if prod != lr_lift(ring.gen(1), self.m):
            return False
        one = ring.one
        for i, j, lam, mu in self.pairwise:
            if lam * self.factors[i] + mu * self.factors[j] != one:
                return False
        return True

    def to_json(self, enc):
        return {"m": self.m, "factors": enc(self.factors), "pairwise": pairwise_json(self.pairwise, enc)}


def lr_chain(m: int, ring: LimitRing) -> LimitChain:
    """The m-factor comaximal factorization of x_1 with all certificates.

    Certificates: 1 == (1+x_i) - x_m * prod_{j=i+1..m} (1+x_j) for the pair
    (x_m, 1+x_i), and 1 == (1+x_i) - w*(1+x_j) with
    w = x_j * prod_{k=i+1..j-1} (1+x_k) for i < j.
    """
    if m < 2:
        raise LimitError("need m >= 2")
    one = ring.one
    xs = {i: ring.gen(i) for i in range(2, m + 1)}
    factors = [xs[m]] + [one + xs[i] for i in range(2, m + 1)]

    def prod_ones(lo, hi):
        acc = one
        for k in range(lo, hi + 1):
            acc = acc * (one + xs[k])
        return acc

    pairwise = []
    # (x_m, 1+x_i): x_i == x_m * prod_{j>i} (1+x_j)
    for idx in range(1, m):
        i = idx + 1
        lam = -prod_ones(i + 1, m)
        pairwise.append((0, idx, lam, one))
    # (1+x_i, 1+x_j), i < j: x_i == w * (1+x_j) with w = x_j * prod_(i,j)
    for idx_i in range(1, m):
        for idx_j in range(idx_i + 1, m):
            i, j = idx_i + 1, idx_j + 1
            w = xs[j] * prod_ones(i + 1, j - 1)
            pairwise.append((idx_i, idx_j, one, -w))
    chain = LimitChain(m, factors, pairwise)
    if not chain.verify():
        raise CertificateError("chain certificates failed to verify")
    return chain
