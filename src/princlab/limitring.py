"""The direct-limit ring R = union of D[x_n] where each generator satisfies
x_i = x_{i+1}(1 + x_{i+1}).

An element is a polynomial at some level n.  Its coefficient vector is
all `int` when every coefficient is an integer and all `Fraction` otherwise,
so products and lifts of integral elements run on the integer `Poly` kernel
without a Fraction per term; the report form writes both as "rat" leaves.
Lifting from level n to m substitutes phi^(m-n) for x, phi = x + x^2, in one
`compose` by the cached iterate.  Lifting keeps a non-integral vector
non-integral (top-down induction on the even-degree coefficients), so a lift
never needs normalizing.  Each level is a genuine polynomial ring and
lifting is injective, so equality and divisibility are decided by moving
both operands to a common level.

The comaximal chain of x_1 into m factors comes with explicit Bezout
certificates that re-evaluate to 1 exactly; its certificate `LimitChain` is
a plain class (see `core` for why not a dataclass).
"""

from __future__ import annotations

import re

from .core import RingElem, RingHandle, pairwise_json
from .poly import Poly, poly_divrem, rat_leaves
from .rational import Fraction
from .rings import QQ, IntegerRing, RationalField


class LimitError(ValueError):
    pass


# _ITERATES[k] is phi^k, phi = x + x^2, as an integer vector.  `lr_chain`
# drops the iterates it built when it returns (about 60 kB at m 10, 0.5 MB at
# m 12), so a caller that builds many chains keeps none of them.
_ITERATES = [Poly((0, 1)), Poly((0, 1, 1))]


def _iterate(k: int) -> Poly:
    # phi^(k+1) == phi(phi^k) == phi^k + (phi^k)^2: one squaring, where
    # evaluating phi^k at phi would take about log2(deg) full-size products
    while len(_ITERATES) <= k:
        last = _ITERATES[-1]
        _ITERATES.append(last + last * last)
    return _ITERATES[k]


def _normal(poly: Poly) -> Poly:
    """poly with int coefficients when every one is an integer, else all
    Fractions."""
    cs = poly.coeffs
    if all(type(c) is int for c in cs):
        return poly
    fs = [Fraction(c) for c in cs]
    if all(f.denominator == 1 for f in fs):
        return Poly([f.numerator for f in fs])
    return Poly(fs)


class LimitElem(RingElem):
    """Polynomial over D in the level-n generator x_n."""

    __slots__ = ("level", "poly", "ring")

    def __init__(self, level: int, poly: Poly, ring: "LimitRing", _checked=False):
        # _checked: poly is already normal (see `_normal`) with coefficients
        # in D, as the sum, product or lift of elements is
        if level < 1:
            raise LimitError("levels start at 1")
        if not _checked:
            poly = _normal(poly)
            for c in poly.coeffs:
                if not ring.base.contains_rat(c):
                    raise LimitError(f"coefficient {c} outside {ring.base}")
        self.level = level
        self.poly = poly
        self.ring = ring

    def _lift_pair(self, other):
        o = self.ring.coerce(other)
        m = max(self.level, o.level)
        return lr_lift(self, m), lr_lift(o, m)

    def __add__(self, other):
        a, b = self._lift_pair(other)
        return LimitElem(a.level, _normal(a.poly + b.poly), self.ring, _checked=True)

    def __neg__(self):
        return LimitElem(self.level, -self.poly, self.ring, _checked=True)

    def __mul__(self, other):
        a, b = self._lift_pair(other)
        return LimitElem(a.level, _normal(a.poly * b.poly), self.ring, _checked=True)

    def _one(self):
        # at the element's own level, so x_n^0 stays at level n
        return LimitElem(self.level, Poly((1,)), self.ring, _checked=True)

    def _invert(self):
        # `/` divides by nonzero constants only, so exactly those invert,
        # and 1/c must lie in the base
        return self._one() / self

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
        return hash(self.poly.constant_term())

    def __bool__(self):
        return not self.poly.is_zero()

    def json(self):
        return {"type": "limit", "level": self.level, "coeffs": rat_leaves(self.poly.coeffs, str)}


def lr_lift(e: LimitElem, m: int) -> LimitElem:
    """Rewrite e at level m >= level(e); the value in R is unchanged.  One
    `compose` by the cached iterate phi^(m - level)."""
    if m < e.level:
        raise LimitError(f"cannot lower level {e.level} to {m}")
    if m == e.level:
        return e
    if e.poly.degree <= 0:
        # a constant is the same at every level: build no iterate for it
        return LimitElem(m, e.poly, e.ring, _checked=True)
    return LimitElem(m, e.poly.compose(_iterate(m - e.level)), e.ring, _checked=True)


class LimitRing(RingHandle):
    """Ring handle for union_n D[x_n]."""

    family = "limit"

    def __init__(self, base):
        if not isinstance(base, (RationalField, IntegerRing)):
            raise LimitError(f"unsupported base {base}")
        self.base = base
        # the expression grammar's working domain: the same ring over Q
        self._over_q = self if isinstance(base, RationalField) else LimitRing(QQ)

    @property
    def zero(self):
        return LimitElem(1, Poly(), self)

    @property
    def one(self):
        return LimitElem(1, Poly((1,)), self, _checked=True)

    def gen(self, n: int) -> LimitElem:
        """x_n as a level-n element."""
        return LimitElem(n, Poly((0, 1)), self, _checked=True)

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
        # poly_divrem's integer path wants a Fraction dividend
        q, r = poly_divrem(pa.map_coeffs(Fraction), pb)
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

    def to_json(self, enc):
        return {"m": self.m, "factors": enc(self.factors), "pairwise": pairwise_json(self.pairwise, enc)}


def lr_chain(m: int, ring: LimitRing) -> LimitChain:
    """The m-factor comaximal factorization of x_1 with all certificates.

    Certificates: 1 == (1+x_i) - x_m * prod_{j=i+1..m} (1+x_j) for the pair
    (x_m, 1+x_i), and 1 == (1+x_i) - w*(1+x_j) with
    w = x_j * prod_{k=i+1..j-1} (1+x_k) for i < j.  Each product is a
    running one: O(m^2) multiplications in all.  The iterates of x + x^2
    built on the way are dropped on return.  Nothing here re-multiplies the
    chain: `recheck` checks the product and every pair (highest level
    first), and `cli` runs it on every report.
    """
    if m < 2:
        raise LimitError("need m >= 2")
    try:
        one = ring.one
        xs = {i: ring.gen(i) for i in range(2, m + 1)}
        ones = {i: one + xs[i] for i in range(2, m + 1)}  # 1 + x_i
        factors = [xs[m]] + [ones[i] for i in range(2, m + 1)]
        # tails[i] == prod_{j=i..m} (1+x_j); the empty product is the level-1 one
        tails = {m + 1: one}
        for i in range(m, 2, -1):
            tails[i] = ones[i] * tails[i + 1]
        pairwise = []
        # (x_m, 1+x_i): x_i == x_m * prod_{j>i} (1+x_j)
        for idx in range(1, m):
            pairwise.append((0, idx, -tails[idx + 2], one))
        # (1+x_i, 1+x_j), i < j: x_i == w * (1+x_j) with w = x_j * prod_(i,j)
        for idx_i in range(1, m):
            acc = one  # prod_{k=i+1..j-1} (1+x_k)
            for idx_j in range(idx_i + 1, m):
                j = idx_j + 1
                acc = lr_lift(acc, j)  # once for both products below
                pairwise.append((idx_i, idx_j, one, -(xs[j] * acc)))
                acc = acc * ones[j]
        return LimitChain(m, factors, pairwise)
    finally:
        del _ITERATES[2:]
