"""Dense univariate polynomials over a field (`Poly`), rational functions
(`RatFunc`), their division and gcds, the "rat" leaves of a coefficient
list (`rat_leaves`) and the ring Q[X] (`RationalPolyRing`, `QQ_POLY`).

Only the polynomial families (Q[X], the pullback, D[X;S], the limit ring,
`polyext`) and a y-polynomial operand run this module; `cli` puts it in
`sys.modules` lazily, like a family module, so a call over Z or Z[sqrt(d)]
never loads it.  `core.Poly` and `core.poly_extended_gcd` still resolve to
the objects here (see `core`).

Coefficients may be Python ints, `rational.Fraction`, or any object with
field arithmetic through ``+ - * /`` and ``==`` against ``0``/``1``.  Over Z
and Q, `Poly` runs on an integer-vector kernel: an all-`int` or
all-`Fraction` vector is cleared to integer numerators over one
denominator; long products use Kronecker substitution (one big-int
product), short ones an integer schoolbook loop, `compose` evaluates at the
packed argument, and `poly_divrem` / `poly_extended_gcd` run their steps on
integer vectors.  Results have the coefficient types the schoolbook loops
give (ints from two all-int operands, else Fractions), so report bytes do
not change; other vectors keep those loops.  Euclid's cofactors of coprime
f and g are the unique ones of minimal degree, so no choice of arithmetic
changes what `poly_extended_gcd` returns.
"""

from __future__ import annotations

from math import gcd, lcm

from .core import RingElem, RingHandle
from .rational import Fraction


def rat_leaves(values, text):
    """The "rat" leaves of a coefficient list, `text(v)` giving each value's
    report text, with one leaf dict per distinct value: a chain element's
    coefficients repeat a few values many times, and a report is read-only
    once built (see `report`)."""
    leaves, out = {}, []
    for v in values:
        leaf = leaves.get(v)
        if leaf is None:
            leaf = leaves[v] = {"type": "rat", "value": text(v)}
        out.append(leaf)
    return out


# Integer-vector kernel for Poly over Z and Q.  A coefficient vector that is
# all `int`, or all `Fraction`, is cleared to integer numerators over one
# denominator.  Integer vectors multiply by Kronecker substitution (Harvey,
# JSC 44, 2009; von zur Gathen and Gerhard, Modern Computer Algebra, 8.4):
# each vector is packed into one Python int, with a slot wide enough for
# every coefficient of the result by a proven bound, the two ints are
# multiplied once (CPython's Karatsuba), and the slots of the product are read
# back with signed borrow.


# A product of integer vectors of lengths n and k runs the schoolbook loop
# while n*k <= _SCHOOL_FILL * (n + k): a 2 x 64 product takes about a fifth
# of the packed one's time there, a 32 x 32 product about twice (CPython
# 3.11, one core of a shared 2-vCPU machine).
_SCHOOL_FILL = 8


def _integral(coeffs):
    """(numerators, den) of a nonempty all-int vector (den None) or all-Fraction
    vector (den the lcm of the denominators); None for any other vector."""
    kinds = set(map(type, coeffs))
    if kinds == {int}:
        return list(coeffs), None
    if kinds != {Fraction}:
        return None
    dens = [c.denominator for c in coeffs]
    den = lcm(*dens)
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


def _from_integral(nums, den) -> "Poly":
    """The Poly nums/den: int coefficients when den is None, else Fractions."""
    if den is None:
        return Poly(nums)
    if den == 1:
        return Poly([Fraction(n) for n in nums])
    return Poly([Fraction(n, den) for n in nums])


def _joint_den(da, db, power=1):
    # an int vector has den None; any Fraction operand makes the result Fractions
    if da is None and db is None:
        return None
    return (da or 1) * (db or 1) ** power


def _slot_bytes(bound: int) -> int:
    """Bytes per slot so that every integer of absolute value <= bound fits a
    signed slot: 8 * nbytes - 1 >= bound.bit_length()."""
    return bound.bit_length() // 8 + 1


def _pack(v, nbytes: int) -> int:
    """sum(v[i] * 2**(8*nbytes*i)) for integers with |v[i]| < 2**(8*nbytes - 1)."""
    pos = b"".join((c if c > 0 else 0).to_bytes(nbytes, "little") for c in v)
    neg = b"".join((-c if c < 0 else 0).to_bytes(nbytes, "little") for c in v)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(packed: int, nbytes: int, n: int) -> list[int]:
    """The n signed slots of packed = sum(c[i] * 2**(8*nbytes*i)), each
    |c[i]| < 2**(8*nbytes - 1)."""
    data = packed.to_bytes(nbytes * n, "little", signed=True)
    half = 1 << (8 * nbytes - 1)
    full = half << 1
    out = []
    borrow = 0
    for i in range(0, nbytes * n, nbytes):
        c = int.from_bytes(data[i : i + nbytes], "little") + borrow
        borrow = c >= half
        out.append(c - full if borrow else c)
    return out


def _eval_at(v, x: int) -> int:
    """sum(v[i] * x**i) for an integer vector v and integer x, by pairing
    neighbouring blocks, so the big products are balanced."""
    vals = list(v)
    while len(vals) > 1:
        if len(vals) & 1:
            vals.append(0)
        vals = [lo + x * hi for lo, hi in zip(vals[::2], vals[1::2])]
        if len(vals) > 1:
            x *= x
    return vals[0]


def _int_mul(a, b) -> list[int]:
    """Product of two nonempty integer vectors: by the schoolbook loop while
    len(a) * len(b) is at most _SCHOOL_FILL * (len(a) + len(b)), where
    packing costs more than the loop, else by Kronecker substitution.  Every
    product coefficient is at most max|a| * max|b| * min(len(a), len(b)) in
    absolute value."""
    if len(a) * len(b) <= _SCHOOL_FILL * (len(a) + len(b)):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return out
    nbytes = _slot_bytes(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    pa = _pack(a, nbytes)
    pb = pa if b is a else _pack(b, nbytes)
    return _unpack(pa * pb, nbytes, len(a) + len(b) - 1)


def _int_divrem(f, g):
    """(q, r, s) with s*f == q*g + r, len(r) < len(g) and s > 0, for integer
    vectors f and nonempty g.  A step whose quotient coefficient would not be
    an integer first scales everything by |lc(g)| / gcd(c, lc(g)), so monic
    divisors never scale."""
    r = list(f)
    dg = len(g) - 1
    lc = g[-1]
    terms = [(i, c) for i, c in enumerate(g) if c]
    q = [0] * max(len(f) - dg, 0)
    s = 1
    for k in range(len(f) - 1 - dg, -1, -1):
        c = r[k + dg]
        if not c:
            continue
        if c % lc:
            t = abs(lc) // gcd(c, lc)
            r = [x * t for x in r]
            q = [x * t for x in q]
            s *= t
            c *= t
        c //= lc
        q[k] = c
        for i, gc in terms:
            r[k + i] -= c * gc
    return q, r[:dg], s



class Poly(RingElem):
    """Dense univariate polynomial with ascending coefficients.

    The zero polynomial has an empty coefficient tuple; otherwise the
    trailing coefficient is nonzero, so representation is canonical and
    ``==`` is structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        # scalar comparison against a constant polynomial
        if other == 0:
            return not self.coeffs
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly((other,))

    def __add__(self, other):
        o = self._lift(other)
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        if not self.coeffs or not o.coeffs:
            return Poly()
        a = _integral(self.coeffs)
        b = a if o is self else _integral(o.coeffs)
        if a is not None and b is not None:
            return _from_integral(_int_mul(a[0], b[0]), _joint_den(a[1], b[1]))
        # mixed int/Fraction vectors and other coefficient rings
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def _one(self):
        return Poly((1,))

    def scale(self, c):
        return Poly(tuple(a * c for a in self.coeffs))

    def __truediv__(self, c):
        # division by a nonzero coefficient-field scalar
        return Poly(tuple(_coeff_div(a, c) for a in self.coeffs))

    def eval(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other: "Poly") -> "Poly":
        p, f = self.degree, other.degree
        if p <= 0:
            return self
        pi = _integral(self.coeffs) if f > 0 else None
        fi = _integral(other.coeffs) if pi is not None else None
        if fi is None:
            acc = Poly()
            for c in reversed(self.coeffs):
                acc = acc * other + Poly((c,))
            return acc
        (nums, dp), (phi, df) = pi, fi
        if df not in (None, 1):
            # self(phi/df) * df**p == sum(nums[i] * df**(p-i) * phi**i)
            nums = [c * df ** (p - i) for i, c in enumerate(nums)]
        # Kronecker: the result packed at 2**w is self evaluated at phi packed
        # at 2**w.  Its coefficients are at most sum(|nums[i]| * |phi|_1**i).
        nbytes = _slot_bytes(_eval_at(list(map(abs, nums)), sum(map(abs, phi))))
        packed = _eval_at(nums, _pack(phi, nbytes))
        return _from_integral(_unpack(packed, nbytes, p * f + 1), _joint_den(dp, df, p))

    def map_coeffs(self, fn) -> "Poly":
        return Poly(tuple(fn(c) for c in self.coeffs))

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return self / lc

    def to_str(self, var: str = "Z") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(var if i == 1 else f"{var}^{i}")
            else:
                parts.append(f"{c}*{var}" if i == 1 else f"{c}*{var}^{i}")
        return " + ".join(parts).replace("+ -", "- ")

    def json(self):
        from .report import enc  # at call time: importing this module does not load `report`

        return {"type": "poly", "coeffs": [enc(c) for c in self.coeffs]}



def _coeff_div(a, c):
    # ints must promote to Fraction so the result stays exact
    if isinstance(a, int) and isinstance(c, int):
        return Fraction(a, c)
    return a / c


def poly_divrem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Division with remainder over a field: f = q*g + r, deg r < deg g."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    # the integer path needs f all-Fraction: the loop below leaves an int
    # coefficient of f that no step touches as an int in the remainder
    fi = _integral(f.coeffs) if f.coeffs else None
    gi = _integral(g.coeffs) if fi is not None and fi[1] is not None else None
    if gi is not None:
        (fn, df), (gn, dg) = fi, gi
        qn, rn, s = _int_divrem(fn, gn)
        # s*fn == qn*gn + rn with f = fn/df, g = gn/dg
        den = s * df
        return Poly([Fraction(c * (dg or 1), den) for c in qn]), Poly([Fraction(c, den) for c in rn])
    q = []
    rem = list(f.coeffs)
    dg = g.degree
    lc = g.leading()
    for k in range(len(rem) - 1 - dg, -1, -1):
        c = _coeff_div(rem[k + dg], lc)
        q.append(c)
        if c != 0:
            for i, gc in enumerate(g.coeffs):
                rem[k + i] = rem[k + i] - c * gc
    q.reverse()
    return Poly(q), Poly(rem[:dg] if dg > 0 else ())


def _q_norm(nums, den):
    """A rational vector nums/den (den > 0) without trailing zeros and with
    the common factor of den and every numerator divided out."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [c // g for c in nums], den // g


def _q_sub_mul(a, q, b):
    """a - q*b for rational vectors given as (numerators, den)."""
    if not q[0] or not b[0]:
        return a
    prod, pden = _int_mul(q[0], b[0]), q[1] * b[1]
    den = lcm(a[1], pden)
    sa, sp = den // a[1], den // pden
    out = [c * sa for c in a[0]] + [0] * max(len(prod) - len(a[0]), 0)
    for i, c in enumerate(prod):
        out[i] -= c * sp
    return _q_norm(out, den)


def poly_extended_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (d, s, t) with s*f + t*g == d, d the monic gcd (0 if f=g=0).

    Nonzero f and g over Z or Q run the same Euclidean steps on integer
    vectors, each with one denominator; the result is the same."""
    fi = _integral(f.coeffs) if f.coeffs and g.coeffs else None
    gi = _integral(g.coeffs) if fi is not None else None
    if gi is None:
        r0, r1 = f, g
        s0, s1 = Poly((1,)), Poly()
        t0, t1 = Poly(), Poly((1,))
        while not r1.is_zero():
            q, r = poly_divrem(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        lc = r0.leading()
        return r0 / lc, s0 / lc, t0 / lc
    r0, r1 = _q_norm(fi[0], fi[1] or 1), _q_norm(gi[0], gi[1] or 1)
    s0, s1 = ([1], 1), ([], 1)
    t0, t1 = ([], 1), ([1], 1)
    while r1[0]:
        qn, rn, sc = _int_divrem(r0[0], r1[0])
        # sc*R0 == qn*R1 + rn, so r0 == (qn*d1 / (sc*d0)) * r1 + rn / (sc*d0)
        q = _q_norm([c * r1[1] for c in qn], sc * r0[1])
        r0, r1 = r1, _q_norm(rn, sc * r0[1])
        s0, s1 = s1, _q_sub_mul(s0, q, s1)
        t0, t1 = t1, _q_sub_mul(t0, q, t1)
    (nums, den), lc = r0, r0[0][-1]
    # divide d, s and t by the leading coefficient lc/den of the gcd
    return (
        Poly([Fraction(c, lc) for c in nums]),
        Poly([Fraction(c * den, s0[1] * lc) for c in s0[0]]),
        Poly([Fraction(c * den, t0[1] * lc) for c in t0[0]]),
    )


def poly_gcd(f: Poly, g: Poly) -> Poly:
    while not g.is_zero():
        f, g = g, poly_divrem(f, g)[1]
    return f.monic() if not f.is_zero() else f


class RatFunc(RingElem):
    """Rational function num/den over a field, den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly((1,)), _reduced=False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                den = Poly((1,))
            else:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = poly_divrem(num, g)[0]
                    den = poly_divrem(den, g)[0]
                lc = den.leading()
                if lc != 1:
                    num = num / lc
                    den = den / lc
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.degree == 0

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        return hash((self.num, self.den))

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return self.den.degree == 0 and self.num == other

    def _lift(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        return RatFunc(Poly((other,)), Poly((1,)), _reduced=True)

    def __add__(self, other):
        o = self._lift(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __mul__(self, other):
        o = self._lift(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    def __truediv__(self, other):
        o = self._lift(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def eval(self, x):
        return _coeff_div(self.num.eval(x), self.den.eval(x))

    def json(self):
        return {"type": "ratfunc", "num": self.num.json(), "den": self.den.json()}


class RationalPolyRing(RingHandle):
    """Q[X]: dense polynomials with Fraction coefficients.  `var` names the
    variable for the expression grammar only."""

    family = "qpoly"

    def __init__(self, var: str = "X"):
        self.var = var

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

    def field_coerce(self, v):
        if isinstance(v, RatFunc):
            return v
        return RatFunc(self.coerce(v))

    def from_field(self, q):
        if not q.is_poly():
            raise ValueError("element is a proper rational function, not a polynomial")
        return q.num

    def symbol(self, name):
        return RatFunc(Poly((Fraction(0), Fraction(1)))) if name == self.var else None

    def inverse_bezout(self, a, b):
        d, s, t = poly_extended_gcd(a, b)
        if d.is_zero():
            return None
        return RatFunc(s, d), RatFunc(t, d)

    def to_json(self):
        return {"family": "qpoly"}

    def __str__(self):
        return f"Q[{self.var}]"


QQ_POLY = RationalPolyRing()
