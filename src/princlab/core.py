"""Exact arithmetic substrate: extended integer gcd, integer factorization
and square roots modulo a prime, dense univariate polynomials over a field,
rational functions, and small integer lattice solves.  It also holds the
certificate plumbing every engine shares: `CertificateError`, the encoding of
pairwise Bezout certificates, the "rat" leaves of a coefficient list
(`rat_leaves`), `is_comaximal_product` (the one check of a comaximal
factorization u * f_1 * ... * f_m == b with lam*f_i + mu*f_j == 1, which the
D[X;S], limit-ring and Z / Z[sqrt(d)] certificates all call) and `mat_mul`,
the one matrix product (idempotent matrices, the B2 projector).

Two small bases carry what every ring family shares.  `RingElem` derives
binary ``-``, the reflected ``+``, ``-``, ``*`` and ``**`` (repeated
squaring) from an element class's own ``+``, unary ``-``, ``*`` and
`_one()`; a negative power is a power of `_invert()`, which raises unless
the class defines it.  An element class owns its report form,
`to_json(enc)`, and `RingElem.__repr__` prints that form.  `RingHandle`
gives every ring handle its identity: same ring <=> same `to_json()`, the
description `recheck` reads back.

Everything here is immutable and exact.  Coefficients may be Python ints,
`fractions.Fraction`, or any object implementing field arithmetic through
the usual operators (``+ - * /``) together with ``==`` against ``0``/``1``;
mixed int scalars are tolerated because exact coefficient types coerce them.

`Poly` over Z and Q runs on an integer-vector kernel.  A coefficient vector
that is all `int` or all `Fraction` is cleared to integer numerators over one
denominator: long products use Kronecker substitution (one big-int
product) and short ones an integer schoolbook loop, `compose` evaluates at
the packed argument, and `poly_divrem` / `poly_extended_gcd` run their usual
steps on integer vectors.  The result has the coefficient types the
schoolbook loops give (ints from two all-int operands, Fractions once a
Fraction takes part), so report bytes do not change.  Vectors that mix int
and Fraction, and every other coefficient ring (Q(sqrt(d)), polynomials),
keep those loops.  Euclid's cofactors of coprime f and g are the unique ones
of minimal degree, so no choice of arithmetic can change what
`poly_extended_gcd` returns.

Every CLI call is a fresh process, so import time is part of each call.  No
module of the package imports `dataclasses`: its import pulls in `inspect`,
`ast` and `dis`, and each decorated class `exec`s generated code at start-up.
Certificates are plain classes with an explicit `__init__`, and compare by
identity.  The small primes for trial division come from a sieve.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


class CertificateError(Exception):
    """A producer's own certificate failed its self-check: a bug, never bad
    input.  Deliberately not a ValueError, so the CLI exits 3, not 2."""


class RingElem:
    """Base of every element class of a commutative ring.  A subclass
    defines ``+``, unary ``-``, ``*``, `_one()` and, if it has inverses,
    `_invert()`; the rest is derived here.
    ``__add__``/``__mul__`` may return NotImplemented for foreign operands,
    and the reflected forms pass that on."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            return self._invert() ** -n
        if n == 0:
            return self._one()
        # repeated squaring from the low bit: x**1 takes no product, x**(2**k)
        # takes k, and the square after the top bit is never formed
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def _invert(self):
        """The inverse that negative powers take; a ValueError where there
        is none."""
        raise ValueError(f"negative power of a {type(self).__name__}")

    def __repr__(self):
        import json

        from .report import enc  # at call time: `report` imports this module

        return f"{type(self).__name__}({json.dumps(enc(self))})"


class RingHandle:
    """Base of every ring handle: two handles are the same ring exactly when
    their `to_json()` descriptions are equal."""

    def __eq__(self, other):
        return self is other or (isinstance(other, RingHandle) and self.to_json() == other.to_json())

    def __hash__(self):
        import json

        return hash(json.dumps(self.to_json(), sort_keys=True))


def _frac(x) -> str:
    """A rational as report text: "p", or "p/q" in lowest terms."""
    f = x if type(x) is Fraction else Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


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


def pairwise_json(pairwise, enc):
    """[(i, j, lam, mu)] with lam*f_i + mu*f_j == 1, as report data."""
    return [{"i": i, "j": j, "lam": enc(lam), "mu": enc(mu)} for i, j, lam, mu in pairwise]


def is_comaximal_product(one, target, factors, pairwise, unit=None) -> bool:
    """unit * f_1 * ... * f_m == target (unit defaults to one), and
    lam*f_i + mu*f_j == one for every (i, j, lam, mu) in pairwise.  The
    product runs left to right from the unit."""
    prod = one if unit is None else unit
    for f in factors:
        prod = prod * f
    if prod != target:
        return False
    return all(lam * factors[i] + mu * factors[j] == one for i, j, lam, mu in pairwise)


def mat_mul(p, q):
    """The matrix product p*q of nested lists (p is r x n, q is n x c)."""
    n = len(q)
    return [
        [sum((p[i][k] * q[k][j] for k in range(1, n)), p[i][0] * q[0][j]) for j in range(len(q[0]))]
        for i in range(len(p))
    ]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def _primes_below(n: int) -> list[int]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


# Integer factorization (Cohen, GTM 138, sections 8.2 and 8.5): trial
# division, deterministic Miller-Rabin, Pollard-Brent rho.  Miller-Rabin with
# the first 13 prime bases is proven exact below _MR_BOUND (Sorenson and
# Webster, 2015).  Cofactors at or above that bound, and those that outlast
# _RHO_STEPS rho iterations, go to sympy, which is imported only then.
_SMALL_PRIMES = _primes_below(1000)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_RHO_STEPS = 1 << 18


def _is_prime(n: int) -> bool:
    """Deterministic primality for 1 < n < _MR_BOUND with no factor below 1000."""
    q, s = n - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, q, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Whether n is prime: exact below _MR_BOUND, a ValueError from there."""
    if n < 1_000_000:
        return n > 1 and all(n % p for p in _SMALL_PRIMES if p * p <= n)
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large to prove prime")
    return all(n % p for p in _SMALL_PRIMES) and _is_prime(n)


def _pollard_brent(n: int) -> int | None:
    """A proper factor of the odd composite n, or None once _RHO_STEPS
    iterations of x -> x^2 + c (c = 1, 2, ...) have found none."""
    root = isqrt(n)
    if root * root == n:
        return root
    steps, batch = 0, 128
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            steps += 2 * r
            r <<= 1
            if g == 1 and steps > _RHO_STEPS:
                return None
        if g == n:
            # the batch overshot: step back one iteration at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of the integer n >= 1, primes ascending
    ({} for n == 1)."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < 1_000_000 or (m < _MR_BOUND and _is_prime(m)):
            # trial division leaves no composite below 1000^2
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_brent(m) if m < _MR_BOUND else None
        if f is None:
            from sympy import factorint as sympy_factorint

            for p, e in sympy_factorint(m).items():
                out[p] = out.get(p, 0) + e
            continue
        pending += [f, m // f]
    return dict(sorted(out.items()))


def sqrt_mod_prime(a: int, p: int) -> int:
    """The root r <= p // 2 of r*r == a (mod p), p prime (Tonelli-Shanks,
    Cohen GTM 138, algorithm 1.5.1); raises ValueError for a non-residue."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


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

    @classmethod
    def x(cls):
        return cls((0, 1))

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

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return Poly((0,) * k + self.coeffs)

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

    def to_json(self, enc):
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

    @classmethod
    def const(cls, c):
        return cls(Poly((c,)), Poly((1,)), _reduced=True)

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

    def to_json(self, enc):
        return {"type": "ratfunc", "num": enc(self.num), "den": enc(self.den)}


def hnf2_with_transform(rows):
    """Hermite-style basis of the Z-span of integer 2-vectors.

    Returns ((n, 0), (c, m), e1, e2) where the two basis vectors span the
    same lattice as `rows`, n, m >= 0, 0 <= c < n when n > 0 and m > 0, and
    e1, e2 are integer coefficient vectors expressing the basis in terms of
    the input rows.  Degenerate (rank < 2) spans give zero entries.
    """
    vecs = [tuple(v) for v in rows]
    k = len(vecs)
    expr = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def combine(i, j):
        # makes vecs[j] have zero second component, keeping the span
        yi, yj = vecs[i][1], vecs[j][1]
        g, s, t = xgcd(yi, yj)
        a, b = yj // g, -yi // g
        vi = (s * vecs[i][0] + t * vecs[j][0], g)
        vj = (a * vecs[i][0] + b * vecs[j][0], 0)
        ei = [s * expr[i][l] + t * expr[j][l] for l in range(k)]
        ej = [a * expr[i][l] + b * expr[j][l] for l in range(k)]
        vecs[i], vecs[j] = vi, vj
        expr[i], expr[j] = ei, ej

    pivot = None
    for idx in range(k):
        if vecs[idx][1] == 0:
            continue
        if pivot is None:
            pivot = idx
        else:
            combine(pivot, idx)
    if pivot is not None and vecs[pivot][1] < 0:
        vecs[pivot] = (-vecs[pivot][0], -vecs[pivot][1])
        expr[pivot] = [-c for c in expr[pivot]]

    xpivot = None
    for idx in range(k):
        if idx == pivot or vecs[idx][0] == 0:
            continue
        if xpivot is None:
            xpivot = idx
        else:
            yi, yj = vecs[xpivot][0], vecs[idx][0]
            g, s, t = xgcd(yi, yj)
            a, b = yj // g, -yi // g
            vi = (g, 0)
            ei = [s * expr[xpivot][l] + t * expr[idx][l] for l in range(k)]
            ej = [a * expr[xpivot][l] + b * expr[idx][l] for l in range(k)]
            vecs[xpivot], vecs[idx] = vi, (0, 0)
            expr[xpivot], expr[idx] = ei, ej
    if xpivot is not None and vecs[xpivot][0] < 0:
        vecs[xpivot] = (-vecs[xpivot][0], 0)
        expr[xpivot] = [-c for c in expr[xpivot]]

    zero = [0] * k
    b1, e1 = ((0, 0), list(zero)) if xpivot is None else (vecs[xpivot], expr[xpivot])
    b2, e2 = ((0, 0), list(zero)) if pivot is None else (vecs[pivot], expr[pivot])
    n = b1[0]
    if n > 0 and b2[1] > 0:
        q = b2[0] // n
        b2 = (b2[0] - q * n, b2[1])
        e2 = [e2[l] - q * e1[l] for l in range(k)]
    return b1, b2, e1, e2


def solve_int_combination(rows, target):
    """Integer coefficients c with sum(c[i] * rows[i]) == target, or None."""
    if not rows:
        return None if tuple(target) != (0, 0) else []
    (n, _), (c, m), e1, e2 = hnf2_with_transform(rows)
    tx, ty = target
    if m == 0:
        if ty != 0:
            return None
        beta = 0
    else:
        if ty % m:
            return None
        beta = ty // m
    rx = tx - beta * c
    if n == 0:
        if rx != 0:
            return None
        alpha = 0
    else:
        if rx % n:
            return None
        alpha = rx // n
    return [alpha * e1[l] + beta * e2[l] for l in range(len(rows))]
