"""Semigroup rings D[X; S] with S a pure submonoid of (Q>=0, +): sparse
elements with exact rational exponents, the recursive comaximal splitting of
1 - X^s, arbitrary-length comaximal chains with full certificate sets, and
the group-ring splitter that kills pseudo-irreducibility.

S is described by its denominator primes: exponents are the nonnegative
elements of Z[1/p : p in T] (all of Z[1/p : p in T] in group mode).  Purity
is automatic: s/p stays in S for any p in T.

Products, exact division and the chain's Euclid certificates run on the
integer-vector kernel of `core.Poly`.  Two operands are mapped once per
operation: one lcm L of their exponent denominators turns every exponent
into an integer, g is the integer gcd of each operand's exponent
differences, and each operand becomes X^(shift/L) * f(T) with T = X^(g/L),
f in D[T] dense and shift its smallest exponent (negative in group mode).
No Fraction arithmetic is done per term; only the result's exponents and
coefficients are built as Fractions.  A product whose dense length would
exceed `_DENSE_FILL` times its number of term pairs keeps the sparse
dict loop, so `X^(1/2^20) + X^1000000` never becomes a dense vector; so
does a product of at most `_LOOP_PAIRS` term pairs.

`_from_poly` maps a kernel result back and checks membership once per
vector, not per term: every exponent t*i + shift (i >= 0) lies in S exactly
when t and shift do, and every coefficient lies in D exactly when
1/lcm(denominators) does.  When either test fails it falls back to the
per-term check and its error messages.  Euclid's cofactors over Q need not
lie in D, so the check cannot be dropped.

Exact division has no sparse path: an operand whose dense length on the
common grid exceeds `_DIVIDES_LEN` is refused with a MonoidError (bad
input, exit 2), never answered "does not divide".

`MonoidDesc` and the certificates (`SplitResult`, `ChainResult`,
`JuettSplit`) are plain classes with an explicit `__init__`; see `core` for
why not dataclasses.  `MonoidDesc` has no `__eq__`: rings compare by
`to_json()`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .core import CertificateError, Poly, RingElem, RingHandle, pairwise_json, poly_divrem, poly_extended_gcd
from .rings import QQ, IntegerRing, LocalizedIntegers, RationalField


class MonoidError(ValueError):
    pass


class MonoidDesc:
    """Denominator-lattice description of S."""

    def __init__(self, primes, group: bool = False):
        ps = tuple(sorted(set(primes)))
        if not ps or any(p < 2 for p in ps):
            raise MonoidError("purity needs at least one denominator prime >= 2")
        self.primes = ps
        self.group = group

    def contains(self, s: Fraction) -> bool:
        s = Fraction(s)
        if not self.group and s < 0:
            return False
        den = s.denominator
        for p in self.primes:
            while den % p == 0:
                den //= p
        return den == 1

    def label(self) -> str:
        kind = "group" if self.group else "monoid"
        if len(self.primes) == 1:
            return f"{kind} p-div:{self.primes[0]}"
        return f"{kind} mult:{{{','.join(map(str, self.primes))}}}"

    def to_json(self):
        return {
            "primes": [str(p) for p in self.primes],
            "group": self.group,
        }


# A product goes through the dense kernel while its dense length is at most
# this many times its number of term pairs, the work of the sparse loop.
# Products of at most _LOOP_PAIRS term pairs keep the loop: the kernel's
# fixed cost is higher there.
_DENSE_FILL = 8
_LOOP_PAIRS = 4
# The longest dense operand exact division builds: at 2^16 entries one
# division takes about 0.25 s and 32 MB (CPython 3.11, one core of a
# 2-vCPU machine).
_DIVIDES_LEN = 1 << 16
_ZERO = Fraction(0)


class MonoidElem(RingElem):
    """Finite exponent -> coefficient map, exponents in S, no zero coefficients."""

    __slots__ = ("terms", "ring")

    def __init__(self, terms, ring: "MonoidRing", _checked=False):
        if not _checked:
            merged: dict[Fraction, Fraction] = {}
            for e, c in terms:
                e = Fraction(e)
                c = Fraction(c)
                if not ring.desc.contains(e):
                    raise MonoidError(f"exponent {e} not in S ({ring.desc.label()})")
                if not ring.base.contains_rat(c):
                    raise MonoidError(f"coefficient {c} outside {ring.base}")
                merged[e] = merged.get(e, Fraction(0)) + c
            terms = tuple(sorted((e, c) for e, c in merged.items() if c != 0))
        self.terms = terms
        self.ring = ring

    def _lift(self, other) -> "MonoidElem":
        if isinstance(other, MonoidElem):
            if other.ring != self.ring:
                raise MonoidError("mixed monoid rings")
            return other
        return self.ring.coerce(other)

    def __add__(self, other):
        o = self._lift(other)
        out = dict(self.terms)
        for e, c in o.terms:
            v = out.get(e, Fraction(0)) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return MonoidElem(tuple(sorted(out.items())), self.ring, _checked=True)

    def __neg__(self):
        return MonoidElem(tuple((e, -c) for e, c in self.terms), self.ring, _checked=True)

    def __mul__(self, other):
        o = self._lift(other)
        a, b = self.terms, o.terms
        if len(a) * len(b) <= _LOOP_PAIRS:
            return self._sparse_mul(o)
        den, ea, eb, step = _grid(a, b)
        if (ea[-1] - ea[0] + eb[-1] - eb[0]) // step + 1 > _DENSE_FILL * len(a) * len(b):
            return self._sparse_mul(o)
        prod = _to_poly(a, ea, step) * _to_poly(b, eb, step)
        shift = ea[0] + eb[0]
        return MonoidElem(
            tuple((Fraction(shift + step * i, den), c) for i, c in enumerate(prod.coeffs) if c),
            self.ring,
            _checked=True,
        )

    def _sparse_mul(self, o):
        out: dict[Fraction, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in o.terms:
                e = e1 + e2
                v = out.get(e, Fraction(0)) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        return MonoidElem(tuple(sorted(out.items())), self.ring, _checked=True)

    def _one(self):
        return self.ring.one

    def _invert(self):
        # `/` divides by nonzero constants only, so exactly those invert,
        # and 1/c must lie in the base
        return self.ring.one / self

    def __truediv__(self, other):
        o = self._lift(other)
        if len(o.terms) != 1 or o.terms[0][0] != 0:
            raise MonoidError("division is only available by nonzero constants")
        c = o.terms[0][1]
        return MonoidElem(tuple((e, v / c) for e, v in self.terms), self.ring)

    def __eq__(self, other):
        if isinstance(other, MonoidElem):
            return self.ring == other.ring and self.terms == other.terms
        try:
            return self.terms == self._lift(other).terms
        except (MonoidError, ValueError, TypeError):
            return NotImplemented

    def __hash__(self):
        return hash((self.terms,))

    def __bool__(self):
        return bool(self.terms)

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
                continue
            mono = "X" if e == 1 else f"X^({e})"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"MonoidElem({self.to_str()})"


class MonoidRing(RingHandle):
    """Ring handle for D[X; S]."""

    family = "monoid"

    def __init__(self, base, desc: MonoidDesc):
        if not isinstance(base, (RationalField, IntegerRing, LocalizedIntegers)):
            raise MonoidError(f"unsupported base {base!r}")
        if desc.group and not isinstance(base, RationalField):
            # group-ring splitting needs p-th roots from the field
            raise MonoidError("group mode needs the field base Q")
        self.base = base
        self.desc = desc
        # the expression grammar's working domain: the same S over Q
        self._over_q = self if isinstance(base, RationalField) else MonoidRing(QQ, desc)

    @property
    def zero(self):
        return MonoidElem((), self, _checked=True)

    @property
    def one(self):
        return MonoidElem(((Fraction(0), Fraction(1)),), self, _checked=True)

    def monomial(self, exp, coeff=1) -> MonoidElem:
        return MonoidElem(((Fraction(exp), Fraction(coeff)),), self)

    def coerce(self, v):
        if isinstance(v, MonoidElem):
            if v.ring != self:
                raise MonoidError("mixed monoid rings")
            return v
        return MonoidElem(((Fraction(0), Fraction(v)),), self)

    def divides(self, b: MonoidElem, a: MonoidElem):
        if not b:
            return self.zero if not a else None
        if not a:
            return self.zero
        den, ea, eb, step = _grid(a.terms, b.terms)
        n = max(ea[-1] - ea[0], eb[-1] - eb[0]) // step + 1
        if n > _DIVIDES_LEN:
            raise MonoidError(
                f"exact division needs {n} dense terms on the exponent grid {Fraction(step, den)}; "
                f"the limit is {_DIVIDES_LEN}"
            )
        q, r = poly_divrem(_to_poly(a.terms, ea, step), _to_poly(b.terms, eb, step))
        if not r.is_zero():
            return None
        try:
            return _from_poly(q, step, ea[0] - eb[0], den, self)
        except MonoidError:
            return None

    def field_coerce(self, v):
        return self._over_q.coerce(v)

    def symbol(self, name):
        # X^e is a monomial for every e in S, not a power of X
        return self._over_q.monomial if name == "X" else None

    def from_field(self, v):
        return MonoidElem(v.terms, self)

    def is_unit(self, x) -> bool:
        if not isinstance(x, MonoidElem) or len(x.terms) != 1:
            return False
        e, c = x.terms[0]
        if not self.base.is_unit(c):
            return False
        return True if self.desc.group else e == 0

    def to_json(self):
        return {"family": "monoid", "base": self.base.to_json(), "monoid": self.desc.to_json()}

    def __str__(self):
        sym = "Gamma" if self.desc.group else "S"
        return f"{self.base}[X;{sym}:{self.desc.label()}]"


def _grid(ta, tb):
    """(L, ea, eb, g) for two nonempty term tuples: L the lcm of every
    exponent's denominator, ea and eb the exponents times L as ints, and g
    the gcd of every difference within ea and within eb (1 if there is none)."""
    den = lcm(*(e.denominator for e, _ in ta), *(e.denominator for e, _ in tb))
    ea = [e.numerator * (den // e.denominator) for e, _ in ta]
    eb = [e.numerator * (den // e.denominator) for e, _ in tb]
    return den, ea, eb, gcd(*(e - ea[0] for e in ea), *(e - eb[0] for e in eb)) or 1


def _to_poly(terms, ints, step: int) -> Poly:
    """The dense f with sum(c X^e over terms) == X^(ints[0]/L) * f(X^(step/L)),
    for ints the exponents times L, each congruent to ints[0] mod step."""
    coeffs = [_ZERO] * ((ints[-1] - ints[0]) // step + 1)
    for (_, c), k in zip(terms, ints):
        coeffs[(k - ints[0]) // step] = c
    return Poly(coeffs)


def _from_poly(p: Poly, step: int, shift: int, den: int, ring: MonoidRing) -> MonoidElem:
    """X^(shift/den) * p(X^(step/den)) in the ring, step > 0.  Membership is
    checked once for the vector; per term only when that check fails."""
    cs = p.coeffs
    whole_vector_in_ring = (
        ring.desc.contains(Fraction(step, den))
        and ring.desc.contains(Fraction(shift, den))
        and all(type(c) is Fraction for c in cs)
        and ring.base.contains_rat(Fraction(1, lcm(*(c.denominator for c in cs))))
    )
    terms = tuple((Fraction(shift + step * i, den), c) for i, c in enumerate(cs) if c)
    return MonoidElem(terms, ring, _checked=whole_vector_in_ring)


class SplitResult:
    """1 - X^s == f1 * f2 with f1 = 1 - X^t, f2 = 1 + sum_i X^(t*i), plus the
    comaximality certificate lam*f1 + mu*f2 == 1 built from the division
    remainder n (a unit of D)."""

    def __init__(self, s: Fraction, n: int, f1: MonoidElem, f2: MonoidElem,
                 lam: MonoidElem, mu: MonoidElem, remainder: Fraction):
        self.s = s
        self.n = n
        self.f1 = f1
        self.f2 = f2
        self.lam = lam
        self.mu = mu
        self.remainder = remainder

    def verify(self) -> bool:
        ring = self.f1.ring
        prod_ok = self.f1 * self.f2 == ring.one - ring.monomial(self.s)
        cert_ok = self.lam * self.f1 + self.mu * self.f2 == ring.one
        return prod_ok and cert_ok

    def to_json(self, enc):
        return {
            "s": str(self.s),
            "n": self.n,
            "f1": enc(self.f1),
            "f2": enc(self.f2),
            "lam": enc(self.lam),
            "mu": enc(self.mu),
            "remainder": str(self.remainder),
        }


def _require_unit(ring: MonoidRing, n: int) -> Fraction:
    inv = Fraction(1, n)
    if not ring.base.contains_rat(inv):
        raise MonoidError(
            f"{n} is not invertible in the base {ring.base}; the split needs "
            f"1/{n} there (use a base containing Z[1/{n}] or Q)"
        )
    return inv


def mr_split(s, n: int, ring: MonoidRing) -> SplitResult:
    """Split 1 - X^s = (1 - X^t)(1 + X^t + ... + X^(t(n-1))), t = s/n."""
    s = Fraction(s)
    if s <= 0 or not ring.desc.contains(s):
        raise MonoidError(f"exponent {s} not a positive element of S")
    if n < 2:
        raise MonoidError("need n >= 2")
    t = s / n
    if not ring.desc.contains(t):
        raise MonoidError(f"exponent {t} = s/n not in S ({ring.desc.label()})")
    inv_n = _require_unit(ring, n)
    one = ring.one
    f1 = one - ring.monomial(t)
    f2 = MonoidElem(tuple((t * i, Fraction(1)) for i in range(n)), ring)
    # division identity in D[Z]: f2(Z) = (1 - Z) q(Z) + n
    pz = Poly([Fraction(1)] * n)
    q, rem = poly_divrem(pz, Poly([Fraction(1), Fraction(-1)]))
    if rem != Poly((Fraction(n),)):
        raise CertificateError("division remainder is not n (bug)")
    lam = -_from_poly(q.scale(inv_n), t.numerator, 0, t.denominator, ring)
    mu = ring.coerce(inv_n)
    res = SplitResult(s, n, f1, f2, lam, mu, Fraction(n))
    if not res.verify():
        raise CertificateError("split certificates failed to verify")
    return res


class ChainResult:
    def __init__(self, s: Fraction, factors: list, pairwise: list, splits: list):
        self.s = s
        self.factors = factors
        self.pairwise = pairwise  # (i, j, lam, mu)
        self.splits = splits

    def verify(self) -> bool:
        ring = self.factors[0].ring
        prod = ring.one
        for f in self.factors:
            prod = prod * f
        if prod != ring.one - ring.monomial(self.s):
            return False
        for i, j, lam, mu in self.pairwise:
            if lam * self.factors[i] + mu * self.factors[j] != ring.one:
                return False
        return True

    def to_json(self, enc):
        return {
            "s": str(self.s),
            "m": len(self.factors),
            "factors": enc(self.factors),
            "pairwise": pairwise_json(self.pairwise, enc),
        }


def mr_comax_chain(s, m: int, ring: MonoidRing, n: int | None = None) -> ChainResult:
    """m pairwise comaximal factors with product 1 - X^s, by telescoping the
    split m-1 times into the 1 - X^t factor."""
    s = Fraction(s)
    if m < 1:
        raise MonoidError("need m >= 1")
    if n is None:
        n = ring.desc.primes[0]
    splits = []
    cofactors = []
    cur = s
    for _ in range(m - 1):
        sp = mr_split(cur, n, ring)
        splits.append(sp)
        cofactors.append(sp.f2)
        cur = cur / n
    if not ring.desc.contains(cur):
        raise MonoidError(f"exponent {cur} not in S")
    factors = [ring.one - ring.monomial(cur)] + list(reversed(cofactors))
    pairwise = []
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            # every factor has constant term 1; Euclid runs in D[T] with T
            # the pair's own generator, and its cofactors are the unique
            # ones of minimal degree, so a coarser T gives the same lam, mu
            fi, fj = factors[i].terms, factors[j].terms
            den, ei, ej, step = _grid(fi, fj)
            d, si, tj = poly_extended_gcd(_to_poly(fi, ei, step), _to_poly(fj, ej, step))
            if d != Poly((Fraction(1),)):
                raise CertificateError("chain factors are not comaximal (bug)")
            pairwise.append((i, j, _from_poly(si, step, 0, den, ring), _from_poly(tj, step, 0, den, ring)))
    chain = ChainResult(s, factors, pairwise, splits)
    if not chain.verify():
        raise CertificateError("chain certificates failed to verify")
    return chain


class JuettSplit:
    """X^t - b == unit * (Z - 1) * (1 + Z + ... + Z^(p-1)) with Z = X^(t/p)/beta."""

    def __init__(self, t: Fraction, b: Fraction, p: int, beta: Fraction, unit: MonoidElem, z: MonoidElem,
                 f1: MonoidElem, f2: MonoidElem, lam: MonoidElem, mu: MonoidElem):
        self.t = t
        self.b = b
        self.p = p
        self.beta = beta
        self.unit = unit
        self.z = z
        self.f1 = f1  # Z - 1
        self.f2 = f2  # 1 + Z + ... + Z^(p-1)
        self.lam = lam
        self.mu = mu

    def verify(self) -> bool:
        ring = self.unit.ring
        target = ring.monomial(self.t) - ring.coerce(self.b)
        if self.unit * self.f1 * self.f2 != target:
            return False
        return self.lam * self.f1 + self.mu * self.f2 == ring.one

    def to_json(self, enc):
        return {
            "t": str(self.t),
            "b": str(self.b),
            "p": self.p,
            "beta": str(self.beta),
            "unit": enc(self.unit),
            "z": enc(self.z),
            "f1": enc(self.f1),
            "f2": enc(self.f2),
            "lam": enc(self.lam),
            "mu": enc(self.mu),
        }


def juett_split(t, b, p: int, beta, ring: MonoidRing) -> JuettSplit:
    """Comaximal split of X^t - b in a group ring K[X; Gamma], given an
    explicit p-th root beta of b."""
    if not ring.desc.group:
        raise MonoidError("the splitter needs group mode (Laurent exponents)")
    t = Fraction(t)
    b = Fraction(b)
    beta = Fraction(beta)
    if p < 2:
        raise MonoidError("need a prime p >= 2")
    if beta**p != b or b == 0:
        raise MonoidError(f"beta^{p} != b: no usable p-th root supplied")
    tp = t / p
    if not ring.desc.contains(tp) or not ring.desc.contains(t):
        raise MonoidError(f"exponent {tp} not in the group")
    z = ring.monomial(tp, Fraction(1) / beta)
    one = ring.one
    f1 = z - one
    f2 = MonoidElem(tuple((tp * i, (Fraction(1) / beta) ** i) for i in range(p)), ring)
    unit = ring.coerce(b)
    # certificate via the division remainder p, as in the monoid split
    pz = Poly([Fraction(1)] * p)
    q, rem = poly_divrem(pz, Poly([Fraction(-1), Fraction(1)]))
    if rem != Poly((Fraction(p),)):
        raise CertificateError("division remainder is not p (bug)")
    inv_p = Fraction(1, p)
    # f2 = f1 * q(Z) + p  =>  (-q(Z)/p) f1 + (1/p) f2 = 1
    qz = ring.zero
    zpow = one
    for c in q.coeffs:
        if c:
            qz = qz + ring.coerce(c) * zpow
        zpow = zpow * z
    lam = ring.coerce(-inv_p) * qz
    mu = ring.coerce(inv_p)
    res = JuettSplit(t, b, p, beta, unit, z, f1, f2, lam, mu)
    if not res.verify():
        raise CertificateError("splitter certificates failed to verify")
    return res
