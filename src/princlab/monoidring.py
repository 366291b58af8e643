"""Semigroup rings D[X; S] with S a pure submonoid of (Q>=0, +): sparse
elements with exact rational exponents, the recursive comaximal splitting of
1 - X^s, arbitrary-length comaximal chains with full certificate sets, and
the group-ring splitter that kills pseudo-irreducibility.

S is described by its denominator primes: exponents are the nonnegative
elements of Z[1/p : p in T] (all of Z[1/p : p in T] in group mode).  Purity
is automatic: s/p stays in S for any p in T.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .core import CertificateError, Poly, RingElem, RingHandle, pairwise_json, poly_divrem
from .rings import IntegerRing, LocalizedIntegers, RationalField


class MonoidError(ValueError):
    pass


@dataclass(frozen=True)
class MonoidDesc:
    """Denominator-lattice description of S."""

    primes: tuple[int, ...]
    group: bool = False

    def __post_init__(self):
        ps = tuple(sorted(set(self.primes)))
        if not ps or any(p < 2 for p in ps):
            raise MonoidError("purity needs at least one denominator prime >= 2")
        object.__setattr__(self, "primes", ps)

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


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator))


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

    def exponents(self):
        return [e for e, _ in self.terms]

    def min_exponent(self) -> Fraction:
        return self.terms[0][0]

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
        t = mr_common_generator([a, b])
        sa, sb = a.min_exponent(), b.min_exponent()
        pa = _to_poly(a, t, sa)
        pb = _to_poly(b, t, sb)
        q, r = poly_divrem(pa, pb)
        if not r.is_zero():
            return None
        shift = sa - sb
        try:
            return _from_poly(q, t, shift, self)
        except MonoidError:
            return None

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


def _to_poly(e: MonoidElem, t: Fraction, shift: Fraction) -> Poly:
    coeffs: dict[int, Fraction] = {}
    for exp, c in e.terms:
        k = (exp - shift) / t
        if k.denominator != 1 or k < 0:
            raise MonoidError("exponent not reachable from the common generator")
        coeffs[int(k)] = c
    deg = max(coeffs)
    return Poly([coeffs.get(i, Fraction(0)) for i in range(deg + 1)])


def _from_poly(p: Poly, t: Fraction, shift: Fraction, ring: MonoidRing) -> MonoidElem:
    return MonoidElem(
        tuple((t * i + shift, c) for i, c in enumerate(p.coeffs) if c != 0), ring
    )


def mr_common_generator(elems) -> Fraction:
    """Largest t with every exponent in t*Z; constants-only input gives 1."""
    elems = [e for e in elems if isinstance(e, MonoidElem)]
    if not elems:
        raise MonoidError("need at least one element")
    t = Fraction(0)
    for e in elems:
        for exp in e.exponents():
            if exp:
                t = frac_gcd(t, abs(exp)) if t else abs(exp)
    return t if t else Fraction(1)


@dataclass
class SplitResult:
    """1 - X^s == f1 * f2 with f1 = 1 - X^t, f2 = 1 + sum_i X^(t*i), plus the
    comaximality certificate lam*f1 + mu*f2 == 1 built from the division
    remainder n (a unit of D)."""

    s: Fraction
    n: int
    f1: MonoidElem
    f2: MonoidElem
    lam: MonoidElem
    mu: MonoidElem
    remainder: Fraction

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
    lam = -_from_poly(q.scale(inv_n), t, Fraction(0), ring)
    mu = ring.coerce(inv_n)
    res = SplitResult(s, n, f1, f2, lam, mu, Fraction(n))
    if not res.verify():
        raise CertificateError("split certificates failed to verify")
    return res


@dataclass
class ChainResult:
    s: Fraction
    factors: list
    pairwise: list  # (i, j, lam, mu)
    splits: list

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
    if len(factors) > 1:
        t = mr_common_generator(factors)
        from .core import poly_extended_gcd

        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                pi = _to_poly(factors[i], t, Fraction(0))
                pj = _to_poly(factors[j], t, Fraction(0))
                d, si, tj = poly_extended_gcd(pi, pj)
                if d != Poly((Fraction(1),)):
                    raise CertificateError("chain factors are not comaximal (bug)")
                lam = _from_poly(si, t, Fraction(0), ring)
                mu = _from_poly(tj, t, Fraction(0), ring)
                pairwise.append((i, j, lam, mu))
    chain = ChainResult(s, factors, pairwise, splits)
    if not chain.verify():
        raise CertificateError("chain certificates failed to verify")
    return chain


@dataclass
class JuettSplit:
    """X^t - b == unit * (Z - 1) * (1 + Z + ... + Z^(p-1)) with Z = X^(t/p)/beta."""

    t: Fraction
    b: Fraction
    p: int
    beta: Fraction
    unit: MonoidElem
    z: MonoidElem
    f1: MonoidElem  # Z - 1
    f2: MonoidElem  # 1 + Z + ... + Z^(p-1)
    lam: MonoidElem
    mu: MonoidElem

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
