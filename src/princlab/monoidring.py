"""Semigroup rings D[X; S] with S a pure submonoid of (Q>=0, +): sparse
elements with exact rational exponents, the recursive comaximal splitting of
1 - X^s, arbitrary-length comaximal chains with full certificate sets, and
the group-ring splitter that kills pseudo-irreducibility.

S is described by its denominator primes: exponents are the nonnegative
elements of Z[1/p : p in T] (all of Z[1/p : p in T] in group mode).  Purity
is automatic: s/p stays in S for any p in T.

An element is two integer vectors: its exponents as numerators over one
least denominator, in ascending order, and its coefficients as numerators
over another.  So sums, products and Euclid's mapped cofactors build no
Fraction per term; `terms` builds the Fraction pairs on demand, and
`json` writes the report's "p/q" text from the integers.

Products, exact division and the chain's Euclid certificates run on the
integer-vector kernel of `poly.Poly`.  Two operands are mapped once per
operation: one lcm L of their exponent denominators turns every exponent
into an integer, g is the integer gcd of each operand's exponent
differences, and each operand becomes X^(shift/L) * f(T) with T = X^(g/L),
f dense with the operand's coefficient numerators and shift its smallest
exponent (negative in group mode).  A product whose dense length would
exceed `_DENSE_FILL` times its number of term pairs keeps the sparse
dict loop, so `X^(1/2^20) + X^1000000` never becomes a dense vector; so
does a product of at most `_LOOP_PAIRS` term pairs.

`_elem` reduces both vectors to least denominators.  It checks membership
once per vector, not per term: with least denominators, every exponent
lies in S exactly when the smallest is nonnegative (outside group mode) and
the exponent denominator has only primes of S, and every coefficient lies
in D exactly when 1/(coefficient denominator) does.  The terms are walked
only to name the first one outside.  Euclid's cofactors over Q need not
lie in D, so `_from_poly`, which maps a kernel result back, keeps the check.

Exact division has no sparse path: an operand whose dense length on the
common grid exceeds `_DIVIDES_LEN` is refused with a MonoidError (bad
input, exit 2), never answered "does not divide".

`MonoidDesc` and the certificates (`SplitResult`, `ChainResult`,
`JuettSplit`) are plain classes with an explicit `__init__`; see `core` for
why not dataclasses.  Their products and Bezout pairs are checked by
`recheck` alone, which `cli` runs on every report.  `MonoidDesc` has no
`__eq__`: rings compare by `to_json()`.
"""

from __future__ import annotations

from math import gcd, lcm

from .core import CertificateError, RingElem, RingHandle, is_prime, pairwise_json
from .poly import Poly, poly_divrem, poly_extended_gcd, rat_leaves
from .rational import Fraction
from .rings import QQ, RationalField, _strip_primes


class MonoidError(ValueError):
    pass


class MonoidDesc:
    """Denominator-lattice description of S."""

    def __init__(self, primes, group: bool = False):
        ps = tuple(sorted(set(primes)))
        if not ps or any(p < 2 for p in ps):
            raise MonoidError("purity needs at least one denominator prime >= 2")
        for p in ps:
            if not is_prime(p):
                raise MonoidError(f"denominator {p} of S is not a prime")
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


def _ratio(n: int, d: int) -> str:
    """n/d (d > 0) as report text: "p", or "p/q" in lowest terms."""
    if d == 1:
        return str(n)
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class MonoidElem(RingElem):
    """Finite sum of c X^e with e in S and no zero coefficient, stored as two
    integer vectors: exponents exps[i]/den in ascending order and
    coefficients coeffs[i]/cden.  den and cden are the least common
    denominators (gcd(den, *exps) == gcd(cden, *coeffs) == 1; both are 1 for
    zero), so equal elements have equal fields.  `terms` gives the
    (exponent, coefficient) Fraction pairs; `json` writes them without
    building a Fraction."""

    __slots__ = ("den", "exps", "cden", "coeffs", "ring")

    def __init__(self, terms, ring: "MonoidRing", _checked=False):
        # terms: (exponent, coefficient) pairs, checked and merged here
        # unless _checked says they are sorted Fractions with distinct
        # exponents in S and nonzero coefficients in D
        if not _checked:
            merged: dict[Fraction, Fraction] = {}
            for e, c in terms:
                e = Fraction(e)
                c = Fraction(c)
                if not ring.desc.contains(e):
                    raise MonoidError(f"exponent {e} not in S ({ring.desc.label()})")
                if not ring.base.contains_rat(c):
                    raise MonoidError(f"coefficient {c} outside {ring.base}")
                merged[e] = merged.get(e, _ZERO) + c
            terms = sorted((e, c) for e, c in merged.items() if c != 0)
        den = lcm(*(e.denominator for e, _ in terms))
        cden = lcm(*(c.denominator for _, c in terms))
        self.den = den
        self.exps = tuple(e.numerator * (den // e.denominator) for e, _ in terms)
        self.cden = cden
        self.coeffs = tuple(c.numerator * (cden // c.denominator) for _, c in terms)
        self.ring = ring

    @property
    def terms(self):
        """The (exponent, coefficient) pairs as Fractions, ascending."""
        den, cden = self.den, self.cden
        return tuple((Fraction(e, den), Fraction(c, cden)) for e, c in zip(self.exps, self.coeffs))

    def __add__(self, other):
        o = self.ring.coerce(other)
        if not o.exps:
            return self
        if not self.exps:
            return o
        den, cden = lcm(self.den, o.den), lcm(self.cden, o.cden)
        out = dict(zip(_scaled(self.exps, den // self.den), _scaled(self.coeffs, cden // self.cden)))
        for e, c in zip(_scaled(o.exps, den // o.den), _scaled(o.coeffs, cden // o.cden)):
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
        items = sorted(out.items())
        return _elem(self.ring, den, [e for e, _ in items], cden, [c for _, c in items])

    def __neg__(self):
        return _elem(self.ring, self.den, self.exps, self.cden, [-c for c in self.coeffs])

    def __mul__(self, other):
        o = self.ring.coerce(other)
        na, nb = len(self.exps), len(o.exps)
        if na * nb <= _LOOP_PAIRS:
            return self._sparse_mul(o)
        den, ea, eb, step = _grid(self, o)
        if (ea[-1] - ea[0] + eb[-1] - eb[0]) // step + 1 > _DENSE_FILL * na * nb:
            return self._sparse_mul(o)
        prod = _to_poly(self, ea, step) * _to_poly(o, eb, step)
        shift = ea[0] + eb[0]
        exps, coeffs = [], []
        for i, c in enumerate(prod.coeffs):
            if c:
                exps.append(shift + step * i)
                coeffs.append(c)
        return _elem(self.ring, den, exps, self.cden * o.cden, coeffs)

    def _sparse_mul(self, o):
        den = lcm(self.den, o.den)
        out: dict[int, int] = {}
        eb = list(zip(_scaled(o.exps, den // o.den), o.coeffs))
        for e1, c1 in zip(_scaled(self.exps, den // self.den), self.coeffs):
            for e2, c2 in eb:
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        items = sorted(out.items())
        return _elem(self.ring, den, [e for e, _ in items], self.cden * o.cden, [c for _, c in items])

    def _one(self):
        return self.ring.one

    def _invert(self):
        # `/` divides by nonzero constants only, so exactly those invert,
        # and 1/c must lie in the base
        return self.ring.one / self

    def __truediv__(self, other):
        o = self.ring.coerce(other)
        if len(o.exps) != 1 or o.exps[0] != 0:
            raise MonoidError("division is only available by nonzero constants")
        # (a/A) / (c/C) == a*C / (A*c), with the sign moved to the numerators
        c, sign = abs(o.coeffs[0]), (1 if o.coeffs[0] > 0 else -1)
        return _elem(self.ring, self.den, self.exps, self.cden * c, [a * o.cden * sign for a in self.coeffs],
                     check=True)

    def __eq__(self, other):
        if not isinstance(other, MonoidElem):
            try:
                other = self.ring.coerce(other)
            except (MonoidError, ValueError, TypeError):
                return NotImplemented
        elif self.ring != other.ring:
            return False
        return (self.exps == other.exps and self.coeffs == other.coeffs and self.den == other.den
                and self.cden == other.cden)

    def __hash__(self):
        return hash((self.den, self.exps, self.cden, self.coeffs))

    def __bool__(self):
        return bool(self.exps)

    def json(self):
        den, cden = self.den, self.cden
        leaves = rat_leaves(self.coeffs, lambda c: _ratio(c, cden))
        return {"type": "monoid", "terms": [[_ratio(e, den), leaf] for e, leaf in zip(self.exps, leaves)]}


def _scaled(v, k: int):
    return v if k == 1 else [x * k for x in v]


def _elem(ring, den: int, exps, cden: int, coeffs, check=False) -> MonoidElem:
    """The element sum(coeffs[i]/cden X^(exps[i]/den)) for ascending distinct
    int exps, nonzero int coeffs and den, cden > 0, reduced to least common
    denominators.  With check, membership in the ring is tested once for
    the whole vector (exact, since den and cden are then least); the terms
    are walked only to name the first one outside."""
    g = gcd(den, *exps)
    if g != 1:
        den //= g
        exps = [e // g for e in exps]
    g = gcd(cden, *coeffs)
    if g != 1:
        cden //= g
        coeffs = [c // g for c in coeffs]
    e = object.__new__(MonoidElem)
    e.den, e.exps, e.cden, e.coeffs, e.ring = den, tuple(exps), cden, tuple(coeffs), ring
    if check and not (
        (ring.desc.group or not exps or exps[0] >= 0)
        and _strip_primes(den, ring.desc.primes) == 1
        and (cden == 1 or ring.base.contains_rat(Fraction(1, cden)))
    ):
        MonoidElem(e.terms, ring)  # raises the MonoidError naming the first term outside
    return e


class MonoidRing(RingHandle):
    """Ring handle for D[X; S]."""

    family = "monoid"

    def __init__(self, base, desc: MonoidDesc):
        if base.family not in ("rat", "int", "zloc"):
            raise MonoidError(f"unsupported base {base}")
        if desc.group and not isinstance(base, RationalField):
            # group-ring splitting needs p-th roots from the field
            raise MonoidError("group mode needs the field base Q")
        self.base = base
        self.desc = desc
        # the expression grammar's working domain: the same S over Q
        self._over_q = self if isinstance(base, RationalField) else MonoidRing(QQ, desc)

    @property
    def zero(self):
        return _elem(self, 1, (), 1, ())

    @property
    def one(self):
        return _elem(self, 1, (0,), 1, (1,))

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
        den, ea, eb, step = _grid(a, b)
        n = max(ea[-1] - ea[0], eb[-1] - eb[0]) // step + 1
        if n > _DIVIDES_LEN:
            raise MonoidError(
                f"exact division needs {n} dense terms on the exponent grid {Fraction(step, den)}; "
                f"the limit is {_DIVIDES_LEN}"
            )
        # a/b == (A/B) * (fa/fb) for fa == A*a and fb == B*b on the grid;
        # poly_divrem's integer path wants a Fraction dividend
        scale = Fraction(b.cden, a.cden)
        q, r = poly_divrem(_to_poly(a, ea, step).map_coeffs(scale.__mul__), _to_poly(b, eb, step))
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
        return _elem(self, v.den, v.exps, v.cden, v.coeffs, check=True)

    def to_json(self):
        return {"family": "monoid", "base": self.base.to_json(), "monoid": self.desc.to_json()}

    def __str__(self):
        sym = "Gamma" if self.desc.group else "S"
        return f"{self.base}[X;{sym}:{self.desc.label()}]"


def _grid(a: MonoidElem, b: MonoidElem):
    """(L, ea, eb, g) for two nonzero elements: L the lcm of their exponent
    denominators, ea and eb their exponents times L, and g the gcd of every
    difference within ea and within eb (1 if there is none)."""
    den = lcm(a.den, b.den)
    ea, eb = _scaled(a.exps, den // a.den), _scaled(b.exps, den // b.den)
    return den, ea, eb, gcd(*(e - ea[0] for e in ea), *(e - eb[0] for e in eb)) or 1


def _to_poly(a: MonoidElem, ints, step: int) -> Poly:
    """The dense integer f with cden * a == X^(ints[0]/L) * f(X^(step/L)),
    for ints the exponents of a times L, each congruent to ints[0] mod step,
    and cden a's coefficient denominator."""
    coeffs = [0] * ((ints[-1] - ints[0]) // step + 1)
    for c, k in zip(a.coeffs, ints):
        coeffs[(k - ints[0]) // step] = c
    return Poly(coeffs)


def _from_poly(p: Poly, step: int, shift: int, den: int, ring: MonoidRing) -> MonoidElem:
    """X^(shift/den) * p(X^(step/den)) in the ring, step > 0, for p with int
    or Fraction coefficients.  Membership is checked once for the vector
    (see `_elem`)."""
    cs = p.coeffs
    cden = lcm(*(c.denominator for c in cs))
    exps, coeffs = [], []
    for i, c in enumerate(cs):
        if c:
            exps.append(shift + step * i)
            coeffs.append(c.numerator * (cden // c.denominator))
    return _elem(ring, den, exps, cden, coeffs, check=True)


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


def _geometric(s: Fraction, n: int, ring: MonoidRing):
    """(t, 1/n, 1 + X^t + ... + X^(t(n-1))) for t = s/n, after checking that
    s is a positive element of S, that t lies in S and that n is a unit."""
    if s <= 0 or not ring.desc.contains(s):
        raise MonoidError(f"exponent {s} not a positive element of S")
    if n < 2:
        raise MonoidError("need n >= 2")
    t = s / n
    if not ring.desc.contains(t):
        raise MonoidError(f"exponent {t} = s/n not in S ({ring.desc.label()})")
    inv_n = _require_unit(ring, n)
    return t, inv_n, _elem(ring, t.denominator, [t.numerator * i for i in range(n)], 1, [1] * n)


def mr_split(s, n: int, ring: MonoidRing) -> SplitResult:
    """Split 1 - X^s = (1 - X^t)(1 + X^t + ... + X^(t(n-1))), t = s/n."""
    s = Fraction(s)
    t, inv_n, f2 = _geometric(s, n, ring)
    one = ring.one
    f1 = one - ring.monomial(t)
    # division identity in D[Z]: f2(Z) = (1 - Z) q(Z) + n
    pz = Poly([Fraction(1)] * n)
    q, rem = poly_divrem(pz, Poly([Fraction(1), Fraction(-1)]))
    if rem != Poly((Fraction(n),)):
        raise CertificateError("division remainder is not n (bug)")
    lam = -_from_poly(q.scale(inv_n), t.numerator, 0, t.denominator, ring)
    mu = ring.coerce(inv_n)
    return SplitResult(s, n, f1, f2, lam, mu, Fraction(n))


class ChainResult:
    def __init__(self, s: Fraction, factors: list, pairwise: list):
        self.s = s
        self.factors = factors
        self.pairwise = pairwise  # (i, j, lam, mu)

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
    cofactors = []
    cur = s
    for _ in range(m - 1):
        # only the cofactor: the split's own certificate is not part of the chain
        cofactors.append(_geometric(cur, n, ring)[2])
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
            # the factors are integral (cden 1), so _to_poly gives them exactly
            fi, fj = factors[i], factors[j]
            den, ei, ej, step = _grid(fi, fj)
            d, si, tj = poly_extended_gcd(_to_poly(fi, ei, step), _to_poly(fj, ej, step))
            if d != Poly((1,)):
                raise CertificateError("chain factors are not comaximal (bug)")
            pairwise.append((i, j, _from_poly(si, step, 0, den, ring), _from_poly(tj, step, 0, den, ring)))
    return ChainResult(s, factors, pairwise)


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
        raise MonoidError("need p >= 2")
    if t == 0:
        raise MonoidError("need t != 0: X^0 - b is a constant")
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
    # 1 + T + ... + T^(p-1) == (T - 1) * q(T) + p with q_i == p - 1 - i, so
    # (-q(Z)/p) f1 + (1/p) f2 == 1.  A group ring's base is Q and its
    # exponents tp*i lie in S, so lam's terms need no membership check
    mu = ring.coerce(Fraction(1, p))
    lam = MonoidElem(tuple(sorted((tp * i, Fraction(i + 1 - p, p) / beta**i) for i in range(p - 1))), ring,
                     _checked=True)
    return JuettSplit(t, b, p, beta, unit, z, f1, f2, lam, mu)
