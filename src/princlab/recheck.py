"""Independent certificate verification for emitted reports.

This is the one check of every certificate: producers do not re-check what
they build, and `cli.main` runs `verify_report` on every report, with or
without `--recheck` (the flag only writes `"recheck": "passed"`).

This module shares two routines with the producing modules: the integer
lattice reduction `core.hnf2_with_transform`, which it uses to put ideal
lattices in Hermite normal form, and the rational type `rational.Fraction`
with its string parser (the stdlib's `fractions` would load `decimal` on
every `--recheck` call).
Everything else is its own: it decodes the JSON report into its own tagged
values and re-derives every claimed identity with those rationals, its own
integer polynomial products (written apart from the producer's `Poly`
kernel; a test checks that this module imports nothing else from the
package) and that routine.  A passing recheck therefore means the
certificates stand on their own, not that the producer agrees with itself,
up to those two shared routines.

Limit-ring ("lim") values are (level, coefficients): ints when every
coefficient is an integer, else Fractions.  A value is lifted from level n
to m by one packed evaluation at its own iterate phi^(m-n) of
phi = x + x^2, cached while one `verify_report` call runs.  A limit chain's
product runs x_m, 1+x_m, 1+x_(m-1), ..., 1+x_2: as x_k * (1+x_k) ==
x_(k-1), the partial products are x_(m-1), x_(m-2), ... at level m, each
half the degree of the next, where the listed order starts at degree 2^(m-2).

Monoid-ring ("mon") values are ("mon", den, cden, terms) with int pairs
(e, c) standing for c/cden X^(e/den): distinct ascending e, nonzero c, and
den and cden least, so equal values are equal tuples.  Products run on the
same integer products: one lcm L of the exponent denominators, g the gcd of
each operand's exponent differences, and each operand a dense vector in
X^(g/L) after its smallest exponent.  A product whose dense length would
exceed `_MON_FILL` times its number of term pairs keeps the term-by-term
loop.  Membership of a "mon" value in D[X;S] is checked once per vector,
through its two least denominators; the per-term loop runs only to name the
terms that fail.  A report over Z[1/p] or D[X;S] whose ring names a
prime (of Z[1/p], of the monoid, or of a localized base) that is not a
prime fails in `verify_report`, once and before its command's routine runs
(`_ring_prime_fails`): a membership loop would never end on 1 or divide by
zero on 0.  `_not_prime` is its own deterministic Miller-Rabin test.

Each identity has one checking routine here.  `_comaximal_fails` checks
every comaximal factorization (u * f_1 * ... * f_m == b, one pairwise entry
for each pair i < j in order, and each pair's lam*f_i + mu*f_j == 1) for
`comax`, `mring split|chain|juett` and `limitring chain`, whose `m` must be
its factor count.  Each lam and mu must lie in the ring, since over the
fraction field any two nonzero elements are comaximal.
`_idempotent_fails` checks f(1 - f) == s*r for every idempotent pair, and
the pair, its witness, a derived pair and the complement quotients must
lie in the ring, since over a field every pair with a nonzero member
satisfies it for some r (`lam` and `mu` of `idem from-ideal` lie in the
inverse ideal and are exempt).  The negative idem verdicts are decided
again where that is cheap: over Z, Z[sqrt(d)] and Q[X] `not_idempotent_pair`
holds exactly when neither b | a(1 - a) nor a | b(1 - b) (`_divides`), and
over Z and Q[X] `not_invertible` exactly when a = b = 0.  Over the other
rings these verdicts carry no certificate and are not checked.  One routine
decides membership: `_member_fails`, through `_in_ring` (and `_mon_in_ring`
over D[X;S]), each caller passing its own failure text.
`_projector_fails` M*M == M for every projector matrix, `_omega_fails`
omega-stability; `_Blocks` multiplies prime powers, `_mat_mul` is the
matrix product and `_strip` removes the primes of a denominator.
`_quad_xy` reads the coordinates of a Z[sqrt(d)] element and fails one that
is not integral, where `int()` would truncate a Fraction to another element,
and `_d_fails` ties every Z[sqrt(d)] value to the d its report's ring
names (through `_ring_d_fails` for the idem reports, whose ring may be
Z[sqrt(d)] or a pullback over it).  Every non-principal claim (`ideal
principal`, `pullback reduce` bases) is checked by `_nonprincipal_fails`:
the ideal's binary quadratic form must not reduce to (1, 0, -d), with its
own reduction `_reduced`.

Recheck ties each comax factor to its block and decides itself whether
the block splits into two principal blocks (`_Blocks`), by walking the
ideal classes its sub-blocks reach.  The factorizations of one report must
share one support, so each distinct block is checked once per report.  The
support lists distinct primes (`_prime_label`): over Z rational primes,
over Z[sqrt(d)] ideals of prime norm or pO with p inert.  A `comax unique`
verdict is `unique` exactly when its count is 1; that its list of
factorizations is complete is not certified.

Fields that only restate another are tied to it: an idempotent pair's
members to the report's a and b (and a derived pair's orientation to
"ab"), each of `ideal mul`'s norms to the basis determinant n*m of its
lattice, and `mring split`'s n to the term count of f2 and its remainder
to n.  A `polyext counterexample` report is rechecked from alpha and the
excluded degrees alone: u and v must be 1 - alpha^4 X^4 and alpha^2 +
alpha^3 X, with the witness r, u(1 - u) == v*r and u, v, r in D[X], and
alpha must be a seminormality witness, outside D with alpha^2 and alpha^3
inside (`_alpha_witness`, shared with `polyext witness`), and the excluded
degrees must leave a subring D (`_subring_fails`, bounded before its walk).
The rest of the non-principality argument (`polyext.nonprinc_pair_from_alpha`)
holds for every alpha.
"""

from __future__ import annotations

from math import gcd, lcm

from .core import hnf2_with_transform
from .rational import Fraction, _parse

# ---------------------------------------------------------------- decoding


def _q(s):
    """A rational leaf as (numerator, denominator > 0), not always in lowest
    terms: a string through `rational`'s parser (the report's own "p" and
    "p/q" forms from two ints), anything else through `Fraction`, which
    fails a malformed leaf."""
    if type(s) is str:
        return _parse(s)
    f = Fraction(s)
    return f.numerator, f.denominator


def _rat_leaf(c):
    if c["type"] not in ("int", "rat"):
        raise ValueError(f"a monoid coefficient of type {c['type']!r} is not a rational")
    return c["value"]


def _lim_decode(values):
    """A limit element's coefficients: ints when every one is an integer,
    else Fractions."""
    pairs = [_q(v) for v in values]
    den = lcm(*(d for _, d in pairs))
    return _lim_vec([n * (den // d) for n, d in pairs], den)


def dec(e):
    """JSON element -> tagged value."""
    t = e["type"]
    if t in ("int", "rat"):
        return ("rat", Fraction(e["value"]))
    if t in ("quad", "quadrat"):
        return ("quad", Fraction(e["x"]), Fraction(e["y"]), int(e["d"]))
    if t == "poly":
        return ("poly", tuple(dec(c) for c in e["coeffs"]))
    if t == "ratfunc":
        return ("rf", dec(e["num"]), dec(e["den"]))
    if t == "pullback":
        return ("rf", dec(e["num"]), dec(e["den"]))
    if t == "monoid":
        exps = [_q(x) for x, _ in e["terms"]]
        coeffs = [_q(_rat_leaf(c)) for _, c in e["terms"]]
        den, cden = lcm(*(d for _, d in exps)), lcm(*(d for _, d in coeffs))
        return _mon(den, cden, [(n * (den // d), c * (cden // k)) for (n, d), (c, k) in zip(exps, coeffs)])
    if t == "limit":
        return ("lim", int(e["level"]), _lim_decode([c["value"] for c in e["coeffs"]]))
    if t == "sphere":
        return (
            "sph",
            {(int(i), int(j)): Fraction(c) for i, j, c in e["f"]},
            {(int(i), int(j)): Fraction(c) for i, j, c in e["g"]},
        )
    if t == "quadideal":
        (n, zero), (c, m) = e["basis"]
        if int(zero) != 0:
            raise ValueError("a quadideal basis is not in Hermite normal form [(n, 0), (c, m)]")
        return ("qid", int(e["d"]), int(n), int(c), int(m))
    raise ValueError(f"cannot decode {t!r}")


# ------------------------------------------------------- generic value ops

def _promote(v, tag, model):
    if v[0] == tag:
        return v
    if tag == "quad":
        assert v[0] == "rat"
        return ("quad", v[1], Fraction(0), model[3])
    if tag == "poly":
        return ("poly", (v,)) if not v_is_zero(v) else ("poly", ())
    if tag == "rf":
        p = v if v[0] == "poly" else _promote(v, "poly", None)
        return ("rf", p, ("poly", (("rat", Fraction(1)),)))
    if tag == "mon":
        if v[0] != "rat":
            raise ValueError(f"cannot promote {v[0]} to mon")
        return _mon_norm(1, v[1].denominator, [(0, v[1].numerator)] if v[1] else [])
    if tag == "lim":
        return ("lim", 1, (v[1],)) if v[1] else ("lim", 1, ())
    if tag == "sph":
        return ("sph", {(0, 0): v[1]} if v[1] else {}, {})
    raise ValueError(f"cannot promote {v[0]} to {tag}")


def _common(a, b):
    if a[0] == b[0]:
        return a, b
    for tag in ("sph", "lim", "mon", "rf", "poly", "quad"):
        if a[0] == tag:
            return a, _promote(b, tag, a)
        if b[0] == tag:
            return _promote(a, tag, b), b
    raise ValueError(f"incompatible values {a[0]} and {b[0]}")


def v_is_zero(v) -> bool:
    t = v[0]
    if t == "rat":
        return v[1] == 0
    if t == "quad":
        return v[1] == 0 and v[2] == 0
    if t == "poly":
        return all(v_is_zero(c) for c in v[1])
    if t == "rf":
        return v_is_zero(v[1])
    if t == "mon":
        return not v[3]
    if t == "lim":
        return all(c == 0 for c in v[2])
    if t == "sph":
        return not v[1] and not v[2]
    raise ValueError(t)


def _pstrip(coeffs):
    cs = list(coeffs)
    while cs and v_is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def v_add(a, b):
    if a[0] != b[0]:
        a2, b2 = _common(a, b)
        return v_add(a2, b2)
    t = a[0]
    if t == "rat":
        return ("rat", a[1] + b[1])
    if t == "quad":
        if a[3] != b[3]:
            raise ValueError("mixed d")
        return ("quad", a[1] + b[1], a[2] + b[2], a[3])
    if t == "poly":
        ca, cb = a[1], b[1]
        if len(ca) < len(cb):
            ca, cb = cb, ca
        out = list(ca)
        for i, c in enumerate(cb):
            out[i] = v_add(out[i], c)
        return ("poly", _pstrip(out))
    if t == "rf":
        return (
            "rf",
            v_add(v_mul(a[1], b[2]), v_mul(b[1], a[2])),
            v_mul(a[2], b[2]),
        )
    if t == "mon":
        den, cden = lcm(a[1], b[1]), lcm(a[2], b[2])
        (ka, ca), (kb, cb) = (den // a[1], cden // a[2]), (den // b[1], cden // b[2])
        return _mon(den, cden, [(e * ka, c * ca) for e, c in a[3]] + [(e * kb, c * cb) for e, c in b[3]])
    if t == "lim":
        la, lb = _lim_common(a, b)
        n = max(len(la[2]), len(lb[2]))
        out = [0] * n
        for i, c in enumerate(la[2]):
            out[i] += c
        for i, c in enumerate(lb[2]):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return ("lim", la[1], tuple(out))
    if t == "sph":
        return ("sph", _d_add(a[1], b[1]), _d_add(a[2], b[2]))
    raise ValueError(t)


def v_neg(a):
    t = a[0]
    if t == "rat":
        return ("rat", -a[1])
    if t == "quad":
        return ("quad", -a[1], -a[2], a[3])
    if t == "poly":
        return ("poly", tuple(v_neg(c) for c in a[1]))
    if t == "rf":
        return ("rf", v_neg(a[1]), a[2])
    if t == "mon":
        return ("mon", a[1], a[2], tuple((e, -c) for e, c in a[3]))
    if t == "lim":
        return ("lim", a[1], tuple(-c for c in a[2]))
    if t == "sph":
        return ("sph", {k: -c for k, c in a[1].items()}, {k: -c for k, c in a[2].items()})
    raise ValueError(t)


def v_sub(a, b):
    return v_add(a, v_neg(b))


def v_mul(a, b):
    if a[0] != b[0]:
        a2, b2 = _common(a, b)
        return v_mul(a2, b2)
    t = a[0]
    if t == "rat":
        return ("rat", a[1] * b[1])
    if t == "quad":
        if a[3] != b[3]:
            raise ValueError("mixed d")
        d = a[3]
        return ("quad", a[1] * b[1] + d * a[2] * b[2], a[1] * b[2] + a[2] * b[1], d)
    if t == "poly":
        ca, cb = a[1], b[1]
        if not ca or not cb:
            return ("poly", ())
        if all(c[0] == "rat" for c in ca + cb):
            (na, da), (nb, db) = _ints([c[1] for c in ca]), _ints([c[1] for c in cb])
            return ("poly", _pstrip(("rat", Fraction(c, da * db)) for c in _imul(na, nb)))
        out = [None] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                p = v_mul(x, y)
                out[i + j] = p if out[i + j] is None else v_add(out[i + j], p)
        zero = v_zero_like(ca[0])
        out = [zero if c is None else c for c in out]
        return ("poly", _pstrip(out))
    if t == "rf":
        return ("rf", v_mul(a[1], b[1]), v_mul(a[2], b[2]))
    if t == "mon":
        if not a[3] or not b[3]:
            return ("mon", 1, 1, ())
        den = lcm(a[1], b[1])
        ta = [(e * (den // a[1]), c) for e, c in a[3]]
        tb = [(e * (den // b[1]), c) for e, c in b[3]]
        dense = _mon_imul(ta, tb)
        if dense is not None:
            return _mon_norm(den, a[2] * b[2], dense)
        return _mon(den, a[2] * b[2], [(e1 + e2, c1 * c2) for e1, c1 in ta for e2, c2 in tb])
    if t == "lim":
        la, lb = _lim_common(a, b)
        ca, cb = la[2], lb[2]
        if not ca or not cb:
            return ("lim", la[1], ())
        (na, da), (nb, db) = _ints(ca), _ints(cb)
        return ("lim", la[1], _lim_vec(_imul(na, nb), da * db))
    if t == "sph":
        f1, g1 = a[1], a[2]
        f2, g2 = b[1], b[2]
        s = {(0, 0): Fraction(1), (2, 0): Fraction(-1), (0, 2): Fraction(-1)}
        f = _d_add(_d_mul(f1, f2), _d_mul(_d_mul(g1, g2), s))
        g = _d_add(_d_mul(f1, g2), _d_mul(g1, f2))
        return ("sph", f, g)
    raise ValueError(t)


def v_eq(a, b) -> bool:
    if a[0] != b[0]:
        a, b = _common(a, b)
    if a[0] == "rf":
        return v_eq(v_mul(a[1], b[2]), v_mul(b[1], a[2]))
    if a[0] == "poly":
        if len(a[1]) != len(b[1]):
            return False
        return all(v_eq(x, y) for x, y in zip(a[1], b[1]))
    if a[0] == "lim":
        la, lb = _lim_common(a, b)
        return la[2] == lb[2]
    if a[0] == "mon":
        return a == b  # both in the normal form of `_mon_norm`
    return v_is_zero(v_sub(a, b))


def v_zero_like(v):
    t = v[0]
    if t == "rat":
        return ("rat", Fraction(0))
    if t == "quad":
        return ("quad", Fraction(0), Fraction(0), v[3])
    if t == "poly":
        return ("poly", ())
    if t == "rf":
        return ("rf", ("poly", ()), ("poly", (("rat", Fraction(1)),)))
    if t == "mon":
        return ("mon", 1, 1, ())
    if t == "lim":
        return ("lim", 1, ())
    if t == "sph":
        return ("sph", {}, {})
    raise ValueError(t)


def v_one_like(v):
    t = v[0]
    if t == "rat":
        return ("rat", Fraction(1))
    if t == "quad":
        return ("quad", Fraction(1), Fraction(0), v[3])
    if t == "poly":
        inner = v_one_like(v[1][0]) if v[1] else ("rat", Fraction(1))
        return ("poly", (inner,))
    if t == "rf":
        one = ("poly", (("rat", Fraction(1)),))
        return ("rf", one, one)
    if t == "mon":
        return ("mon", 1, 1, ((0, 1),))
    if t == "lim":
        return ("lim", 1, (1,))
    if t == "sph":
        return ("sph", {(0, 0): Fraction(1)}, {})
    raise ValueError(t)


def _d_add(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, Fraction(0)) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _d_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            v = out.get(k, Fraction(0)) + c1 * c2
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _lim_common(a, b):
    n = max(a[1], b[1])
    return _lim_lift(a, n), _lim_lift(b, n)


# _LIM_ITERATES[k] is phi^k, phi = x + x^2, as an integer vector;
# `verify_report` drops the iterates a report needed when it returns
_LIM_ITERATES = [[0, 1], [0, 1, 1]]


def _lim_iterate(k):
    # phi^(k+1) == phi^k + (phi^k)^2, one squaring per level
    while len(_LIM_ITERATES) <= k:
        last = _LIM_ITERATES[-1]
        square = _imul(last, last)
        _LIM_ITERATES.append([c + (last[i] if i < len(last) else 0) for i, c in enumerate(square)])
    return _LIM_ITERATES[k]


def _compose(p, q):
    """p(q) for integer vectors p (nonempty) and q with nonnegative
    coefficients: p evaluated at q packed at 2^w, whose slots each hold at
    most sum(|p_i| * q(1)^i) in absolute value."""
    w = _ieval([abs(c) for c in p], sum(q)).bit_length() + 1
    return _iunpack(_ieval(p, _ipack(q, w)), w, (len(p) - 1) * (len(q) - 1) + 1)


def _lim_lift(a, n):
    """a at level n >= its own: one packed evaluation at phi^(n - level)."""
    if n == a[1] or not a[2]:
        return ("lim", n, a[2])
    nums, den = _ints(a[2])
    while nums and not nums[-1]:
        nums.pop()
    if len(nums) > 1:
        nums = _compose(nums, _lim_iterate(n - a[1]))
    return ("lim", n, _lim_vec(nums, den))


def _lim_vec(nums, den):
    """The coefficients nums/den without trailing zeros: ints when every one
    is an integer, else Fractions."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g == den:
        return tuple(c // den for c in nums) if den != 1 else tuple(nums)
    return tuple(Fraction(c, den) for c in nums)


# --------------------------------------------- integer polynomial arithmetic
# Polynomials over Q are multiplied and lifted on integer vectors: one common
# denominator per operand, the vector packed into one integer with w bits per
# slot, one big-integer product, and the slots read back.  These routines are
# the checker's own, written apart from the producer's polynomial kernel.


def _ints(cs):
    """Integer numerators over one common denominator of the rationals cs
    (ints or Fractions)."""
    if all(type(c) is int for c in cs):
        return list(cs), 1
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _ipack(v, w):
    """sum(v[i] << (w*i)), pairing neighbours."""
    v = list(v)
    while len(v) > 1:
        if len(v) & 1:
            v.append(0)
        v = [lo + (hi << w) for lo, hi in zip(v[::2], v[1::2])]
        w *= 2
    return v[0]


def _ieval(v, x):
    """sum(v[i] * x**i), pairing neighbours so the big products are balanced."""
    v = list(v)
    while len(v) > 1:
        if len(v) & 1:
            v.append(0)
        v = [lo + x * hi for lo, hi in zip(v[::2], v[1::2])]
        if len(v) > 1:
            x *= x
    return v[0]


def _iunpack(p, w, n):
    """The n signed w-bit slots of p, each of absolute value < 2^(w-1)."""
    if n == 1:
        return [p]
    h = n // 2
    lo = p & ((1 << (w * h)) - 1)
    if lo >> (w * h - 1):
        lo -= 1 << (w * h)
    return _iunpack(lo, w, h) + _iunpack((p - lo) >> (w * h), w, n - h)


def _imul(a, b):
    """The product of two nonempty integer coefficient lists."""
    w = (max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))).bit_length() + 1
    return _iunpack(_ipack(a, w) * _ipack(b, w), w, len(a) + len(b) - 1)


# A monoid-ring product is multiplied on integer vectors while its dense
# length is at most this many times its number of term pairs.
_MON_FILL = 8


def _mon(den, cden, items):
    """The "mon" value sum(c/cden X^(e/den)) of int pairs (e, c) in any
    order, repeats merged and zero coefficients dropped (`_mon_norm`)."""
    out = {}
    for e, c in items:
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return _mon_norm(den, cden, sorted(out.items()))


def _mon_norm(den, cden, terms):
    """("mon", den, cden, terms) for int pairs (e, c) with distinct ascending
    e and nonzero c, over the least denominators: equal values are equal
    tuples."""
    g, h = gcd(den, *(e for e, _ in terms)), gcd(cden, *(c for _, c in terms))
    if g != 1 or h != 1:
        terms = [(e // g, c // h) for e, c in terms]
    return ("mon", den // g, cden // h, tuple(terms))


def _mon_of(pairs):
    """The "mon" value of (exponent, coefficient) rationals."""
    den, cden = lcm(*(e.denominator for e, _ in pairs)), lcm(*(c.denominator for _, c in pairs))
    return _mon(den, cden, [(e.numerator * (den // e.denominator), c.numerator * (cden // c.denominator))
                            for e, c in pairs])


def _mon_imul(ta, tb):
    """The product of two nonempty ascending lists of int pairs (e, c) over
    one exponent denominator, as ascending pairs with nonzero c, or None when
    it is too sparse for a dense vector.  Each operand is X^lo * f(X^g), g
    the gcd of all exponent differences."""
    lo_a, lo_b = ta[0][0], tb[0][0]
    g = gcd(*(e - lo_a for e, _ in ta), *(e - lo_b for e, _ in tb)) or 1
    na, nb = (ta[-1][0] - lo_a) // g + 1, (tb[-1][0] - lo_b) // g + 1
    if na + nb - 1 > _MON_FILL * len(ta) * len(tb):
        return None
    va, vb = [0] * na, [0] * nb
    for e, c in ta:
        va[(e - lo_a) // g] = c
    for e, c in tb:
        vb[(e - lo_b) // g] = c
    lo = lo_a + lo_b
    return [(lo + g * i, c) for i, c in enumerate(_imul(va, vb)) if c]


# ----------------------------------------------------- quadratic lattices


def _span(vectors):
    (n, _), (c, m), _, _ = hnf2_with_transform(vectors)
    if n > 0 and m > 0:
        c %= n
    return (n, c, m)


def _elem_vectors(x, y, d):
    return [(x, y), (d * y, x)]


def _qid_vectors(q):
    return [(q[2], 0), (q[3], q[4])]


def _ideal_product_span(vecs_i, vecs_j, d):
    prods = []
    for (x1, y1) in vecs_i:
        for (x2, y2) in vecs_j:
            prods.append((x1 * x2 + d * y1 * y2, x1 * y2 + y1 * x2))
    return _span(prods)


def _contains(q, x, y):
    n, c, m = q[2], q[3], q[4]
    if y % m:
        return False
    k = y // m
    return (x - k * c) % n == 0


def _quad_xy(v, name, fails):
    """The integer coordinates (x, y) of a decoded Z[sqrt(d)] element; None,
    after a failure naming it, when it is not one with integer coordinates
    (`int()` would truncate a Fraction to some other element)."""
    if v[0] == "quad" and v[1].denominator == 1 and v[2].denominator == 1:
        return int(v[1]), int(v[2])
    fails.append(f"{name} does not have integer coordinates")
    return None


def _omega_fails(q, d, fails):
    # 2*omega*(x + y*sqrt d) == (x + d*y) + (x + y)*sqrt d, omega = (1 + sqrt d)/2
    for (x, y) in _qid_vectors(q):
        wx, wy = x + d * y, x + y
        if wx % 2 or wy % 2 or not _contains(q, wx // 2, wy // 2):
            fails.append("claimed omega-stability fails on a basis vector")


def _quad_ds(v):
    """The d of every Z[sqrt(d)] element and ideal inside a decoded value."""
    tag = v[0]
    if tag == "quad":
        return {v[3]}
    if tag == "qid":
        return {v[1]}
    if tag == "rf":
        return _quad_ds(v[1]) | _quad_ds(v[2])
    if tag == "poly":
        return set().union(*map(_quad_ds, v[1]))
    return set()


def _d_fails(where, d, values, fails):
    """Each named decoded value must live over the d the ring claims."""
    for name, v in values:
        for other in sorted(_quad_ds(v) - {d}):
            fails.append(f"{where} is {d}, but {name} has d = {other}")


# ------------------------------------------ binary quadratic forms (d < 0)


def _form(span, d, fails, name):
    """The form (n', 2c', (c'^2 - d)/n') of the ideal lattice span == (n, c,
    m) == m*[n', c' + sqrt(d)]: its value at (x, y) is N(x*n' + y*(c' +
    sqrt(d)))/n'.  None, after a failure naming it, when the lattice is not
    an ideal or d is not negative (the form would not be positive definite
    and the reduction below would not end)."""
    n, c, m = span
    if d >= 0 or n <= 0 or m <= 0 or n % m or c % m or ((c // m) ** 2 - d) % (n // m):
        fails.append(f"{name} is not an ideal lattice of an imaginary quadratic order")
        return None
    n, c = n // m, c // m
    return (n, 2 * c, (c * c - d) // n)


def _reduced(a, b, c):
    """The one reduced form (|b| <= a <= c, and b >= 0 when |b| == a or a ==
    c) properly equivalent to the positive definite form (a, b, c)."""
    while True:
        t = (a - b) // (2 * a)
        b, c = b + 2 * a * t, (a * t + b) * t + c
        if a < c or (a == c and b >= 0):
            return (a, b, c)
        a, b, c = c, -b, a


def _nonprincipal_fails(span, d, fails, name):
    """A non-principal claim for an ideal lattice: an ideal is principal
    exactly when its form reduces to (1, 0, -d), since a generator is an
    element of the ideal's norm and each class has one reduced form."""
    form = _form(span, d, fails, name)
    if form is not None and _reduced(*form) == (1, 0, -d):
        fails.append(f"{name}: claimed non-principal, but its form reduces to (1, 0, {-d})")
    return form


def _reduction_fails(cert, form, fails):
    """The reduction certificate of `ideal principal`: the ideal's form, a
    transform [[p, q], [r, s]] of determinant 1 with f(p*x + q*y, r*x + s*y)
    the claimed form, and the claimed form the reduced form of f."""
    (p, q), (r, s) = [[int(v) for v in row] for row in cert["transform"]]
    claimed = tuple(int(v) for v in cert["reduced"])
    if tuple(int(v) for v in cert["form"]) != form:
        fails.append("search.form is not the form of the ideal")
    if p * s - q * r != 1:
        fails.append("search.transform does not have determinant 1")
    a, b, c = form
    image = (a * p * p + b * p * r + c * r * r, 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
             a * q * q + b * q * s + c * s * s)
    if image != claimed:
        fails.append("search.transform does not take the form to search.reduced")
    if claimed != _reduced(*form):
        fails.append("search.reduced is not the reduced form of the ideal")


# ------------------------------------------------------------- verifiers


def _comaximal_fails(cert, target, claim, fails, label="", unit=None, order=None):
    """The one check of a comaximal factorization certificate: unit * f_1 *
    ... * f_m == target (unit defaults to 1) over cert["factors"], the
    entries of cert["pairwise"] cover each pair i < j once, in order, and
    lam*f_i + mu*f_j == 1 for each of them.  The product runs from the unit
    over the factors in the index sequence `order`, a permutation of
    0..m-1 (default: as listed).  A failing product appends `claim`, a
    failing pair names its (i, j); no pair is checked when the cover fails.
    Returns the decoded factors and the decoded (lam, mu) of each entry, so
    that no caller decodes them again."""
    factors = [dec(f) for f in cert["factors"]]
    pairs = [(dec(c["lam"]), dec(c["mu"])) for c in cert["pairwise"]]
    one = v_one_like(target)
    prod = one if unit is None else unit
    for k in range(len(factors)) if order is None else order:
        prod = v_mul(prod, factors[k])
    if not v_eq(prod, target):
        fails.append(f"{label}{claim}")
    m = len(factors)
    if [(c["i"], c["j"]) for c in cert["pairwise"]] != [(i, j) for i in range(m) for j in range(i + 1, m)]:
        fails.append(f"{label}pairwise certificates do not cover each pair of factors once")
        return factors, pairs
    for c, (lam, mu) in zip(cert["pairwise"], pairs):
        i, j = c["i"], c["j"]
        if not v_eq(v_add(v_mul(lam, factors[i]), v_mul(mu, factors[j])), one):
            fails.append(f"{label}Bezout certificate for pair {i},{j} fails")
    return factors, pairs


def _split_pair(result):
    # a two-factor split (f1, f2 with lam*f1 + mu*f2 == 1) as a certificate
    return {"factors": [result["f1"], result["f2"]],
            "pairwise": [{"i": 0, "j": 1, "lam": result["lam"], "mu": result["mu"]}]}


def _x_minus(t, b):
    """X^t - b as a "mon" value."""
    return _mon_of([(Fraction(t), Fraction(1)), (Fraction(0), -Fraction(b))])


def _mat_mul(p, q):
    """The matrix product p*q of nested lists of decoded values."""
    def entry(row, j):
        acc = v_mul(row[0], q[0][j])
        for k in range(1, len(q)):
            acc = v_add(acc, v_mul(row[k], q[k][j]))
        return acc
    return [[entry(row, j) for j in range(len(q[0]))] for row in p]


def _idempotent_fails(f, s, r, fails, failure):
    """The idempotent pair identity f(1 - f) == s*r; a failure appends
    `failure`."""
    if not v_eq(v_mul(f, v_sub(v_one_like(f), f)), v_mul(s, r)):
        fails.append(failure)


def _divides(s, x, ring) -> bool:
    """Whether s divides x in the ring, Z, Z[sqrt(d)] or Q[X], of which both
    are decoded values: x == s*q for some q in the ring."""
    if v_is_zero(s):
        return v_is_zero(x)
    family = ring["family"]
    if family == "int":
        return (x[1] / s[1]).denominator == 1
    if family == "quad":
        # q = x*conj(s)/N(s) must have integer coordinates
        model = ("quad", None, None, int(ring["d"]))
        (_, p, q, d), (_, u, v, _) = _promote(s, "quad", model), _promote(x, "quad", model)
        n = p * p - d * q * q
        return ((u * p - d * v * q) / n).denominator == 1 and ((v * p - u * q) / n).denominator == 1
    # Q[X]: long division leaves no remainder
    rem = [c[1] for c in _promote(x, "poly", None)[1]]
    cs = [c[1] for c in _promote(s, "poly", None)[1]]
    for k in range(len(rem) - len(cs), -1, -1):
        c = rem[k + len(cs) - 1] / cs[-1]
        for i, sc in enumerate(cs):
            rem[k + i] -= c * sc
    return not any(rem)


def _not_a_pair_fails(report):
    """A not_idempotent_pair verdict over Z, Z[sqrt(d)] or Q[X], decided
    again from a and b: neither b | a(1-a) nor a | b(1-b).  Over the other
    rings the verdict carries no certificate and is not checked."""
    ring, result = report["ring"], report["result"]
    fails = [] if result["pair"] is None else ["a not_idempotent_pair report carries a pair"]
    if ring["family"] not in ("int", "quad", "qpoly"):
        return fails
    a, b = dec(result["a"]), dec(result["b"])
    outside = []
    _ring_d_fails(ring, (("a", a), ("b", b)), outside)
    _member_fails((("a", a), ("b", b)), ring, outside)
    if not outside and any(_divides(s, v_mul(f, v_sub(v_one_like(f), f)), ring) for f, s in ((a, b), (b, a))):
        fails.append("a and b form an idempotent pair")
    return fails + outside


def _projector_fails(m, fails, name):
    """The projector identity M*M == M for the square matrix m, each failing
    entry named as `name`*`name` != `name` at (i,j)."""
    for i, row in enumerate(_mat_mul(m, m)):
        for j, v in enumerate(row):
            if not v_eq(v, m[i][j]):
                fails.append(f"{name}*{name} != {name} at ({i},{j})")


def _in_ring(v, ring) -> bool:
    """Whether the decoded value v lies in the ring a report names, not only
    in its fraction field; the one membership test here, with
    `_mon_in_ring` for D[X;S] values.  A Z[1/p] ring's primes must have
    passed `_ring_prime_fails`."""
    family, tag = ring["family"], v[0]
    if tag == "rat":
        if family in ("monoid", "limit", "pullback"):
            return _in_ring(v, ring["base"])
        if family == "zloc":
            return _strip(v[1].denominator, [int(p) for p in ring["primes"]]) == 1
        return family not in ("int", "quad") or v[1].denominator == 1
    if tag == "quad":
        return family == "quad" and v[1].denominator == 1 and v[2].denominator == 1
    if tag == "lim":  # its coefficients lie in the base when their common denominator does
        return family == "limit" and _in_ring(("rat", Fraction(1, lcm(1, *(c.denominator for c in v[2])))), ring["base"])
    if tag == "rf":
        # pullback bases are Z or Z[sqrt(d)]; the value at Y = 0 must lie there
        if family != "pullback" or ring["base"]["family"] not in ("int", "quad"):
            return False
        value = _rf_value0(v)
        return value is not None and _in_ring(value, ring["base"])
    return (family, tag) in (("qpoly", "poly"), ("sphere", "sph"))


def _member_fails(named, ring, fails, text="does not lie in the ring"):
    """Each named decoded value must lie in the ring, not only in its
    fraction field (over Q, (2, 3) with witness -2/3 satisfies f(1-f) ==
    s*r, and any two nonzero elements are comaximal): `_mon_in_ring` over
    D[X;S], else `_in_ring`, failing as `name text`."""
    for name, v in named:
        if ring["family"] == "monoid" and v[0] == "mon":
            _mon_in_ring(v, ring, fails, name)
        elif not _in_ring(v, ring):
            fails.append(f"{name} {text}")


def _ring_d_fails(ring, named, fails):
    """Over Z[sqrt(d)], or a pullback over it, each named decoded value must
    live over the d the ring names."""
    for where, r in (("ring.d", ring), ("ring.base.d", ring.get("base"))):
        if r is not None and r["family"] == "quad":
            _d_fails(where, int(r["d"]), named, fails)


def _pair_identity(report, fails):
    result = report["result"]
    a, b = dec(result["a"]), dec(result["b"])
    pair = result["pair"]
    pa, pb, r = dec(pair["a"]), dec(pair["b"]), dec(pair["witness"])
    _ring_d_fails(report["ring"], (("a", a), ("b", b), ("pair a", pa), ("pair b", pb), ("pair witness", r)), fails)
    if not (v_eq(pa, a) and v_eq(pb, b)):
        fails.append("pair members differ from a and b")
    _member_fails((("a", a), ("b", b), ("pair witness", r)), report["ring"], fails)
    f, s = (a, b) if pair["orientation"] == "ab" else (b, a)
    _idempotent_fails(f, s, r, fails, "pair witness identity f(1-f) == s*r fails")
    return a, b, f, s, r


def _complement(result, f, s, ring, fails):
    comp = result.get("complement")
    if comp is None:
        return
    one = v_one_like(f)
    want = [
        v_mul(f, v_sub(one, f)),
        v_mul(f, s),
        v_mul(s, v_sub(one, f)),
        v_mul(s, s),
    ]
    prods = [dec(p) for p in comp["products"]]
    quots = [dec(q) for q in comp["quotients"]]
    if len(prods) != 4 or len(quots) != 4:
        fails.append("complement certificate is not four products/quotients")
        return
    for i, (p, w) in enumerate(zip(prods, want)):
        if not v_eq(p, w):
            fails.append(f"complement product {i} differs from f,s recomputation")
    _member_fails([(f"complement quotient {i}", q) for i, q in enumerate(quots)], ring, fails)
    for i, (p, q) in enumerate(zip(prods, quots)):
        if not v_eq(v_mul(s, q), p):
            fails.append(f"complement quotient {i} fails s*q == product")
    if not v_eq(v_add(prods[1], prods[2]), s):
        fails.append("generator combination products[1]+products[2] == s fails")
    gen = dec(comp["generator"])
    if not v_eq(gen, s):
        fails.append("complement generator is not the second pair member")


def _verify_idem_check(report):
    if report["verdict"] == "not_idempotent_pair":
        return _not_a_pair_fails(report)
    fails = []
    result = report["result"]
    a, b, f, s, r = _pair_identity(report, fails)
    _complement(result, f, s, report["ring"], fails)
    return fails


def _verify_idem_matrix(report):
    if report["verdict"] == "not_idempotent_pair":
        return _not_a_pair_fails(report)
    fails = []
    result = report["result"]
    _, _, f, s, r = _pair_identity(report, fails)
    m = [[dec(e) for e in row] for row in result["matrix"]]
    one = v_one_like(f)
    want = [[f, s], [r, v_sub(one, f)]]
    for i in range(2):
        for j in range(2):
            if not v_eq(m[i][j], want[i][j]):
                fails.append(f"matrix entry ({i},{j}) differs from the pair data")
    _projector_fails(m, fails, "M")
    return fails


def _verify_idem_from_ideal(report):
    fails = []
    result = report["result"]
    a, b = dec(result["a"]), dec(result["b"])
    if report["verdict"] == "not_invertible":
        # over Z and Q[X], principal ideal domains, only (0, 0) is not
        # invertible; over Z[sqrt(d)] the verdict carries no certificate
        if report["ring"]["family"] in ("int", "qpoly"):
            _member_fails((("a", a), ("b", b)), report["ring"], fails)
            if not (v_is_zero(a) and v_is_zero(b)):
                fails.append("a nonzero ideal of a principal ideal domain is invertible")
        return fails
    lam, mu = dec(result["bezout"]["lam"]), dec(result["bezout"]["mu"])
    one = v_one_like(lam)
    if not v_eq(v_add(v_mul(lam, a), v_mul(mu, b)), one):
        fails.append("Bezout identity lam*a + mu*b == 1 fails")
    pair = result["pair"]
    if pair["orientation"] != "ab":
        fails.append("derived pair orientation is not ab")
    pa, pb = dec(pair["a"]), dec(pair["b"])
    if not v_eq(pa, v_mul(lam, a)) or not v_eq(pb, v_mul(lam, b)):
        fails.append("derived pair is not (lam*a, lam*b)")
    wit = dec(pair["witness"])
    if not v_eq(wit, v_mul(mu, a)):
        fails.append("derived witness is not mu*a")
    # lam and mu lie in the inverse ideal, not the ring; what they derive must
    named = (("a", a), ("b", b), ("derived pair a", pa), ("derived pair b", pb), ("derived witness", wit))
    _ring_d_fails(report["ring"], named, fails)
    _member_fails(named, report["ring"], fails)
    _idempotent_fails(pa, pb, wit, fails, "derived pair fails its defining relation")
    _complement(result, pa, pb, report["ring"], fails)
    return fails


def _ring_d(report, *keys):
    """The d of an `ideal` report's ring, after checking that the values
    under `keys` in its result (elements, ideals, lists of them, or the
    prime ideals of a factor list) all live over it."""
    d = int(report["ring"]["d"])
    result = report["result"]
    values = []
    for key in keys:
        v = result[key]
        if isinstance(v, list):
            values += [(f"{key}[{k}]", dec(e["prime"] if "prime" in e else e)) for k, e in enumerate(v)]
        elif v is not None:
            values.append((key, dec(v)))
    fails = []
    _d_fails("ring.d", d, values, fails)
    return d, fails


def _verify_ideal_frompair(report):
    d, fails = _ring_d(report, "a", "b", "ideal")
    result = report["result"]
    a, b = dec(result["a"]), dec(result["b"])
    q = dec(result["ideal"])
    vecs = []
    for name, e in (("a", a), ("b", b)):
        xy = _quad_xy(e, name, fails)
        if xy is None:
            return fails
        if any(xy):
            vecs += _elem_vectors(*xy, d)
    if _span(vecs) != (q[2], q[3], q[4]):
        fails.append("normal form differs from an independent lattice recomputation")
    if int(result["norm"]) != q[2] * q[4]:
        fails.append("reported norm is not the basis determinant")
    return fails


def _verify_ideal_mul(report):
    d, fails = _ring_d(report, "i", "j", "product")
    result = report["result"]
    i, j, p = dec(result["i"]), dec(result["j"]), dec(result["product"])
    got = _ideal_product_span(_qid_vectors(i), _qid_vectors(j), d)
    if got != (p[2], p[3], p[4]):
        fails.append("product lattice differs from an independent recomputation")
    for key, q in (("i", i), ("j", j), ("product", p)):
        if int(result["norms"][key]) != q[2] * q[4]:
            fails.append(f"norms.{key} is not the basis determinant of {key}")
    return fails


def _verify_ideal_invertible(report):
    d, fails = _ring_d(report, "ideal", "cofactor", "product_generator")
    result = report["result"]
    q = dec(result["ideal"])
    if result["invertible"]:
        cof = dec(result["cofactor"])
        gen = dec(result["product_generator"])
        got = _ideal_product_span(_qid_vectors(q), _qid_vectors(cof), d)
        xy = _quad_xy(gen, "product generator", fails)
        if xy is None:
            return fails
        if got != _span(_elem_vectors(*xy, d)):
            fails.append("I*cofactor is not the claimed principal ideal")
    elif d % 4 != 1:
        fails.append("non-invertibility claimed in a maximal order")
    else:
        _omega_fails(q, d, fails)
    return fails


def _verify_ideal_principal(report):
    d, fails = _ring_d(report, "ideal", "generator")
    result = report["result"]
    q = dec(result["ideal"])
    span = (q[2], q[3], q[4])
    status = result["status"]
    if status == "not_invertible":
        if result["search"] is not None:
            fails.append("a non-invertible ideal carries a reduction certificate")
        _omega_fails(q, d, fails)
        return fails
    form = _form(span, d, fails, "ideal")
    if form is None:
        return fails
    _reduction_fails(result["search"], form, fails)
    if status == "principal":
        xy = _quad_xy(dec(result["generator"]), "generator", fails)
        if xy is None:
            return fails
        x, y = xy
        if _span(_elem_vectors(x, y, d)) != span:
            fails.append("claimed generator does not span the ideal")
        if x * x - d * y * y != q[2] * q[4]:
            fails.append("generator norm differs from the ideal norm")
    elif status == "non_principal":
        _nonprincipal_fails(span, d, fails, "ideal")
    else:
        fails.append(f"unknown status {status!r}")
    return fails


def _verify_ideal_factor(report):
    d, fails = _ring_d(report, "element")
    result = report["result"]
    xy = _quad_xy(dec(result["element"]), "element", fails)
    if xy is None:
        return fails
    factors = result["factors"]
    product = _Blocks(factors, report["ring"], fails, "factors").span(tuple(range(len(factors))))
    if product != _span(_elem_vectors(*xy, d)):
        fails.append("prime powers do not re-multiply to (b)")
    return fails


class _Blocks:
    """The prime powers of one support (a comax report's factorizations
    share one) and its blocks, ascending index tuples, each checked once.  A
    block's product is that of the block without its last index times that
    prime power: over Z an integer, over Z[sqrt(d)] a lattice, one ideal
    product per sub-block.

    A block is pseudo-irreducible when no split of it into two nonempty
    parts has two principal sides.  Over Z every side is principal, so
    every block of two or more primes splits.  Over Z[sqrt(d)] the ideal
    classes form a group, so a split with two principal sides exists
    exactly when the block is principal and some nonempty part of it
    without its last index is.  `check` finds one by walking the classes
    that sub-blocks of block[:-1] reach, keeping one sub-block per class
    (its reduced form): at most (k - 1) * h ideal products for k primes and
    h classes, where every split would be 2^(k-1) - 1."""

    def __init__(self, support, ring, fails, key="support"):
        self.support = support
        self.fails = fails
        self.ring = ring
        self.d = None if ring["family"] == "int" else int(ring["d"])
        self._spans = {}
        self._classes = {}
        self._checked = set()
        primes = [dec(e["prime"]) for e in support]
        if self.d is not None:
            _d_fails("ring.d", self.d, [(f"{key}[{i}]", p) for i, p in enumerate(primes)], fails)
        seen = set()
        for i, p in enumerate(primes):
            label = _prime_label(p, self.d)
            if label is None:
                fails.append(f"{key}[{i}] is not a prime" + ("" if self.d is None else " ideal"))
            elif label in seen:
                fails.append(f"{key}[{i}] repeats an earlier entry")
            seen.add(label)

    def span(self, idxs):
        if idxs not in self._spans:
            d = self.d
            if not idxs:
                acc = Fraction(1) if d is None else _span(_elem_vectors(1, 0, d))
            else:
                acc, entry = self.span(idxs[:-1]), self.support[idxs[-1]]
                p = dec(entry["prime"])
                for _ in range(int(entry["exponent"])):
                    acc = acc * p[1] if d is None else _ideal_product_span(
                        [(acc[0], 0), (acc[1], acc[2])], _qid_vectors(p), d)
            self._spans[idxs] = acc
        return self._spans[idxs]

    def _class(self, idxs):
        """The reduced form of a sub-block's ideal (one per class); None,
        after a failure naming it, when its lattice is not an ideal."""
        if idxs not in self._classes:
            form = _form(self.span(idxs), self.d, self.fails, f"block {list(idxs)}")
            self._classes[idxs] = form and _reduced(*form)
        return self._classes[idxs]

    def check(self, block):
        if block in self._checked:
            return
        self._checked.add(block)
        if len(block) < 2:
            return
        if self.d is None:
            self._split_fails(block, block[:1])
            return
        principal = (1, 0, -self.d)
        if self._class(block) != principal:
            return  # a split of a non-principal block has a non-principal side
        reached = {}
        for i in block[:-1]:
            for part in [(), *reached.values()]:
                side = part + (i,)
                cls = self._class(side)
                if cls is None:
                    return
                if cls == principal:
                    self._split_fails(block, side)
                    return
                reached.setdefault(cls, side)

    def _split_fails(self, block, left):
        right = [i for i in block if i not in left]
        self.fails.append(f"block {list(block)} splits into principal blocks {list(left)} and {right}")


def _prime_label(p, d):
    """A decoded support entry as a label equal for equal primes, or None
    when it is not a prime: over Z (d None) a rational prime; over
    Z[sqrt(d)] an ideal of prime norm, or pO with p an odd prime inert (d
    not a square mod p)."""
    if d is None:
        x = p[1] if p[0] == "rat" else Fraction(0)
        return int(x) if x.denominator == 1 and _not_prime(int(x)) is None else None
    if p[0] != "qid":
        return None
    _, _, n, c, m = p
    if m == 1 and n > 0 and _not_prime(n) is None and (c * c - d) % n == 0:
        return (n, c % n, 1)
    if n == m > 2 and c % n == 0 and _not_prime(n) is None and pow(d % n, (n - 1) // 2, n) == n - 1:
        return (n, 0, n)
    return None


def _verify_factorization(fact, blocks, fails, label=""):
    """Product, pairs and unit of one factorization over `blocks`' support:
    each lam and mu lies in the ring (over the fraction field any two
    nonzero elements are comaximal), each factor generates its block's
    ideal, the blocks partition the support, and each block is
    pseudo-irreducible."""
    d = blocks.d
    m = len(fact["factors"])
    unit = dec(fact["unit"])
    element = dec(fact["element"])
    factors, pairs = _comaximal_fails(fact, element, "product of factors times unit differs from the element",
                                      fails, label, unit)
    lam_mu = [(f"{label}pairwise {c['i']},{c['j']} {name}", v)
              for c, pair in zip(fact["pairwise"], pairs) for name, v in zip(("lam", "mu"), pair)]
    _member_fails(lam_mu, blocks.ring, fails, "is not an integer" if d is None else "does not have integer coordinates")
    if d is None:
        if unit[1] not in (1, -1):
            fails.append(f"{label}unit is not +-1")
    else:
        named = [("element", element), ("unit", unit), *((f"factors[{k}]", f) for k, f in enumerate(factors)),
                 *((f"pairwise {c['i']},{c['j']}", v) for c, pair in zip(fact["pairwise"], pairs) for v in pair)]
        _d_fails(f"{label}ring.d", d, named, fails)
        if unit[1] * unit[1] - d * unit[2] * unit[2] != 1:
            fails.append(f"{label}unit does not have norm 1")
    if fact["support"] != blocks.support:
        fails.append(f"{label}support differs from the first factorization's")
        return
    idxs = [tuple(sorted(b)) for b in fact["blocks"]]
    if len(idxs) != m or not all(idxs) or sorted(i for b in idxs for i in b) != list(range(len(blocks.support))):
        fails.append(f"{label}blocks do not partition the support, one per factor")
        return
    for k, (f, block) in enumerate(zip(factors, idxs)):
        if d is None:
            ok = abs(f[1]) == blocks.span(block)
        else:
            xy = _quad_xy(f, f"{label}factors[{k}]", fails)
            ok = xy is None or _span(_elem_vectors(*xy, d)) == blocks.span(block)
        if not ok:
            fails.append(f"{label}factors[{k}] does not generate the ideal of its block {list(block)}")
        blocks.check(block)


def _verify_comax_factor(report):
    fails = []
    result = report["result"]
    entries = result["batch"] if "batch" in result else [result]
    for n, entry in enumerate(entries):
        fact = entry["factorization"]
        _verify_factorization(fact, _Blocks(fact["support"], report["ring"], fails), fails, label=f"[{n}] ")
    return fails


def _verify_factorization_list(facts, name, element, ring, fails):
    """Each factorization must factor `element` over one shared support, and
    no two may pick the same blocks."""
    if ring["family"] != "int":
        _d_fails("ring.d", int(ring["d"]), [(name, element)], fails)
    if not facts:
        fails.append("no factorization is listed")
        return
    blocks = _Blocks(facts[0]["support"], ring, fails)
    seen = set()
    for n, fact in enumerate(facts):
        if not v_eq(dec(fact["element"]), element):
            fails.append(f"[{n}] factorization is of another element")
        picked = frozenset(tuple(sorted(b)) for b in fact["blocks"])
        if picked in seen:
            fails.append(f"[{n}] factorization repeats the blocks of an earlier one")
        seen.add(picked)
        _verify_factorization(fact, blocks, fails, label=f"[{n}] ")


def _verify_comax_unique(report):
    fails = []
    result = report["result"]
    facts = result["factorizations"]
    if len(facts) != result["count"]:
        fails.append("count differs from the factorization list")
    if report["verdict"] != ("unique" if result["count"] == 1 else "non_unique"):
        fails.append(f"verdict {report['verdict']!r} does not match the count {result['count']}")
    _verify_factorization_list(facts, "element", dec(result["element"]), report["ring"], fails)
    return fails


def _verify_comax_hunt(report):
    fails = []
    result = report["result"]
    bound = result["bound"]
    if bound < 2:
        fails.append(f"bound {bound} is below 2, so no norm was scanned")
    if result["witness"] is None:
        return fails
    witness = dec(result["witness"])
    norm = abs(witness[1]) if witness[0] == "rat" else witness[1] ** 2 - int(report["ring"]["d"]) * witness[2] ** 2
    if norm > bound:
        fails.append(f"witness norm {norm} exceeds the bound {bound}")
    facts = result["factorizations"]
    if len(facts) < 2:
        fails.append("witness carries fewer than two factorizations")
    _verify_factorization_list(facts, "witness", witness, report["ring"], fails)
    return fails


def _rf_value0(v):
    # value at Y=0 of a decoded rf whose coefficients are rat or quad
    num, den = v[1], v[2]

    def const(p):
        if not p[1]:
            return ("rat", Fraction(0))
        return p[1][0]

    c0, d0 = const(num), const(den)
    if v_is_zero(d0):
        return None
    if c0[0] == "quad" or d0[0] == "quad":
        model = c0 if c0[0] == "quad" else d0
        c0 = _promote(c0, "quad", model) if c0[0] != "quad" else c0
        d0 = _promote(d0, "quad", model) if d0[0] != "quad" else d0
        n = d0[1] * d0[1] - d0[3] * d0[2] * d0[2]
        x = (c0[1] * d0[1] - d0[3] * c0[2] * d0[2]) / n
        y = (c0[2] * d0[1] - c0[1] * d0[2]) / n
        return ("quad", x, y, d0[3])
    return ("rat", c0[1] / d0[1])


def _verify_pullback_reduce(report):
    fails = []
    result = report["result"]
    base = report["ring"]["base"]
    a, b, r = dec(result["a"]), dec(result["b"]), dec(result["witness"])
    f, s = (a, b) if result["orientation"] == "ab" else (b, a)
    _idempotent_fails(f, s, r, fails, "witness identity fails")
    pair, values = result["base_pair"], [_rf_value0(f), _rf_value0(s)]
    if result["case"] != "base_reduction":
        if pair is not None:
            fails.append("base_pair is set outside a base reduction")
    elif pair is None or len(pair) != 2 or None in values or not all(map(v_eq, map(dec, pair), values)):
        fails.append("base_pair is not the values at Y=0 of the oriented pair")
    if base["family"] == "quad":
        d = int(base["d"])
        named = [(k, dec(result[k])) for k in ("a", "b", "witness", "generator", "qa", "qb", "ca", "cb")
                 if result.get(k) is not None]
        named += [(f"base_pair[{k}]", dec(e)) for k, e in enumerate(pair or ())]
        _d_fails("ring.base.d", d, named, fails)
    if result["status"] == "base_non_principal":
        if base["family"] != "quad":
            fails.append(f"base_non_principal claimed over the principal ideal domain {base['family']}")
            return fails
        av, bv = dec(pair[0]), dec(pair[1])
        vecs = []
        for k, e in enumerate((av, bv)):
            xy = _quad_xy(e, f"base_pair[{k}]", fails)
            if xy is None:
                return fails
            if any(xy):
                vecs += _elem_vectors(*xy, d)
        _nonprincipal_fails(_span(vecs), d, fails, "the ideal of base_pair")
        return fails
    g = dec(result["generator"])
    qa, qb = dec(result["qa"]), dec(result["qb"])
    ca, cb = dec(result["ca"]), dec(result["cb"])
    if not v_eq(v_mul(g, qa), a):
        fails.append("generator*qa != a")
    if not v_eq(v_mul(g, qb), b):
        fails.append("generator*qb != b")
    if not v_eq(v_add(v_mul(ca, a), v_mul(cb, b)), g):
        fails.append("ca*a + cb*b != generator")
    named = [(name, dec(result[name])) for name in ("generator", "qa", "qb", "ca", "cb")]
    _member_fails(named, report["ring"], fails, "is not a member of the pullback (value at 0)")
    return fails


def _verify_pullback_nonufd(report):
    fails = []
    result = report["result"]
    z = dec(result["z"])
    dconst = dec(result["d"])
    chain = [dec(e) for e in result["chain"]]
    if not len(chain) == result["n"] >= 1:
        fails.append(f"chain length {len(chain)} is not n = {result['n']} >= 1")
    acc = v_one_like(z)
    for k, e in enumerate(chain, start=1):
        acc = v_mul(acc, dconst)
        if not v_eq(v_mul(e, acc), z):
            fails.append(f"chain element {k} times d^{k} differs from z")
        val = _rf_value0(e)
        if val is None or not v_is_zero(val):  # zero lies in every base
            fails.append(f"chain element {k} is not in the maximal ideal")
    return fails


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3_317_044_064_679_887_385_961_981


def _not_prime(p):
    """Why the integer p is not a proven prime, or None when it is one."""
    if p < 2:
        return "is below 2"
    for a in _MR_BASES:
        if p % a == 0:
            return None if p == a else f"is composite (divisible by {a})"
    if p >= _MR_EXACT:
        return "is too large to prove prime"
    q, k = p - 1, 0
    while not q & 1:
        q >>= 1
        k += 1
    for a in _MR_BASES:
        x = pow(a, q, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(k - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return f"is composite (Miller-Rabin witness {a})"
    return None


def _ring_prime_fails(ring, where="ring"):
    # Z[1/p] and D[X;S] are described by primes, at any depth of bases.
    # Stripping a prime below 2 never ends (1) or divides by zero (0), so
    # such a ring fails before any membership loop runs; a composite
    # describes another ring than it claims
    family = ring["family"]
    primes = [(f"{where}.primes", p) for p in ring["primes"]] if family == "zloc" else []
    if family == "monoid":
        primes = [(f"{where}.monoid.primes", p) for p in ring["monoid"]["primes"]]
    fails = [f"{label}: {p} {why}" for label, p in primes if (why := _not_prime(int(p)))]
    return fails + (_ring_prime_fails(ring["base"], f"{where}.base") if "base" in ring else [])


def _strip(n, primes):
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def _mon_in_ring(v, ring, fails, label):
    desc = ring["monoid"]
    primes = [int(p) for p in desc["primes"]]
    group = desc["group"]
    base = ring["base"]
    _, den, cden, terms = v
    # once for the whole vector: den and cden are least denominators, so
    # every exponent and coefficient passes exactly when they do; the term
    # loop below runs only to name what fails
    if not terms:
        return
    base_primes = [int(p) for p in base["primes"]] if base["family"] == "zloc" else []
    if (
        (group or terms[0][0] >= 0)
        and _strip(den, primes) == 1
        and (base["family"] != "int" or cden == 1)
        and (base["family"] != "zloc" or _strip(cden, base_primes) == 1)
    ):
        return
    for e, c in terms:
        e, c = Fraction(e, den), Fraction(c, cden)
        if not group and e < 0:
            fails.append(f"{label}: negative exponent outside group mode")
        if _strip(e.denominator, primes) != 1:
            fails.append(f"{label}: exponent {e} outside the denominator lattice")
        if base["family"] == "int" and c.denominator != 1:
            fails.append(f"{label}: coefficient {c} outside Z")
        if base["family"] == "zloc" and _strip(c.denominator, base_primes) != 1:
            fails.append(f"{label}: coefficient {c} outside the localized base")


def _verify_mring_split(report):
    fails = []
    result = report["result"]
    (f1, f2), [(lam, mu)] = _comaximal_fails(_split_pair(result), v_neg(_x_minus(result["s"], 1)),
                                             "f1*f2 != 1 - X^s", fails)
    # f2 == 1 + X^t + ... + X^(t(n-1)), whose remainder mod 1 - X^t is n
    if result["n"] != len(f2[3]) or Fraction(result["remainder"]) != result["n"]:
        fails.append("n is not the number of terms of f2, or remainder is not n")
    _member_fails((("f1", f1), ("f2", f2), ("lam", lam), ("mu", mu)), report["ring"], fails)
    return fails


def _verify_mring_chain(report):
    fails = []
    result = report["result"]
    factors, pairs = _comaximal_fails(result, v_neg(_x_minus(result["s"], 1)),
                                      "product does not telescope to 1 - X^s", fails)
    if result["m"] != len(factors):
        fails.append(f"m is {result['m']}, but the chain has {len(factors)} factors")
    named = [(f"factors[{k}]", f) for k, f in enumerate(factors)]
    _member_fails(named + [(name, v) for pair in pairs for name, v in zip(("lam", "mu"), pair)], report["ring"], fails)
    return fails


def _verify_mring_juett(report):
    fails = []
    result = report["result"]
    t, b, p, beta = Fraction(result["t"]), Fraction(result["b"]), result["p"], Fraction(result["beta"])
    z, unit = dec(result["z"]), dec(result["unit"])
    (f1, f2), [(lam, mu)] = _comaximal_fails(_split_pair(result), _x_minus(t, b),
                                             "unit*(Z-1)*(1+...+Z^(p-1)) != X^t - b", fails, unit=unit)
    # t != 0, so f2's p terms X^(i*t/p) / beta^i are distinct: a p other
    # than its term count fails before the p powers of z are formed
    if t == 0 or type(p) is not int or p < 2 or p != len(f2[3]):
        return fails + ["t is 0, or p is not the number of terms of f2"]
    w, c, geometric = 1 / beta, Fraction(1), []
    for i in range(p):
        geometric.append((t / p * i, c))  # z^i = X^(i*t/p) / beta^i
        c *= w
    want_z = _mon_of(geometric[1:2])
    for claim, value, want in (("unit != b", unit, _mon_of([(Fraction(0), b)])),
                               ("z != X^(t/p)/beta", z, want_z),
                               ("f1 != z - 1", f1, v_sub(want_z, v_one_like(z))),
                               ("f2 != 1 + z + ... + z^(p-1)", f2, _mon_of(geometric)),
                               ("beta^p != b", ("rat", beta ** p), ("rat", b))):
        if not v_eq(value, want):
            fails.append(claim)
    _member_fails((("unit", unit), ("f1", f1), ("f2", f2), ("lam", lam), ("mu", mu)), report["ring"], fails)
    return fails


def _verify_limit_chain(report):
    fails = []
    result = report["result"]
    x1 = ("lim", 1, (0, 1))
    m = len(result["factors"])  # x_m, then 1+x_m down to 1+x_2 (see the module docstring)
    factors, pairs = _comaximal_fails(result, x1, "product of chain factors differs from the lift of x_1", fails,
                                      order=[0, *range(m - 1, 0, -1)][:m])
    if result["m"] != len(factors):
        fails.append(f"m is {result['m']}, but the chain has {len(factors)} factors")
    # over Z: the limit ring's only bases are Q and Z
    named = [("factor", f) for f in factors]
    named += [(f"pairwise {c['i']},{c['j']} {name}", v)
              for c, pair in zip(result["pairwise"], pairs) for name, v in zip(("lam", "mu"), pair)]
    _member_fails(named, report["ring"], fails, "coefficients leave Z")
    return fails


def _poly_excluded_ok(p, excluded):
    # p: decoded poly whose coefficients are polys in y (or rats)
    for c in p[1]:
        inner = c if c[0] == "poly" else ("poly", (c,) if not v_is_zero(c) else ())
        for deg, cc in enumerate(inner[1]):
            if deg in excluded and not v_is_zero(cc):
                return False
    return True


def _alpha_witness(result):
    """(alpha, excluded degrees, whether alpha is a seminormality witness) of
    a polyext report: alpha must lie outside D, alpha^2 and alpha^3 inside,
    for D the subring of Q[y] spanned by the monomials of degree outside
    `excluded`."""
    alpha = dec(result["alpha"])
    excluded = {int(e) for e in result["excluded"]}
    a2 = v_mul(alpha, alpha)
    inside = lambda p: _poly_excluded_ok(("poly", (p,)), excluded)
    return alpha, excluded, not inside(alpha) and inside(a2) and inside(v_mul(a2, alpha))


def _subring_fails(excluded):
    """Why the excluded degrees leave no subring of Q[y], as a list of at
    most one failure.  The degrees left must hold 0 and be closed under +,
    so they make a numerical semigroup whose gaps are the excluded degrees,
    and a numerical semigroup's largest gap is below twice its number of
    gaps.  That bound is checked first; the closure walk then visits the
    pairs of degrees left below the largest gap, as `SubringDesc` does,
    fewer than |excluded| of them."""
    if min(excluded, default=1) < 1:
        return ["excluded degrees must be positive (1 must lie in D)"]
    top = max(excluded, default=0)
    if excluded and top >= 2 * len(excluded):
        return [f"excluded degree {top} is not below twice the number of excluded degrees, "
                "so D is not closed under products"]
    left = [i for i in range(1, top) if i not in excluded]
    for k, i in enumerate(left):
        for j in left[k:]:
            if i + j > top:
                break
            if i + j in excluded:
                return [f"D is not closed under products: {i} + {j} is excluded"]
    return []


def _verify_polyext_witness(report):
    result = report["result"]
    _, excluded, is_witness = _alpha_witness(result)
    fails = _subring_fails(excluded)
    if is_witness != result["witness"]:
        fails.append("witness verdict differs from recomputation")
    return fails


def _verify_polyext_counterexample(report):
    result = report["result"]
    alpha, excluded, is_witness = _alpha_witness(result)
    fails = _subring_fails(excluded)
    if not is_witness:
        fails.append("alpha is not a seminormality witness: need alpha^2, alpha^3 in D, alpha not in D")
    u, v, r = dec(result["u"]), dec(result["v"]), dec(result["witness"])
    one = v_one_like(u)
    a2 = v_mul(alpha, alpha)
    a3 = v_mul(a2, alpha)
    a4 = v_mul(a2, a2)
    # u and v really are the alpha-built pair
    want_u = v_sub(one, ("poly", (v_zero_like(alpha),) * 4 + (a4,)))
    want_v = ("poly", (a2, a3))
    if not v_eq(u, want_u):
        fails.append("u differs from 1 - alpha^4 X^4")
    if not v_eq(v, want_v):
        fails.append("v differs from alpha^2 + alpha^3 X")
    _idempotent_fails(u, v, r, fails, "idempotent identity u(1-u) == v*witness fails")
    for name, val in (("u", u), ("v", v), ("witness", r)):
        if not _poly_excluded_ok(val, excluded):
            fails.append(f"{name} has a coefficient outside the subring")
    return fails


def _verify_sphere_projector(report):
    fails = []
    result = report["result"]
    m = [[dec(e) for e in row] for row in result["matrix"]]
    xs = [("sph", {}, {(0, 0): Fraction(1)}),
          ("sph", {(1, 0): Fraction(1)}, {}),
          ("sph", {(0, 1): Fraction(1)}, {})]
    one = v_one_like(xs[0])
    col = [[x] for x in xs]
    for i in range(3):
        for j in range(3):
            want = v_sub(one if i == j else v_zero_like(xs[0]), v_mul(xs[i], xs[j]))
            if not v_eq(m[i][j], want):
                fails.append(f"matrix entry ({i},{j}) differs from I - x^T x")
    _projector_fails(m, fails, "E")
    for i, (v,) in enumerate(_mat_mul(m, col)):
        if not v_is_zero(v):
            fails.append(f"(E x^T)[{i}] != 0")
    trace = v_add(v_add(m[0][0], m[1][1]), m[2][2])
    if not v_eq(trace, v_mul(one, ("rat", Fraction(2)))):
        fails.append("trace(E) != 2")
    if not v_eq(_mat_mul([xs], col)[0][0], one):
        fails.append("x x^T != 1")
    return fails


def _verify_echo(report):
    return []


_VERIFIERS = {
    "idem check": _verify_idem_check,
    "idem matrix": _verify_idem_matrix,
    "idem from-ideal": _verify_idem_from_ideal,
    "ideal frompair": _verify_ideal_frompair,
    "ideal mul": _verify_ideal_mul,
    "ideal invertible": _verify_ideal_invertible,
    "ideal principal": _verify_ideal_principal,
    "ideal factor": _verify_ideal_factor,
    "comax factor": _verify_comax_factor,
    "comax unique": _verify_comax_unique,
    "comax hunt": _verify_comax_hunt,
    "pullback reduce": _verify_pullback_reduce,
    "pullback nonufd": _verify_pullback_nonufd,
    "mring split": _verify_mring_split,
    "mring chain": _verify_mring_chain,
    "mring juett": _verify_mring_juett,
    "limitring chain": _verify_limit_chain,
    "limitring eval": _verify_echo,
    "polyext witness": _verify_polyext_witness,
    "polyext counterexample": _verify_polyext_counterexample,
    "sphere projector": _verify_sphere_projector,
    "sphere reduce": _verify_echo,
}


def verify_report(report: dict) -> list[str]:
    """Re-derive every certificate in the report; returns failure messages
    (empty means everything re-checked).  A ring whose primes fail
    `_ring_prime_fails` fails here, before any routine reads a value."""
    fn = _VERIFIERS.get(report.get("command"))
    if fn is None:
        return [f"no recheck routine for command {report.get('command')!r}"]
    try:
        ring = report["ring"]
        return (ring is not None and _ring_prime_fails(ring)) or fn(report)
    except Exception as exc:  # a malformed report must fail loudly, not crash
        return [f"recheck aborted: {type(exc).__name__}: {exc}"]
    finally:
        del _LIM_ITERATES[2:]
