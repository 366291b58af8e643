"""The checker's arithmetic on every tag but "rat" and "quad" ("poly", "rf",
"mon", "lim", "sph"), the integer polynomial products it runs on, the
matrix product, and membership of "rf" and "mon" values.  `values` imports
this part when a value of one of these tags first needs it, so a report
over Z or Z[sqrt(d)] never loads it.  `promote`, `is_zero`, `add`, `neg`,
`mul` and `eq` are the branches of `values`' `_promote` and `v_*` for these
tags, on operands already of one tag.

A limit-ring value ("lim", level, coefficients) has int coefficients when
every one is an integer, else Fractions.  It is lifted from level n to m by
one packed evaluation at the iterate phi^(m-n) of phi = x + x^2, cached
while one `verify_report` call runs.

A monoid-ring value ("mon", den, cden, terms) has int pairs (e, c) for
c/cden X^(e/den): distinct ascending e, nonzero c, den and cden least, so
equal values are equal tuples.  Products map both operands, over one lcm
of their exponent denominators, to dense vectors in X^(g/L) after their
smallest exponents, unless the dense length would pass `_MON_FILL` times
the number of term pairs.  Membership in D[X;S] is checked once per vector
through its two least denominators; the per-term loop only names failures.
"""

from __future__ import annotations

from math import gcd, lcm

from ..rational import Fraction
from .values import _strip, v_add, v_eq, v_is_zero, v_mul, v_neg, v_sub, v_zero_like

# --------------------------------------------------------- tag arithmetic


def promote(v, tag, model):
    """The "rat" (or, to "poly" and "rf", lower) value v as a value of `tag`."""
    if tag == "poly":
        return ("poly", (v,)) if not v_is_zero(v) else ("poly", ())
    if tag == "rf":
        p = v if v[0] == "poly" else promote(v, "poly", None)
        return ("rf", p, ("poly", (("rat", Fraction(1)),)))
    if tag == "mon":
        if v[0] != "rat":
            raise ValueError(f"cannot promote {v[0]} to mon")
        return _mon_norm(1, v[1].denominator, [(0, v[1].numerator)] if v[1] else [])
    if tag == "lim":
        return ("lim", 1, _lim_vec([v[1].numerator], v[1].denominator))
    if tag == "sph":
        return ("sph", {(0, 0): v[1]} if v[1] else {}, {})
    raise ValueError(f"cannot promote {v[0]} to {tag}")


def is_zero(v) -> bool:
    t = v[0]
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


def add(a, b):
    t = a[0]
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


def neg(a):
    t = a[0]
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


def mul(a, b):
    t = a[0]
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


def eq(a, b) -> bool:
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


# ------------------------------------------------- matrices and membership


def _mat_mul(p, q):
    """The matrix product p*q of nested lists of decoded values."""
    def entry(row, j):
        acc = v_mul(row[0], q[0][j])
        for k in range(1, len(q)):
            acc = v_add(acc, v_mul(row[k], q[k][j]))
        return acc
    return [[entry(row, j) for j in range(len(q[0]))] for row in p]


def _projector_fails(m, fails, name):
    """The projector identity M*M == M for the square matrix m, each failing
    entry named as `name`*`name` != `name` at (i,j)."""
    for i, row in enumerate(_mat_mul(m, m)):
        for j, v in enumerate(row):
            if not v_eq(v, m[i][j]):
                fails.append(f"{name}*{name} != {name} at ({i},{j})")


def _rf_value0(v):
    # value at Y=0 of a decoded rf whose coefficients are rat or quad: a
    # pullback element's value in the base, c/d = c * conj(d) / N(d) for the
    # constant terms c and d; None when d is 0
    c, d = (p[1][0] if p[1] else ("rat", Fraction(0)) for p in v[1:])
    if v_is_zero(d):
        return None
    if d[0] == "rat":
        return v_mul(c, ("rat", 1 / d[1]))
    _, x, y, e = d
    n = x * x - e * y * y
    return v_mul(c, ("quad", x / n, -y / n, e))


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

