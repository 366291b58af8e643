"""The checker's values: decoding, exact arithmetic, membership and the
identities every part checks.  Every report loads this part.

`dec` turns a JSON element into a tagged value ("rat", "quad", "poly", "rf",
"mon", "lim", "sph", "qid"), reading a value the producer left in the
report tree through its `json()` first (`leaf`).  `v_add`, `v_mul`,
`v_eq`, ... compute on them with `rational.Fraction` and the integer
polynomial products below (written apart from the producer's `Poly`
kernel).  `_promote` embeds a
rational in each tag, and `v_zero_like` and `v_one_like` are 0 and 1
promoted to a value's tag.

Limit-ring ("lim") values are (level, coefficients): ints when every
coefficient is an integer, else Fractions.  A value is lifted from level n
to m by one packed evaluation at its own iterate phi^(m-n) of
phi = x + x^2, cached while one `verify_report` call runs.

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
zero on 0.  `_not_prime` is its own deterministic Miller-Rabin test.  Right
after it, `_ring_d_fails` ties every Z[sqrt(d)] element and ideal of a
report over Z[sqrt(d)], or a pullback over it, to the ring's d in one walk
of the result, naming the path of each leaf that differs, so no routine
computes over two d.

`_comaximal_fails` checks every comaximal factorization (u * f_1 * ... *
f_m == b, one pairwise entry for each pair i < j in order, and each pair's
lam*f_i + mu*f_j == 1) for `comax`, `mring split|chain|juett` and
`limitring chain`, whose `m` must be its factor count.  Each lam and mu must
lie in the ring, since over the fraction field any two nonzero elements are
comaximal.  It decodes and checks one pairwise entry at a time and hands
each decoded (lam, mu) to its caller, so a chain's cofactors are never held
decoded all at once.  `_idempotent_fails` checks f(1 - f) == s*r for every
idempotent pair, and the pair, its witness, a derived pair and the
complement quotients must lie in the ring, since over a field every pair
with a nonzero member satisfies it for some r (`lam` and `mu` of `idem
from-ideal` lie in the inverse ideal and are exempt).  One routine decides
membership: `_member_fails`, through `_in_ring` (and `_mon_in_ring` over
D[X;S]), each caller passing its own failure text.  `_projector_fails`
checks M*M == M for every projector matrix; `_mat_mul` is the matrix
product and `_strip` removes the primes of a denominator.
"""

from __future__ import annotations

from math import gcd, lcm

from ..rational import Fraction, _parse

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


def leaf(e):
    """A report element as JSON: a dict as it stands, and a value the
    producer left in the report tree through its `json()`."""
    return e.json() if hasattr(e, "json") else e


def dec(e):
    """JSON element, or a value the producer left in the report tree ->
    tagged value."""
    e = leaf(e)
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
        terms = [(_q(x), _q(_rat_leaf(c))) for x, c in e["terms"]]
        del e  # a chain's largest JSON: dropped once read, before the value is built
        den, cden = lcm(*(d for (_, d), _ in terms)), lcm(*(k for _, (_, k) in terms))
        return _mon(den, cden, ((n * (den // d), c * (cden // k)) for (n, d), (c, k) in terms))
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
        return ("lim", 1, _lim_vec([v[1].numerator], v[1].denominator))
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
    return _promote(("rat", Fraction(0)), v[0], v)


def v_one_like(v):
    return _promote(("rat", Fraction(1)), v[0], v)


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


# ------------------------------------------------- identities every part checks


def _comaximal_fails(cert, target, claim, fails, label="", unit=None, order=None, each=None):
    """The one check of a comaximal factorization certificate: unit * f_1 *
    ... * f_m == target (unit defaults to 1) over cert["factors"], the
    entries of cert["pairwise"] cover each pair i < j once, in order, and
    lam*f_i + mu*f_j == 1 for each of them.  The product runs from the unit
    over the factors in the index sequence `order`, a permutation of
    0..m-1 (default: as listed).  A failing product appends `claim`, a
    failing pair names its (i, j); no pair is checked when the cover fails.
    The entries are decoded one at a time, and `each(entry, lam, mu)` is
    called with every decoded pair (also when the cover fails), so no caller
    decodes them again.  Returns the decoded factors."""
    factors = [dec(f) for f in cert["factors"]]
    one = v_one_like(target)
    prod = one if unit is None else unit
    for k in range(len(factors)) if order is None else order:
        prod = v_mul(prod, factors[k])
    if not v_eq(prod, target):
        fails.append(f"{label}{claim}")
    m = len(factors)
    covered = [(c["i"], c["j"]) for c in cert["pairwise"]] == [(i, j) for i in range(m) for j in range(i + 1, m)]
    if not covered:
        fails.append(f"{label}pairwise certificates do not cover each pair of factors once")
    for c in cert["pairwise"]:
        lam, mu = dec(c["lam"]), dec(c["mu"])
        if each is not None:
            each(c, lam, mu)
        if covered and not v_eq(v_add(v_mul(lam, factors[c["i"]]), v_mul(mu, factors[c["j"]])), one):
            fails.append(f"{label}Bezout certificate for pair {c['i']},{c['j']} fails")
    return factors


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


def _projector_fails(m, fails, name):
    """The projector identity M*M == M for the square matrix m, each failing
    entry named as `name`*`name` != `name` at (i,j)."""
    for i, row in enumerate(_mat_mul(m, m)):
        for j, v in enumerate(row):
            if not v_eq(v, m[i][j]):
                fails.append(f"{name}*{name} != {name} at ({i},{j})")


# ------------------------------------------------------ membership and primes


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


def _ring_d_fails(report):
    # over Z[sqrt(d)], or a pullback over it, every Z[sqrt(d)] element and
    # ideal in the result carries the ring's d; the walk enters only the
    # elements that hold others, and names a leaf's path when it fails
    ring = report["ring"]
    where, r = ("ring.base.d", ring["base"]) if ring["family"] == "pullback" else ("ring.d", ring)
    if r["family"] != "quad":
        return []
    d, keys, fails = int(r["d"]), [], []

    def walk(node):
        for key, v in node.items() if isinstance(node, dict) else enumerate(node):
            v = leaf(v)
            if isinstance(v, dict):
                t = v.get("type")
                if t in ("quad", "quadrat", "quadideal"):
                    if (e := int(v["d"])) != d:
                        path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in (*keys, key))
                        fails.append(f"{where} is {d}, but result{path} has d = {e}")
                    continue
                if t not in (None, "poly", "ratfunc", "pullback"):
                    continue
            elif not isinstance(v, (list, tuple)):
                continue
            keys.append(key)
            walk(v)
            keys.pop()

    walk(report["result"])
    return fails


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

