"""The checker's values: decoding, rational and quadratic arithmetic,
membership, primes and the identities every part checks.  Every report
loads this part.

`dec` turns a JSON element into a tagged value ("rat", "quad", "poly", "rf",
"mon", "lim", "sph", "qid"), reading a value the producer left in the
report tree through its `json()`, once per `verify_report` call: a comax
report holds each block's generator in many factorizations.  The pairwise lam and mu of `_comaximal_fails`, each used
once, are decoded apart (`_decode`), one pair at a time, so a chain's
cofactors are never held decoded all at once.  `v_add`, `v_mul`, `v_eq`,
... compute on "rat" and "quad" values here and on every other tag in the
`polys` part, imported when such a value first needs it (`_part`).
`_promote` embeds a rational in each tag; `v_zero_like` and `v_one_like`
are 0 and 1 promoted to a value's tag.

A ring whose description names a prime that is not one fails before any
routine runs (`_ring_prime_fails`, with its own Miller-Rabin `_not_prime`):
a membership loop would never end on 1 or divide by zero on 0.  Over
Z[sqrt(d)], or a pullback over it, every Z[sqrt(d)] value must carry the
ring's d, so no routine computes over two d: `_ring_d_fails` walks the
result first and names each leaf that differs, and `dec` checks the d of
each value the producer left in the tree as it decodes it, raising
`OtherD`, on which `verify_report` walks again to name the path.

`_comaximal_fails` checks every comaximal factorization (u * f_1 * ... *
f_m == b, one pairwise entry for each pair i < j in order, each pair's
lam*f_i + mu*f_j == 1) and `_idempotent_fails` every idempotent pair
(f(1 - f) == s*r).  Membership in the ring, not only its fraction field,
has one test, `_member_fails` through `_in_ring`, each caller passing its
own failure text.
"""

from __future__ import annotations

from math import lcm

from ..rational import Fraction, _parse

# the `polys` part, once a value of its tags has needed it
_polys = None


def _part():
    global _polys
    if _polys is None:
        from . import polys as _polys
    return _polys


# while one `verify_report` call runs: the d every Z[sqrt(d)] value must
# carry (None off Z[sqrt(d)]), and the values decoded so far, by the id of
# the producer's object (None between calls, so nothing is kept)
_D = None
_DECODED = None


class OtherD(Exception):
    pass  # `dec` met a Z[sqrt(d)] value whose d is not the ring's


def start(ring):
    """Begin the checks of one `verify_report` call over `ring`."""
    global _D, _DECODED
    _D, _DECODED = ring and _ring_d(ring), {}


def forget():
    """Drop what one `verify_report` call kept: the ring's d, the decoded
    values and the limit ring's iterates."""
    global _D, _DECODED
    _D = _DECODED = None
    if _polys is not None:
        del _polys._LIM_ITERATES[2:]


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


def dec(e):
    """JSON element, or a value the producer left in the report tree ->
    tagged value; such a value is decoded once per `verify_report` call."""
    if _DECODED is None or not hasattr(e, "json"):
        return _decode(e)
    key = id(e)
    if key not in _DECODED:
        _DECODED[key] = _decode(e)
    return _DECODED[key]


def _d(e):
    d = int(e["d"])
    if _D is not None and d != _D:
        raise OtherD(f"the ring's d is {_D}, but a Z[sqrt(d)] value in the result has d = {d}")
    return d


def _decode(e):
    """JSON element, or a value the producer left in the report tree ->
    tagged value, decoded anew."""
    e = e.json() if hasattr(e, "json") else e
    t = e["type"]
    if t in ("int", "rat"):
        return ("rat", Fraction(e["value"]))
    if t in ("quad", "quadrat"):
        return ("quad", Fraction(e["x"]), Fraction(e["y"]), _d(e))
    if t == "quadideal":
        (n, zero), (c, m) = e["basis"]
        if int(zero) != 0:
            raise ValueError("a quadideal basis is not in Hermite normal form [(n, 0), (c, m)]")
        return ("qid", _d(e), int(n), int(c), int(m))
    if t == "poly":
        return ("poly", tuple(dec(c) for c in e["coeffs"]))
    if t in ("ratfunc", "pullback"):
        return ("rf", dec(e["num"]), dec(e["den"]))
    if t == "monoid":
        terms = [(_q(x), _q(_rat_leaf(c))) for x, c in e["terms"]]
        del e  # a chain's largest JSON: dropped once read, before the value is built
        den, cden = lcm(*(d for (_, d), _ in terms)), lcm(*(k for _, (_, k) in terms))
        return _part()._mon(den, cden, ((n * (den // d), c * (cden // k)) for (n, d), (c, k) in terms))
    if t == "limit":
        pairs = [_q(c["value"]) for c in e["coeffs"]]
        den = lcm(*(d for _, d in pairs))
        return ("lim", int(e["level"]), _part()._lim_vec([n * (den // d) for n, d in pairs], den))
    if t == "sphere":
        return (
            "sph",
            {(int(i), int(j)): Fraction(c) for i, j, c in e["f"]},
            {(int(i), int(j)): Fraction(c) for i, j, c in e["g"]},
        )
    raise ValueError(f"cannot decode {t!r}")


# ------------------------------------------------------- generic value ops


def _promote(v, tag, model):
    if v[0] == tag:
        return v
    if tag == "quad":
        assert v[0] == "rat"
        return ("quad", v[1], Fraction(0), model[3])
    return _part().promote(v, tag, model)


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
    return _part().is_zero(v)


def v_add(a, b):
    if a[0] != b[0]:
        a, b = _common(a, b)
    t = a[0]
    if t == "rat":
        return ("rat", a[1] + b[1])
    if t == "quad":
        if a[3] != b[3]:
            raise ValueError("mixed d")
        return ("quad", a[1] + b[1], a[2] + b[2], a[3])
    return _part().add(a, b)


def v_neg(a):
    t = a[0]
    if t == "rat":
        return ("rat", -a[1])
    if t == "quad":
        return ("quad", -a[1], -a[2], a[3])
    return _part().neg(a)


def v_sub(a, b):
    return v_add(a, v_neg(b))


def v_mul(a, b):
    if a[0] != b[0]:
        a, b = _common(a, b)
    t = a[0]
    if t == "rat":
        return ("rat", a[1] * b[1])
    if t == "quad":
        if a[3] != b[3]:
            raise ValueError("mixed d")
        d = a[3]
        return ("quad", a[1] * b[1] + d * a[2] * b[2], a[1] * b[2] + a[2] * b[1], d)
    return _part().mul(a, b)


def v_eq(a, b) -> bool:
    if a[0] != b[0]:
        a, b = _common(a, b)
    if a[0] in ("rat", "quad"):
        return v_is_zero(v_sub(a, b))
    return _part().eq(a, b)


def v_zero_like(v):
    return _promote(("rat", Fraction(0)), v[0], v)


def v_one_like(v):
    return _promote(("rat", Fraction(1)), v[0], v)


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
    decodes them again; a pair it returns true for is skipped.  Returns the
    decoded factors."""
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
        lam, mu = _decode(c["lam"]), _decode(c["mu"])
        if each is not None and each(c, lam, mu):
            continue
        if covered and not v_eq(v_add(v_mul(lam, factors[c["i"]]), v_mul(mu, factors[c["j"]])), one):
            fails.append(f"{label}Bezout certificate for pair {c['i']},{c['j']} fails")
    return factors


def _idempotent_fails(f, s, r, fails, failure):
    """The idempotent pair identity f(1 - f) == s*r; a failure appends
    `failure`."""
    if not v_eq(v_mul(f, v_sub(v_one_like(f), f)), v_mul(s, r)):
        fails.append(failure)


# ------------------------------------------------------ membership and primes


def _in_ring(v, ring) -> bool:
    """Whether the decoded value v lies in the ring a report names, not only
    in its fraction field; the one membership test here, with
    `polys._mon_in_ring` for D[X;S] values.  A Z[1/p] ring's primes must have
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
        value = _part()._rf_value0(v)
        return value is not None and _in_ring(value, ring["base"])
    return (family, tag) in (("qpoly", "poly"), ("sphere", "sph"))


def _member_fails(named, ring, fails, text="does not lie in the ring"):
    """Each named decoded value must lie in the ring, not only in its
    fraction field (over Q, (2, 3) with witness -2/3 satisfies f(1-f) ==
    s*r, and any two nonzero elements are comaximal): `_mon_in_ring` over
    D[X;S], else `_in_ring`, failing as `name text`."""
    for name, v in named:
        if ring["family"] == "monoid" and v[0] == "mon":
            _part()._mon_in_ring(v, ring, fails, name)
        elif not _in_ring(v, ring):
            fails.append(f"{name} {text}")



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


def _ring_d(ring):
    """The d of a report's ring over Z[sqrt(d)], or of a pullback's base
    there; None for any other ring."""
    r = ring["base"] if ring["family"] == "pullback" else ring
    return int(r["d"]) if r["family"] == "quad" else None


def _ring_d_fails(report, leaves=False):
    # over Z[sqrt(d)], or a pullback over it, every Z[sqrt(d)] element and
    # ideal in the result carries the ring's d; the walk enters only the
    # elements that hold others, and names a leaf's path when it fails.  It
    # opens a value the producer left in the tree only with `leaves`: `dec`
    # checks the d of those as it decodes them
    d = _ring_d(report["ring"])
    if d is None:
        return []
    where, keys, fails = "ring.base.d" if report["ring"]["family"] == "pullback" else "ring.d", [], []

    def walk(node):
        for key, v in node.items() if isinstance(node, dict) else enumerate(node):
            if hasattr(v, "json"):
                if not leaves:
                    continue
                v = v.json()
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

