"""Independent certificate verification for emitted reports.

This module shares one routine with the producing modules: the integer
lattice reduction `core.hnf2_with_transform`, which it uses to put ideal
lattices in Hermite normal form.  Everything else is its own: it decodes the
JSON report into its own tagged values and re-derives every claimed identity
with `fractions` and that routine.  A passing recheck therefore means the
certificates stand on their own, not that the producer agrees with itself,
up to that one shared routine.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

from .core import hnf2_with_transform

# ---------------------------------------------------------------- decoding


def _f(s) -> Fraction:
    return Fraction(s)


def dec(e):
    """JSON element -> tagged value."""
    t = e["type"]
    if t in ("int", "rat"):
        return ("rat", _f(e["value"]))
    if t in ("quad", "quadrat"):
        return ("quad", _f(e["x"]), _f(e["y"]), int(e["d"]))
    if t == "poly":
        return ("poly", tuple(dec(c) for c in e["coeffs"]))
    if t == "ratfunc":
        return ("rf", dec(e["num"]), dec(e["den"]))
    if t == "pullback":
        return ("rf", dec(e["num"]), dec(e["den"]))
    if t == "monoid":
        return ("mon", tuple((_f(exp), dec(c)) for exp, c in e["terms"]))
    if t == "limit":
        return ("lim", int(e["level"]), tuple(_f(c["value"]) for c in e["coeffs"]))
    if t == "sphere":
        return (
            "sph",
            {(int(i), int(j)): _f(c) for i, j, c in e["f"]},
            {(int(i), int(j)): _f(c) for i, j, c in e["g"]},
        )
    if t == "quadideal":
        (n, _), (c, m) = e["basis"]
        return ("qid", int(e["d"]), int(n), int(c), int(m))
    raise ValueError(f"cannot decode {t!r}")


# ------------------------------------------------------- generic value ops

_RANK = {"rat": 0, "quad": 1, "poly": 2, "rf": 3}


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
        return ("mon", (((Fraction(0)), v),)) if not v_is_zero(v) else ("mon", ())
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
        return all(v_is_zero(c) for _, c in v[1])
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
        out = dict(a[1])
        for e, c in b[1]:
            cur = out.get(e)
            s = v_add(cur, c) if cur is not None else c
            if v_is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return ("mon", tuple(sorted(out.items())))
    if t == "lim":
        la, lb = _lim_common(a, b)
        n = max(len(la[2]), len(lb[2]))
        out = [Fraction(0)] * n
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
        return ("mon", tuple((e, v_neg(c)) for e, c in a[1]))
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
        out = {}
        for e1, c1 in a[1]:
            for e2, c2 in b[1]:
                e = e1 + e2
                p = v_mul(c1, c2)
                cur = out.get(e)
                s = v_add(cur, p) if cur is not None else p
                if v_is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return ("mon", tuple(sorted(out.items())))
    if t == "lim":
        la, lb = _lim_common(a, b)
        ca, cb = la[2], lb[2]
        if not ca or not cb:
            return ("lim", la[1], ())
        out = [Fraction(0)] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                out[i + j] += x * y
        while out and out[-1] == 0:
            out.pop()
        return ("lim", la[1], tuple(out))
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
        return ("mon", ())
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
        return ("mon", ((Fraction(0), ("rat", Fraction(1))),))
    if t == "lim":
        return ("lim", 1, (Fraction(1),))
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


def _lim_lift(a, n):
    coeffs = list(a[2])
    for _ in range(n - a[1]):
        acc = []
        for c in reversed(coeffs):
            # acc = acc*(x + x^2) + c
            out = [Fraction(0)] * (len(acc) + 2) if acc else []
            for i, x in enumerate(acc):
                out[i + 1] += x
                out[i + 2] += x
            if not out:
                out = [Fraction(0)]
            out[0] += c
            while out and out[-1] == 0:
                out.pop()
            acc = out
        coeffs = acc
    return ("lim", n, tuple(coeffs))


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


def _norm_solutions(N, d):
    out = []
    ad = -d
    y = 0
    while ad * y * y <= N:
        rem = N - ad * y * y
        x = isqrt(rem)
        if x * x == rem:
            for sx in {x, -x}:
                for sy in {y, -y}:
                    out.append((sx, sy))
        y += 1
    return out


def _quad_int(v):
    return v[0] == "quad" and v[1].denominator == 1 and v[2].denominator == 1


def _nonprincipal_by_enumeration(span, d, fails):
    n, c, m = span
    N = n * m
    for x, y in _norm_solutions(N, d):
        if x == 0 and y == 0:
            continue
        if _span(_elem_vectors(x, y, d)) == span:
            fails.append(f"claimed non-principal, but {x}+{y}*sqrt({d}) generates")
            return


# ------------------------------------------------------------- verifiers


def _pair_identity(result, fails):
    a, b = dec(result["a"]), dec(result["b"])
    pair = result["pair"]
    r = dec(pair["witness"])
    f, s = (a, b) if pair["orientation"] == "ab" else (b, a)
    one = v_one_like(f)
    if not v_eq(v_mul(f, v_sub(one, f)), v_mul(s, r)):
        fails.append("pair witness identity f(1-f) == s*r fails")
    return a, b, f, s, r


def _complement(result, f, s, fails):
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
    for i, (p, q) in enumerate(zip(prods, quots)):
        if not v_eq(v_mul(s, q), p):
            fails.append(f"complement quotient {i} fails s*q == product")
    if not v_eq(v_add(prods[1], prods[2]), s):
        fails.append("generator combination products[1]+products[2] == s fails")
    gen = dec(comp["generator"])
    if not v_eq(gen, s):
        fails.append("complement generator is not the second pair member")


def _verify_idem_check(report):
    fails = []
    result = report["result"]
    if report["verdict"] == "not_idempotent_pair":
        return fails  # a negative detection carries no certificate
    a, b, f, s, r = _pair_identity(result, fails)
    _complement(result, f, s, fails)
    return fails


def _verify_idem_matrix(report):
    fails = []
    result = report["result"]
    if "matrix" not in result:
        return fails  # negative detection: nothing to certify
    _, _, f, s, r = _pair_identity(result, fails)
    m = [[dec(e) for e in row] for row in result["matrix"]]
    one = v_one_like(f)
    want = [[f, s], [r, v_sub(one, f)]]
    for i in range(2):
        for j in range(2):
            if not v_eq(m[i][j], want[i][j]):
                fails.append(f"matrix entry ({i},{j}) differs from the pair data")
    for i in range(2):
        for j in range(2):
            acc = v_add(v_mul(m[i][0], m[0][j]), v_mul(m[i][1], m[1][j]))
            if not v_eq(acc, m[i][j]):
                fails.append(f"M*M != M at ({i},{j})")
    return fails


def _verify_idem_from_ideal(report):
    fails = []
    result = report["result"]
    if report["verdict"] == "not_invertible":
        return fails
    a, b = dec(result["a"]), dec(result["b"])
    lam, mu = dec(result["bezout"]["lam"]), dec(result["bezout"]["mu"])
    one = v_one_like(lam)
    if not v_eq(v_add(v_mul(lam, a), v_mul(mu, b)), one):
        fails.append("Bezout identity lam*a + mu*b == 1 fails")
    pair = result["pair"]
    pa, pb = dec(pair["a"]), dec(pair["b"])
    if not v_eq(pa, v_mul(lam, a)) or not v_eq(pb, v_mul(lam, b)):
        fails.append("derived pair is not (lam*a, lam*b)")
    wit = dec(pair["witness"])
    if not v_eq(wit, v_mul(mu, a)):
        fails.append("derived witness is not mu*a")
    sub = {"a": pair["a"], "b": pair["b"], "pair": pair, "complement": result.get("complement")}
    f, s = pa, pb
    if not v_eq(v_mul(f, v_sub(v_one_like(f), f)), v_mul(s, wit)):
        fails.append("derived pair fails its defining relation")
    _complement(sub, f, s, fails)
    return fails


def _verify_ideal_frompair(report):
    fails = []
    result = report["result"]
    a, b = dec(result["a"]), dec(result["b"])
    q = dec(result["ideal"])
    d = q[1]
    vecs = []
    for e in (a, b):
        if not _quad_int(e):
            fails.append("generator has non-integer coordinates")
            return fails
        x, y = int(e[1]), int(e[2])
        if x or y:
            vecs += _elem_vectors(x, y, d)
    if _span(vecs) != (q[2], q[3], q[4]):
        fails.append("normal form differs from an independent lattice recomputation")
    if int(result["norm"]) != q[2] * q[4]:
        fails.append("reported norm is not the basis determinant")
    return fails


def _verify_ideal_mul(report):
    fails = []
    result = report["result"]
    i, j, p = dec(result["i"]), dec(result["j"]), dec(result["product"])
    d = i[1]
    got = _ideal_product_span(_qid_vectors(i), _qid_vectors(j), d)
    if got != (p[2], p[3], p[4]):
        fails.append("product lattice differs from an independent recomputation")
    return fails


def _verify_ideal_invertible(report):
    fails = []
    result = report["result"]
    q = dec(result["ideal"])
    d = q[1]
    if result["invertible"]:
        cof = dec(result["cofactor"])
        gen = dec(result["product_generator"])
        got = _ideal_product_span(_qid_vectors(q), _qid_vectors(cof), d)
        if not _quad_int(gen):
            fails.append("product generator is not integral")
            return fails
        want = _span(_elem_vectors(int(gen[1]), int(gen[2]), d))
        if got != want:
            fails.append("I*cofactor is not the claimed principal ideal")
    else:
        if d % 4 != 1:
            fails.append("non-invertibility claimed in a maximal order")
            return fails
        for (x, y) in _qid_vectors(q):
            wx, wy = x + d * y, x + y  # 2*omega*(x + y*sqrt d)
            if wx % 2 or wy % 2 or not _contains(q, wx // 2, wy // 2):
                fails.append("claimed omega-stability fails on a basis vector")
    return fails


def _verify_ideal_principal(report):
    fails = []
    result = report["result"]
    q = dec(result["ideal"])
    d = q[1]
    span = (q[2], q[3], q[4])
    status = result["status"]
    if status == "principal":
        g = dec(result["generator"])
        x, y = int(g[1]), int(g[2])
        if _span(_elem_vectors(x, y, d)) != span:
            fails.append("claimed generator does not span the ideal")
        if x * x - d * y * y != q[2] * q[4]:
            fails.append("generator norm differs from the ideal norm")
    elif status == "non_principal":
        _nonprincipal_by_enumeration(span, d, fails)
    elif status == "not_invertible":
        for (x, y) in [(q[2], 0), (q[3], q[4])]:
            wx, wy = x + d * y, x + y
            if wx % 2 or wy % 2 or not _contains(q, wx // 2, wy // 2):
                fails.append("claimed omega-stability fails on a basis vector")
    return fails


def _verify_ideal_factor(report):
    fails = []
    result = report["result"]
    b = dec(result["element"])
    d = int(b[3])
    x, y = int(b[1]), int(b[2])
    acc = _span(_elem_vectors(1, 0, d))
    for item in result["factors"]:
        p = dec(item["prime"])
        pv = _qid_vectors(p)
        for _ in range(int(item["exponent"])):
            acc = _ideal_product_span([(acc[0], 0), (acc[1], acc[2])], pv, d)
    if acc != _span(_elem_vectors(x, y, d)):
        fails.append("prime powers do not re-multiply to (b)")
    return fails


def _block_span(support, idxs, d):
    acc = _span(_elem_vectors(1, 0, d))
    for i in idxs:
        p = dec(support[i]["prime"])
        pv = _qid_vectors(p)
        for _ in range(int(support[i]["exponent"])):
            acc = _ideal_product_span([(acc[0], 0), (acc[1], acc[2])], pv, d)
    return acc


def _verify_factorization(fact, ring, fails, label=""):
    family = ring["family"]
    factors = [dec(f) for f in fact["factors"]]
    unit = dec(fact["unit"])
    elem = dec(fact["element"])
    prod = v_one_like(elem)
    for f in factors:
        prod = v_mul(prod, f)
    if not v_eq(v_mul(prod, unit), elem):
        fails.append(f"{label}product of factors times unit differs from the element")
    if family == "int":
        if unit[1] not in (1, -1):
            fails.append(f"{label}unit is not +-1")
    else:
        d = int(ring["d"])
        if unit[1] * unit[1] - d * unit[2] * unit[2] != 1:
            fails.append(f"{label}unit does not have norm 1")
    one = v_one_like(elem)
    for cert in fact["pairwise"]:
        i, j = cert["i"], cert["j"]
        lam, mu = dec(cert["lam"]), dec(cert["mu"])
        if not v_eq(v_add(v_mul(lam, factors[i]), v_mul(mu, factors[j])), one):
            fails.append(f"{label}Bezout certificate for factors {i},{j} fails")
    support = fact["support"]
    d = None if family == "int" else int(ring["d"])
    for tidx, tr in enumerate(fact["transcripts"]):
        block = fact["blocks"][tidx]
        k = len(block)
        seen = set()
        for sp in tr["splits"]:
            seen.add((tuple(sorted(sp["left"])), tuple(sorted(sp["right"]))))
            for side in ("left", "right"):
                gen = sp[f"{side}_generator"]
                idxs = sp[side]
                if family == "int":
                    want = 1
                    for i in idxs:
                        want *= int(support[i]["prime"]["value"]) ** int(support[i]["exponent"])
                    if gen is None:
                        fails.append(f"{label}integer block flagged non-principal")
                    elif abs(int(gen["value"])) != want:
                        fails.append(f"{label}integer block generator mismatch")
                else:
                    span = _block_span(support, idxs, d)
                    if gen is None:
                        _nonprincipal_by_enumeration(span, d, fails)
                    else:
                        g = dec(gen)
                        if _span(_elem_vectors(int(g[1]), int(g[2]), d)) != span:
                            fails.append(f"{label}block generator does not span its block")
        if tr["pseudo_irreducible"]:
            # every 2-partition must have been examined and refuted
            want_splits = set()
            for mask in range(1, 1 << (k - 1)):
                left = tuple(sorted(block[i] for i in range(k) if mask >> i & 1))
                right = tuple(sorted(block[i] for i in range(k) if not mask >> i & 1))
                want_splits.add((left, right) if left <= right else (right, left))
            norm_seen = {(l, r) if l <= r else (r, l) for l, r in seen}
            if norm_seen != want_splits:
                fails.append(f"{label}pseudo-irreducibility did not examine every split")
            for sp in tr["splits"]:
                if sp["left_generator"] is not None and sp["right_generator"] is not None:
                    fails.append(f"{label}pseudo-irreducible factor has a comaximal split")
    return fails


def _verify_comax_factor(report):
    fails = []
    result = report["result"]
    entries = result["batch"] if "batch" in result else [result]
    for n, entry in enumerate(entries):
        _verify_factorization(entry["factorization"], report["ring"], fails, label=f"[{n}] ")
    return fails


def _verify_factorization_list(facts, element, ring, fails):
    """Each factorization must factor `element`, and no two may pick the
    same blocks of primes."""
    seen = set()
    for n, fact in enumerate(facts):
        if not v_eq(dec(fact["element"]), element):
            fails.append(f"[{n}] factorization is of another element")
        support = fact["support"]
        blocks = frozenset(
            frozenset(json.dumps(support[i], sort_keys=True) for i in block) for block in fact["blocks"]
        )
        if blocks in seen:
            fails.append(f"[{n}] factorization repeats the blocks of an earlier one")
        seen.add(blocks)
        _verify_factorization(fact, ring, fails, label=f"[{n}] ")


def _verify_comax_unique(report):
    fails = []
    result = report["result"]
    facts = result["factorizations"]
    if len(facts) != result["count"]:
        fails.append("count differs from the factorization list")
    _verify_factorization_list(facts, dec(result["element"]), report["ring"], fails)
    return fails


def _verify_comax_hunt(report):
    fails = []
    result = report["result"]
    if result["witness"] is None:
        return fails
    facts = result["factorizations"]
    if len(facts) < 2:
        fails.append("witness carries fewer than two factorizations")
    _verify_factorization_list(facts, dec(result["witness"]), report["ring"], fails)
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


def _in_base(value, base) -> bool:
    if value is None:
        return False
    if value[0] == "rat":
        # Z lies in every base; a quad base's zero decodes as the rational 0
        return value[1].denominator == 1
    return base["family"] == "quad" and value[1].denominator == 1 and value[2].denominator == 1


def _verify_pullback_reduce(report):
    fails = []
    result = report["result"]
    base = report["ring"]["base"]
    a, b, r = dec(result["a"]), dec(result["b"]), dec(result["witness"])
    f, s = (a, b) if result["orientation"] == "ab" else (b, a)
    one = v_one_like(f)
    if not v_eq(v_mul(f, v_sub(one, f)), v_mul(s, r)):
        fails.append("witness identity fails")
    if result["status"] == "base_non_principal":
        av, bv = dec(result["base_pair"][0]), dec(result["base_pair"][1])
        d = av[3]
        vecs = []
        for e in (av, bv):
            if not v_is_zero(e):
                vecs += _elem_vectors(int(e[1]), int(e[2]), d)
        _nonprincipal_by_enumeration(_span(vecs), d, fails)
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
    for name in ("generator", "qa", "qb", "ca", "cb"):
        val = _rf_value0(dec(result[name]))
        if not _in_base(val, base):
            fails.append(f"{name} is not a member of the pullback (value at 0)")
    return fails


def _verify_pullback_nonufd(report):
    fails = []
    result = report["result"]
    base = report["ring"]["base"]
    z = dec(result["z"])
    dconst = dec(result["d"])
    chain = [dec(e) for e in result["chain"]]
    acc = v_one_like(z)
    for k, e in enumerate(chain, start=1):
        acc = v_mul(acc, dconst)
        if not v_eq(v_mul(e, acc), z):
            fails.append(f"chain element {k} times d^{k} differs from z")
        val = _rf_value0(e)
        if not _in_base(val, base) or not v_is_zero(val):
            fails.append(f"chain element {k} is not in the maximal ideal")
    return fails


def _mon_in_ring(v, ring, fails, label):
    desc = ring["monoid"]
    primes = [int(p) for p in desc["primes"]]
    group = desc["group"]
    base = ring["base"]
    for e, c in v[1]:
        if not group and e < 0:
            fails.append(f"{label}: negative exponent outside group mode")
        den = e.denominator
        for p in primes:
            while den % p == 0:
                den //= p
        if den != 1:
            fails.append(f"{label}: exponent {e} outside the denominator lattice")
        if base["family"] == "int" and c[1].denominator != 1:
            fails.append(f"{label}: coefficient {c[1]} outside Z")
        if base["family"] == "zloc":
            d = c[1].denominator
            for p in (int(p) for p in base["primes"]):
                while d % p == 0:
                    d //= p
            if d != 1:
                fails.append(f"{label}: coefficient {c[1]} outside the localized base")


def _verify_mring_split(report):
    fails = []
    result = report["result"]
    f1, f2 = dec(result["f1"]), dec(result["f2"])
    lam, mu = dec(result["lam"]), dec(result["mu"])
    s = Fraction(result["s"])
    one = v_one_like(f1)
    xs = ("mon", ((s, ("rat", Fraction(1))),))
    if not v_eq(v_mul(f1, f2), v_sub(one, xs)):
        fails.append("f1*f2 != 1 - X^s")
    if not v_eq(v_add(v_mul(lam, f1), v_mul(mu, f2)), one):
        fails.append("Bezout certificate fails")
    for name in ("f1", "f2", "lam", "mu"):
        _mon_in_ring(dec(result[name]), report["ring"], fails, name)
    return fails


def _verify_mring_chain(report):
    fails = []
    result = report["result"]
    factors = [dec(f) for f in result["factors"]]
    s = Fraction(result["s"])
    one = v_one_like(factors[0])
    prod = one
    for f in factors:
        prod = v_mul(prod, f)
    xs = ("mon", ((s, ("rat", Fraction(1))),))
    if not v_eq(prod, v_sub(one, xs)):
        fails.append("product does not telescope to 1 - X^s")
    for cert in result["pairwise"]:
        lam, mu = dec(cert["lam"]), dec(cert["mu"])
        if not v_eq(v_add(v_mul(lam, factors[cert["i"]]), v_mul(mu, factors[cert["j"]])), one):
            fails.append(f"certificate for pair {cert['i']},{cert['j']} fails")
        _mon_in_ring(lam, report["ring"], fails, "lam")
        _mon_in_ring(mu, report["ring"], fails, "mu")
    return fails


def _verify_mring_juett(report):
    fails = []
    result = report["result"]
    unit, f1, f2 = dec(result["unit"]), dec(result["f1"]), dec(result["f2"])
    lam, mu = dec(result["lam"]), dec(result["mu"])
    t, b = Fraction(result["t"]), Fraction(result["b"])
    one = v_one_like(f1)
    xt = ("mon", ((t, ("rat", Fraction(1))),))
    target = v_sub(xt, ("mon", ((Fraction(0), ("rat", b)),)))
    if not v_eq(v_mul(v_mul(unit, f1), f2), target):
        fails.append("unit*(Z-1)*(1+...+Z^(p-1)) != X^t - b")
    if not v_eq(v_add(v_mul(lam, f1), v_mul(mu, f2)), one):
        fails.append("Bezout certificate fails")
    return fails


def _verify_limit_chain(report):
    fails = []
    result = report["result"]
    m = result["m"]
    factors = [dec(f) for f in result["factors"]]
    one = v_one_like(factors[0])
    prod = one
    for f in factors:
        prod = v_mul(prod, f)
    x1 = ("lim", 1, (Fraction(0), Fraction(1)))
    if not v_eq(prod, x1):
        fails.append("product of chain factors differs from the lift of x_1")
    base = report["ring"]["base"]["family"]
    for f in factors:
        if base == "int" and any(c.denominator != 1 for c in f[2]):
            fails.append("factor coefficients leave Z")
    for cert in result["pairwise"]:
        lam, mu = dec(cert["lam"]), dec(cert["mu"])
        if not v_eq(v_add(v_mul(lam, factors[cert["i"]]), v_mul(mu, factors[cert["j"]])), one):
            fails.append(f"certificate for pair {cert['i']},{cert['j']} fails")
    return fails


def _poly_excluded_ok(p, excluded):
    # p: decoded poly whose coefficients are polys in y (or rats)
    for c in p[1]:
        inner = c if c[0] == "poly" else ("poly", (c,) if not v_is_zero(c) else ())
        for deg, cc in enumerate(inner[1]):
            if deg in excluded and not v_is_zero(cc):
                return False
    return True


def _verify_polyext_witness(report):
    fails = []
    result = report["result"]
    alpha = dec(result["alpha"])
    excluded = {int(e) for e in result["excluded"]}
    a2 = v_mul(alpha, alpha)
    a3 = v_mul(a2, alpha)
    inside = lambda p: _poly_excluded_ok(("poly", (p,)), excluded)
    is_witness = (not inside(alpha)) and inside(a2) and inside(a3)
    if is_witness != result["witness"]:
        fails.append("witness verdict differs from recomputation")
    return fails


def _verify_polyext_counterexample(report):
    fails = []
    result = report["result"]
    alpha = dec(result["alpha"])
    u, v, r = dec(result["u"]), dec(result["v"]), dec(result["witness"])
    excluded = {int(e) for e in result["excluded"]}
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
    if not v_eq(v_mul(u, v_sub(one, u)), v_mul(v, r)):
        fails.append("idempotent identity u(1-u) == v*witness fails")
    eq1 = v_add(
        v_mul(
            v_add(one, ("poly", (v_zero_like(alpha), v_zero_like(alpha), a2))),
            v_sub(one, ("poly", (v_zero_like(alpha), v_zero_like(alpha), a2))),
        ),
        ("poly", (v_zero_like(alpha),) * 4 + (a4,)),
    )
    if not v_eq(eq1, one):
        fails.append("the unit-square identity fails")
    for name, val in (("u", u), ("v", v), ("witness", r)):
        if not _poly_excluded_ok(val, excluded):
            fails.append(f"{name} has a coefficient outside the subring")
    if not all(step["verified"] for step in result["transcript"]):
        fails.append("transcript contains an unverified step")
    return fails


def _verify_sphere_projector(report):
    fails = []
    result = report["result"]
    m = [[dec(e) for e in row] for row in result["matrix"]]
    xs = [("sph", {}, {(0, 0): Fraction(1)}),
          ("sph", {(1, 0): Fraction(1)}, {}),
          ("sph", {(0, 1): Fraction(1)}, {})]
    one = v_one_like(xs[0])
    for i in range(3):
        for j in range(3):
            want = v_sub(one if i == j else v_zero_like(xs[0]), v_mul(xs[i], xs[j]))
            if not v_eq(m[i][j], want):
                fails.append(f"matrix entry ({i},{j}) differs from I - x^T x")
    for i in range(3):
        for j in range(3):
            acc = v_zero_like(xs[0])
            for k in range(3):
                acc = v_add(acc, v_mul(m[i][k], m[k][j]))
            if not v_eq(acc, m[i][j]):
                fails.append(f"E*E != E at ({i},{j})")
    for i in range(3):
        acc = v_zero_like(xs[0])
        for k in range(3):
            acc = v_add(acc, v_mul(m[i][k], xs[k]))
        if not v_is_zero(acc):
            fails.append(f"(E x^T)[{i}] != 0")
    trace = v_add(v_add(m[0][0], m[1][1]), m[2][2])
    if not v_eq(trace, v_mul(v_one_like(xs[0]), ("rat", Fraction(2)))):
        fails.append("trace(E) != 2")
    sect = v_zero_like(xs[0])
    for k in range(3):
        sect = v_add(sect, v_mul(xs[k], xs[k]))
    if not v_eq(sect, one):
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
    (empty means everything re-checked)."""
    fn = _VERIFIERS.get(report.get("command"))
    if fn is None:
        return [f"no recheck routine for command {report.get('command')!r}"]
    try:
        return fn(report)
    except Exception as exc:  # a malformed report must fail loudly, not crash
        return [f"recheck aborted: {type(exc).__name__}: {exc}"]
