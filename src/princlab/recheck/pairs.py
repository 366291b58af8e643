"""The verifiers of idempotent pairs: `idem check|matrix|from-ideal` over
every ring, and `pullback reduce|nonufd` over D+M pullbacks.

The negative idem verdicts are decided again where that is cheap: over Z,
Z[sqrt(d)] and Q[X] `not_idempotent_pair` holds exactly when neither
b | a(1 - a) nor a | b(1 - b) (`_divides`), and over Z and Q[X]
`not_invertible` exactly when a = b = 0.  Over the other rings these
verdicts carry no certificate and are not checked.

Fields that only restate another are tied to it: an idempotent pair's
members to the report's a and b, and a derived pair's orientation to "ab".
A pullback's non-principal base pair is checked with the lattice code of
`orders`, which this part imports only for that verdict.
"""

from __future__ import annotations

from .values import (_idempotent_fails, _member_fails, _part, _promote, dec, v_add, v_eq, v_is_zero, v_mul,
                     v_one_like, v_sub)


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
    """A not_idempotent_pair verdict carries no certificate: the complement
    of an `idem check` report is null, and an `idem matrix` report has no
    matrix.  Over Z, Z[sqrt(d)] or Q[X] it is decided again from a and b:
    neither b | a(1-a) nor a | b(1-b).  Over the other rings it is not
    checked."""
    ring, result = report["ring"], report["result"]
    if report["command"] == "idem check":
        carried = [] if result["complement"] is None else ["a not_idempotent_pair verdict carries a complement"]
    else:
        carried = ["a not_idempotent_pair verdict carries a matrix"] if "matrix" in result else []
    if ring["family"] not in ("int", "quad", "qpoly"):
        return carried
    a, b, fails = dec(result["a"]), dec(result["b"]), []
    _member_fails((("a", a), ("b", b)), ring, fails)
    if not fails and any(_divides(s, v_mul(f, v_sub(v_one_like(f), f)), ring) for f, s in ((a, b), (b, a))):
        fails.append("a and b form an idempotent pair")
    return carried + fails


def _pair_identity(report, fails):
    result = report["result"]
    a, b = dec(result["a"]), dec(result["b"])
    pair = result["pair"]
    pa, pb, r = dec(pair["a"]), dec(pair["b"]), dec(pair["witness"])
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
    result, fails = report["result"], []
    if result["pair"] is None:
        return _not_a_pair_fails(report)
    a, b, f, s, r = _pair_identity(report, fails)
    _complement(result, f, s, report["ring"], fails)
    return fails


def _verify_idem_matrix(report):
    result, fails = report["result"], []
    if result["pair"] is None:
        return _not_a_pair_fails(report)
    _, _, f, s, r = _pair_identity(report, fails)
    m = [[dec(e) for e in row] for row in result["matrix"]]
    one = v_one_like(f)
    want = [[f, s], [r, v_sub(one, f)]]
    for i in range(2):
        for j in range(2):
            if not v_eq(m[i][j], want[i][j]):
                fails.append(f"matrix entry ({i},{j}) differs from the pair data")
    _part()._projector_fails(m, fails, "M")
    return fails


def _verify_idem_from_ideal(report):
    fails = []
    result = report["result"]
    a, b = dec(result["a"]), dec(result["b"])
    if result.get("pair") is None:
        # the verdict carries no certificate.  Over Z and Q[X], principal
        # ideal domains, only (0, 0) is not invertible; over Z[sqrt(d)] it is
        # not checked
        fails += [f"a not_invertible verdict carries {k}" for k in ("bezout", "pair", "complement") if k in result]
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
    _member_fails(named, report["ring"], fails)
    _idempotent_fails(pa, pb, wit, fails, "derived pair fails its defining relation")
    _complement(result, pa, pb, report["ring"], fails)
    return fails


def _verify_pullback_reduce(report):
    fails = []
    result = report["result"]
    base = report["ring"]["base"]
    a, b, r = dec(result["a"]), dec(result["b"]), dec(result["witness"])
    f, s = (a, b) if result["orientation"] == "ab" else (b, a)
    _idempotent_fails(f, s, r, fails, "witness identity fails")
    pair, values = result["base_pair"], [_part()._rf_value0(f), _part()._rf_value0(s)]
    if result["case"] != "base_reduction":
        if pair is not None:
            fails.append("base_pair is set outside a base reduction")
    elif pair is None or len(pair) != 2 or None in values or not all(map(v_eq, map(dec, pair), values)):
        fails.append("base_pair is not the values at Y=0 of the oriented pair")
    status = result["status"]
    if status == "base_non_principal":
        if base["family"] != "quad":
            fails.append(f"base_non_principal claimed over the principal ideal domain {base['family']}")
            return fails
        from .orders import _elem_vectors, _nonprincipal_fails, _quad_xy, _span

        d, av, bv = int(base["d"]), dec(pair[0]), dec(pair[1])
        vecs = []
        for k, e in enumerate((av, bv)):
            xy = _quad_xy(e, f"base_pair[{k}]", fails)
            if xy is None:
                return fails
            if any(xy):
                vecs += _elem_vectors(*xy, d)
        _nonprincipal_fails(_span(vecs), d, fails, "the ideal of base_pair")
        return fails
    if status != "principal":
        fails.append(f"unknown status {status!r}")
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
        val = _part()._rf_value0(e)
        if val is None or not v_is_zero(val):  # zero lies in every base
            fails.append(f"chain element {k} is not in the maximal ideal")
    return fails

