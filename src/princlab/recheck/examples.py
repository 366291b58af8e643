"""The verifiers of the paper's example rings: `mring split|chain|juett`
over D[X;S], `limitring chain`, `polyext witness|counterexample` and
`sphere projector`.

A limit chain's product runs x_m, 1+x_m, 1+x_(m-1), ..., 1+x_2: as x_k *
(1+x_k) == x_(k-1), the partial products are x_(m-1), x_(m-2), ... at level
m, each half the degree of the next, where the listed order starts at
degree 2^(m-2).  A chain's lam and mu are checked for membership in the
ring as `_comaximal_fails` decodes them, pair by pair; their failures still
follow those of the factors.  A factor, lam or mu above level m fails
before any product or Bezout identity, which would lift it there first.

`mring split`'s n is tied to the term count of f2 and its remainder to n.
A `polyext counterexample` report is rechecked from alpha and the excluded
degrees alone: u and v must be 1 - alpha^4 X^4 and alpha^2 + alpha^3 X,
with the witness r, u(1 - u) == v*r and u, v, r in D[X], and alpha must be
a seminormality witness, outside D with alpha^2 and alpha^3 inside
(`_alpha_witness`, shared with `polyext witness`), and the excluded degrees
must leave a subring D (`_subring_fails`, bounded before its walk).  The
rest of the non-principality argument (`polyext.nonprinc_pair_from_alpha`)
holds for every alpha.
"""

from __future__ import annotations

from ..rational import Fraction
from .polys import _mat_mul, _mon_of, _projector_fails
from .values import (_comaximal_fails, _idempotent_fails, _member_fails, dec, v_add, v_eq, v_is_zero, v_mul, v_neg,
                     v_one_like, v_sub, v_zero_like)


def _split_pair(result):
    # a two-factor split (f1, f2 with lam*f1 + mu*f2 == 1) as a certificate
    return {"factors": [result["f1"], result["f2"]],
            "pairwise": [{"i": 0, "j": 1, "lam": result["lam"], "mu": result["mu"]}]}


def _x_minus(t, b):
    """X^t - b as a "mon" value."""
    return _mon_of([(Fraction(t), Fraction(1)), (Fraction(0), -Fraction(b))])


def _verify_mring_split(report):
    fails, pair = [], []
    result = report["result"]
    f1, f2 = _comaximal_fails(_split_pair(result), v_neg(_x_minus(result["s"], 1)), "f1*f2 != 1 - X^s", fails,
                              each=lambda c, lam, mu: pair.extend((("lam", lam), ("mu", mu))))
    # f2 == 1 + X^t + ... + X^(t(n-1)), whose remainder mod 1 - X^t is n
    if result["n"] != len(f2[3]) or Fraction(result["remainder"]) != result["n"]:
        fails.append("n is not the number of terms of f2, or remainder is not n")
    _member_fails((("f1", f1), ("f2", f2), *pair), report["ring"], fails)
    return fails


def _verify_mring_chain(report):
    fails, outside = [], []
    result, ring = report["result"], report["ring"]
    factors = _comaximal_fails(result, v_neg(_x_minus(result["s"], 1)), "product does not telescope to 1 - X^s",
                               fails, each=lambda c, lam, mu: _member_fails((("lam", lam), ("mu", mu)), ring, outside))
    if result["m"] != len(factors):
        fails.append(f"m is {result['m']}, but the chain has {len(factors)} factors")
    _member_fails([(f"factors[{k}]", f) for k, f in enumerate(factors)], ring, fails)
    return fails + outside


def _verify_mring_juett(report):
    fails, pair = [], []
    result = report["result"]
    t, b, p, beta = Fraction(result["t"]), Fraction(result["b"]), result["p"], Fraction(result["beta"])
    z, unit = dec(result["z"]), dec(result["unit"])
    f1, f2 = _comaximal_fails(_split_pair(result), _x_minus(t, b), "unit*(Z-1)*(1+...+Z^(p-1)) != X^t - b", fails,
                              unit=unit, each=lambda c, lam, mu: pair.extend((("lam", lam), ("mu", mu))))
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
    _member_fails((("unit", unit), ("f1", f1), ("f2", f2), *pair), report["ring"], fails)
    return fails


def _verify_limitring_chain(report):
    fails, outside = [], []
    result, ring = report["result"], report["ring"]
    m = len(result["factors"])  # x_m, then 1+x_m down to 1+x_2 (see the module docstring)

    def too_deep(named, into):
        # lifting a value above level m, before a check fails, costs about 8-fold per level
        deep = [f"{name} has level {v[1]}, above the chain's m = {m}" for name, v in named if v[0] == "lim" and v[1] > m]
        into += deep
        return deep

    def member(c, lam, mu):
        # over Z: the limit ring's only bases are Q and Z
        named = ((f"pairwise {c['i']},{c['j']} lam", lam), (f"pairwise {c['i']},{c['j']} mu", mu))
        if too_deep(named, outside):
            return True
        _member_fails(named, ring, outside, "coefficients leave Z")

    if too_deep([(f"factors[{k}]", dec(f)) for k, f in enumerate(result["factors"])], fails):
        return fails
    factors = _comaximal_fails(result, ("lim", 1, (0, 1)), "product of chain factors differs from the lift of x_1",
                               fails, order=[0, *range(m - 1, 0, -1)][:m], each=member)
    if result["m"] != len(factors):
        fails.append(f"m is {result['m']}, but the chain has {len(factors)} factors")
    _member_fails([("factor", f) for f in factors], ring, fails, "coefficients leave Z")
    return fails + outside


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
    gaps.  That bound is checked first.  Closure is then checked through
    the multiplicity m, the least positive degree left: adding m must keep
    every degree left, so each class mod m is left from its least degree
    on (its Apery element), and the sum of any two Apery elements must be
    left.  Sums above the largest gap are always left; the walk takes
    O(top + m^2) steps."""
    if min(excluded, default=1) < 1:
        return ["excluded degrees must be positive (1 must lie in D)"]
    top = max(excluded, default=0)
    if excluded and top >= 2 * len(excluded):
        return [f"excluded degree {top} is not below twice the number of excluded degrees, "
                "so D is not closed under products"]
    left = [i for i in range(1, top) if i not in excluded]
    m = left[0] if left else top + 1
    for i in left:
        if i + m in excluded:
            return [f"D is not closed under products: {i} + {m} is excluded"]
    apery = sorted({i % m: i for i in reversed(left)}.values())
    for k, w in enumerate(apery):
        for v in apery[k:]:
            if w + v > top:
                break
            if w + v in excluded:
                return [f"D is not closed under products: {w} + {v} is excluded"]
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
    if result["checks"] != [[n, True] for n in ("E*E == E", "E*x^T == 0", "x*E == 0", "trace(E) == 2", "x*x^T == 1")]:
        fails.append("checks are not the five identities, each true")
    return fails

