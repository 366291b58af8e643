"""The verifiers of Z and Z[sqrt(d)] and their ideals: `ideal` and `comax`
reports.

Ideal lattices are put in Hermite normal form by `_span`, this part's own
2x2 reduction.  `_omega_fails` checks omega-stability and `_Blocks`
multiplies prime powers.  `_quad_xy` reads the coordinates of a Z[sqrt(d)]
element and fails one that is not integral, where `int()` would truncate a
Fraction to another element.  Every non-principal claim (`ideal principal`,
and the base pair of `pullback reduce`, which `pairs` checks with this
part's lattice code) is checked by `_nonprincipal_fails`: the ideal's binary
quadratic form must not reduce to (1, 0, -d), with its own reduction
`_reduced`.

Recheck ties each comax factor to its block and decides itself whether
the block splits into two principal blocks (`_Blocks`), by walking the
ideal classes its sub-blocks reach.  A comax result writes its element and
support once, beside its factorizations, and `_comax_fails` reads each
once, so each distinct block is checked once per element.  The support
lists distinct primes (`_prime_label`): over Z rational primes, over
Z[sqrt(d)] ideals of prime norm or pO with p inert.  That the list of
factorizations of `comax unique` is complete is not certified.

Each of `ideal mul`'s norms is tied to the basis determinant n*m of its
lattice.
"""

from __future__ import annotations

from math import gcd

from ..rational import Fraction
from .values import _comaximal_fails, _member_fails, _not_prime, dec

# ----------------------------------------------------- quadratic lattices


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _span(vectors):
    """The Hermite normal form (n, c, m) of the Z-span of integer 2-vectors:
    the basis (n, 0), (c, m) with n, m >= 0 and 0 <= c < n when n > 0 (a
    rank below 2 leaves n or m zero).  Each vector (x, y) is merged into
    the pivot (c, m) by one unimodular step on (m, y), whose other row
    lies on the x-axis and joins n."""
    n, c, m = 0, 0, 0
    for x, y in vectors:
        if y:
            g, s, t = _xgcd(m, y)
            c, x, m = s * c + t * x, (y * c - m * x) // g, g
        n = gcd(n, x)
        if n:
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


def _verify_ideal_frompair(report):
    d, fails = int(report["ring"]["d"]), []
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
    d, fails = int(report["ring"]["d"]), []
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
    d, fails = int(report["ring"]["d"]), []
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
    d, fails = int(report["ring"]["d"]), []
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
    d, fails = int(report["ring"]["d"]), []
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
    """The prime powers of one support and its blocks, ascending index
    tuples, each checked once.  A block's product is that of the block
    without its last index times that prime power: over Z an integer, over
    Z[sqrt(d)] a lattice, one ideal product per sub-block.

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
        self.primes = [dec(e["prime"]) for e in support]
        seen = set()
        for i, p in enumerate(self.primes):
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
                acc, p = self.span(idxs[:-1]), self.primes[idxs[-1]]
                for _ in range(int(self.support[idxs[-1]]["exponent"])):
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


def _verify_factorization(fact, element, blocks, fails, label):
    """Product, pairs and unit of one factorization of `element` over
    `blocks`' support: each lam and mu lies in the ring (over the fraction
    field any two nonzero elements are comaximal), each factor generates its
    block's ideal, the blocks partition the support, and each block is
    pseudo-irreducible."""
    d = blocks.d
    m = len(fact["factors"])
    unit = dec(fact["unit"])
    pairs = []
    factors = _comaximal_fails(fact, element, "product of factors times unit differs from the element", fails, label,
                               unit, each=lambda c, *pair: pairs.append((c, pair)))
    lam_mu = [(f"{label}pairwise {c['i']},{c['j']} {name}", v)
              for c, pair in pairs for name, v in zip(("lam", "mu"), pair)]
    _member_fails(lam_mu, blocks.ring, fails, "is not an integer" if d is None else "does not have integer coordinates")
    if d is None:
        if unit[1] not in (1, -1):
            fails.append(f"{label}unit is not +-1")
    elif unit[1] * unit[1] - d * unit[2] * unit[2] != 1:
        fails.append(f"{label}unit does not have norm 1")
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


def _comax_fails(result, key, facts, ring, fails, first=0):
    """The one check of a comax result: its element (under `key`) and its
    support, each read once, and over them each factorization of `facts`,
    labelled by its index from `first`, no two of which may pick the same
    blocks."""
    if not facts:
        fails.append("no factorization is listed")
        return
    element = dec(result[key])
    blocks = _Blocks(result["support"], ring, fails)
    seen = set()
    for n, fact in enumerate(facts, first):
        picked = frozenset(tuple(sorted(b)) for b in fact["blocks"])
        if picked in seen:
            fails.append(f"[{n}] factorization repeats the blocks of an earlier one")
        seen.add(picked)
        _verify_factorization(fact, element, blocks, fails, f"[{n}] ")


def _verify_comax_factor(report):
    result, fails = report["result"], []
    for n, entry in enumerate(result["batch"] if "batch" in result else [result]):
        _comax_fails(entry, "element", [entry["factorization"]], report["ring"], fails, n)
    return fails


def _verify_comax_unique(report):
    result, fails = report["result"], []
    if len(result["factorizations"]) != result["count"]:
        fails.append("count differs from the factorization list")
    _comax_fails(result, "element", result["factorizations"], report["ring"], fails)
    return fails


def _verify_comax_hunt(report):
    result, fails = report["result"], []
    bound = result["bound"]
    if bound < 2:
        fails.append(f"bound {bound} is below 2, so no norm was scanned")
    if result["witness"] is None:
        # a verdict that carries no certificate
        if result["factorizations"] != []:
            fails.append("a no_witness verdict carries factorizations")
        if "support" in result:
            fails.append("a no_witness verdict carries a support")
        return fails
    witness = dec(result["witness"])
    norm = abs(witness[1]) if witness[0] == "rat" else witness[1] ** 2 - int(report["ring"]["d"]) * witness[2] ** 2
    if norm > bound:
        fails.append(f"witness norm {norm} exceeds the bound {bound}")
    if len(result["factorizations"]) < 2:
        fails.append("witness carries fewer than two factorizations")
    _comax_fails(result, "witness", result["factorizations"], report["ring"], fails)
    return fails
